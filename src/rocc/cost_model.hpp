// Adaptive instrumentation cost model (Paradyn's dynamic cost model,
// Hollingsworth & Miller, EuroPar'96 — reference [12] of the paper).
//
// Paradyn regulates its own perturbation: it observes what the IS costs and
// adapts the data-collection rate to keep that cost under a user-specified
// budget (the "tolerable limits" the paper's Section 7 wants users to
// express).  SamplingRegulator implements that loop inside the ROCC model:
// every tick it measures each domain's perturbation over the window and
// scales the domain's sampling period multiplicatively — up when over
// budget, down when under half of it.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "des/engine.hpp"
#include "rocc/config.hpp"
#include "rocc/cpu.hpp"
#include "rocc/metrics.hpp"
#include "rocc/types.hpp"

namespace paradyn::rocc {

class ApplicationProcess;

/// On-line perturbation regulator over a set of domains, each owning a live
/// sampling period that its application processes read when arming their
/// next sampling timer.  The scope fixes the law:
///
/// - Global (--adaptive-budget): one domain of every CPU; the signal is
///   ParadynDaemon + MainParadyn busy time over the total CPU capacity.
///   Ticks every config.adjust_interval_us; period *= 1.5 over budget and
///   *= 0.75 under half of it, within [min_period_us, max_period_us].  Each
///   tick is logged.
/// - PerDaemon (--adaptive-sampling): one domain per daemon — its share of
///   the host CPU's ParadynDaemon busy time plus the pipe-blocked time of
///   the application processes it instruments.  The signal is extrapolated
///   one interval ahead; ticks every 250 ms; period *= 2 over budget and
///   *= 0.5 under half of it, within [SP, 16 SP].
class SamplingRegulator {
 public:
  /// `config` has passed SystemConfig::validate() and its scope is not
  /// Off.  `sampling_period_us` (SP) is the configured period; every
  /// domain starts at SP clamped into the scope's bounds.
  SamplingRegulator(des::Engine& engine, const RegulatorConfig& config,
                    SimTime sampling_period_us);

  SamplingRegulator(const SamplingRegulator&) = delete;
  SamplingRegulator& operator=(const SamplingRegulator&) = delete;

  /// Register one domain: its CPUs, the fraction of their busy time it
  /// owns (1/daemons-per-host on SMP, an even split since per-class CPU
  /// accounting is shared) and its capacity in CPUs.  Returns its index.
  std::int32_t add_domain(std::vector<const CpuResource*> cpus, double cpu_share,
                          double capacity_per_us);

  /// Register an application process whose pipe-blocked time counts
  /// toward the domain's perturbation.
  void add_app(std::int32_t domain, const ApplicationProcess* app);

  /// Begin the periodic tick loop.
  void start();

  /// The domain's live sampling period; the reference stays valid for the
  /// regulator's lifetime.
  [[nodiscard]] const SimTime& period_us(std::int32_t domain) const noexcept {
    return domains_[static_cast<std::size_t>(domain)].period_us;
  }
  /// Largest period any domain reached.
  [[nodiscard]] SimTime peak_period_us() const noexcept { return peak_period_us_; }
  /// Period changes, summed over domains and ticks.
  [[nodiscard]] std::uint64_t adjustments() const noexcept { return adjustments_; }
  /// Tick events this instance fired.  Simulation subtracts the per-shard
  /// replicas' ticks so `events_processed` stays shard-count-invariant.
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  /// Global scope: one entry per tick.
  [[nodiscard]] const std::vector<CostModelAdjustment>& log() const noexcept { return log_; }

 private:
  struct Domain {
    std::vector<const CpuResource*> cpus;
    double cpu_share = 1.0;
    double capacity_per_us = 1.0;
    std::vector<const ApplicationProcess*> apps;
    SimTime period_us = 0.0;
    double last_pct = 0.0;  ///< Perturbation over the previous window.
    double last_busy_us = 0.0;
    double last_blocked_us = 0.0;
  };

  void on_tick();
  [[nodiscard]] double busy_us(const Domain& d) const;
  [[nodiscard]] double blocked_us(const Domain& d) const;

  des::Engine& engine_;
  bool global_;
  double budget_pct_;
  double grow_;
  double shrink_;
  SimTime interval_us_;
  SimTime min_period_us_;
  SimTime max_period_us_;
  SimTime initial_period_us_;
  /// A deque so period_us() references survive later add_domain calls.
  std::deque<Domain> domains_;
  SimTime last_tick_at_ = 0.0;
  SimTime peak_period_us_;
  std::uint64_t adjustments_ = 0;
  std::uint64_t ticks_ = 0;
  std::vector<CostModelAdjustment> log_;
};

}  // namespace paradyn::rocc
