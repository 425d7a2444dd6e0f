// Adaptive instrumentation cost model (Paradyn's dynamic cost model,
// Hollingsworth & Miller, EuroPar'96 — reference [12] of the paper).
//
// Paradyn regulates its own perturbation: it observes the CPU the IS is
// consuming and adapts the data-collection rate to keep the direct
// overhead under a user-specified budget (the "tolerable limits" the
// paper's Section 7 wants users to express).  This controller implements
// that loop inside the ROCC model: every adjustment interval it measures
// the IS's CPU occupancy over the window and scales the sampling period
// multiplicatively — up when over budget, down when comfortably under.
#pragma once

#include <cstdint>
#include <vector>

#include "des/engine.hpp"
#include "rocc/config.hpp"
#include "rocc/cpu.hpp"
#include "rocc/metrics.hpp"
#include "rocc/types.hpp"

namespace paradyn::rocc {

/// On-line overhead regulator.  Owns the current sampling period; the
/// application processes read it when arming their next sampling timer.
class SamplingController {
 public:
  SamplingController(des::Engine& engine, const AdaptiveSamplingConfig& config,
                     SimTime initial_period_us, std::vector<const CpuResource*> cpus,
                     double total_cpu_capacity_per_us);

  SamplingController(const SamplingController&) = delete;
  SamplingController& operator=(const SamplingController&) = delete;

  /// Begin the periodic adjustment loop.
  void start();

  /// The sampling period the instrumentation should currently use.
  [[nodiscard]] SimTime current_period_us() const noexcept { return period_us_; }

  /// Decision log (one entry per adjustment interval).
  [[nodiscard]] const std::vector<CostModelAdjustment>& adjustments() const noexcept {
    return adjustments_;
  }

 private:
  void on_adjust();
  [[nodiscard]] double is_busy_time_us() const;

  des::Engine& engine_;
  AdaptiveSamplingConfig config_;
  SimTime period_us_;
  std::vector<const CpuResource*> cpus_;
  double capacity_per_us_;
  double last_is_busy_us_ = 0.0;
  SimTime last_adjust_at_ = 0.0;
  std::vector<CostModelAdjustment> adjustments_;
};

class ApplicationProcess;

/// Per-daemon perturbation throttle (--adaptive-sampling): where the
/// SamplingController regulates one global period against direct IS CPU
/// cost, this controller regulates each daemon *domain* (the daemon plus
/// the application processes it instruments) against its own perturbation —
/// daemon CPU occupancy plus application pipe-blocked time, the two paths
/// by which the IS perturbs the paper's workload.  The measured fraction is
/// linearly extrapolated one interval ahead; a domain whose *predicted*
/// perturbation exceeds the budget gets its sampling period stretched
/// (factor doubles, capped at 16), and halves back toward 1 once the
/// prediction falls under half the budget; the prediction horizon and
/// adjustment interval are 250 ms.
class PerDaemonThrottle {
 public:
  PerDaemonThrottle(des::Engine& engine, const AdaptiveThrottleConfig& config);

  PerDaemonThrottle(const PerDaemonThrottle&) = delete;
  PerDaemonThrottle& operator=(const PerDaemonThrottle&) = delete;

  /// Register one daemon domain.  `cpu_share` is the fraction of the host
  /// CPU's ParadynDaemon-class busy time attributable to this daemon (1 on
  /// NOW/MPP; 1/daemons-per-host on SMP, an even-split approximation since
  /// per-class CPU accounting is shared).  Returns the domain index.
  std::int32_t add_domain(const CpuResource* cpu, double cpu_share, double capacity_per_us);

  /// Register an application process whose sampling the domain throttles.
  void add_app(std::int32_t domain, const ApplicationProcess* app);

  /// Begin the periodic adjustment loop.
  void start();

  /// Current sampling-period multiplier of a domain (>= 1).
  [[nodiscard]] double factor(std::int32_t domain) const noexcept {
    return domains_[static_cast<std::size_t>(domain)].factor;
  }
  [[nodiscard]] std::vector<double> factors() const;
  [[nodiscard]] double max_factor() const noexcept { return max_factor_; }
  [[nodiscard]] std::uint64_t adjustments() const noexcept { return adjustments_; }
  /// Adjustment-interval events this instance fired (whether or not any
  /// factor moved).  Simulation subtracts the replicas' control events so
  /// `events_processed` stays shard-count-invariant.
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }

 private:
  struct Domain {
    const CpuResource* cpu = nullptr;
    double cpu_share = 1.0;
    double capacity_per_us = 1.0;
    std::vector<const ApplicationProcess*> apps;
    double factor = 1.0;
    double current_pct = 0.0;  ///< Perturbation over the last window.
    double last_busy_us = 0.0;
    double last_blocked_us = 0.0;
  };

  void on_adjust();

  des::Engine& engine_;
  double budget_pct_;  ///< Predicted-perturbation budget, percent.
  std::vector<Domain> domains_;
  SimTime last_adjust_at_ = 0.0;
  double max_factor_ = 1.0;
  std::uint64_t adjustments_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace paradyn::rocc
