#include "rocc/cost_model.hpp"

#include <algorithm>
#include <utility>

#include "rocc/app_process.hpp"

namespace paradyn::rocc {
namespace {

// The global scope's steps (Paradyn's cost model).
constexpr double kGlobalGrow = 1.5;
constexpr double kGlobalShrink = 0.75;
// The per-daemon scope's fixed law: re-evaluate (and predict) every 250 ms;
// the period doubles over budget and halves under half of it, within
// [SP, 16 SP].  Periods stay SP * 2^k, so period / SP is exact.
constexpr SimTime kPerDaemonIntervalUs = 250'000.0;
constexpr double kPerDaemonMaxSlowdown = 16.0;
constexpr double kPerDaemonGrow = 2.0;
constexpr double kPerDaemonShrink = 0.5;

}  // namespace

SamplingRegulator::SamplingRegulator(des::Engine& engine, const RegulatorConfig& config,
                                     SimTime sampling_period_us)
    : engine_(engine),
      global_(config.scope == RegulatorScope::Global),
      budget_pct_(config.budget_pct),
      grow_(global_ ? kGlobalGrow : kPerDaemonGrow),
      shrink_(global_ ? kGlobalShrink : kPerDaemonShrink),
      interval_us_(global_ ? config.adjust_interval_us : kPerDaemonIntervalUs),
      min_period_us_(global_ ? config.min_period_us : sampling_period_us),
      max_period_us_(global_ ? config.max_period_us
                             : kPerDaemonMaxSlowdown * sampling_period_us),
      initial_period_us_(std::clamp(sampling_period_us, min_period_us_, max_period_us_)),
      peak_period_us_(initial_period_us_) {}

std::int32_t SamplingRegulator::add_domain(std::vector<const CpuResource*> cpus,
                                           double cpu_share, double capacity_per_us) {
  Domain& d = domains_.emplace_back();
  d.cpus = std::move(cpus);
  d.cpu_share = cpu_share;
  d.capacity_per_us = capacity_per_us;
  d.period_us = initial_period_us_;
  return static_cast<std::int32_t>(domains_.size()) - 1;
}

void SamplingRegulator::add_app(std::int32_t domain, const ApplicationProcess* app) {
  domains_.at(static_cast<std::size_t>(domain)).apps.push_back(app);
}

double SamplingRegulator::busy_us(const Domain& d) const {
  double busy = 0.0;
  for (const CpuResource* cpu : d.cpus) {
    const double is_busy = global_ ? cpu->busy_time(ProcessClass::ParadynDaemon) +
                                         cpu->busy_time(ProcessClass::MainParadyn)
                                   : cpu->busy_time(ProcessClass::ParadynDaemon);
    busy += is_busy * d.cpu_share;
  }
  return busy;
}

double SamplingRegulator::blocked_us(const Domain& d) const {
  double blocked = 0.0;
  for (const ApplicationProcess* app : d.apps) blocked += app->pipe_blocked_time_us(engine_.now());
  return blocked;
}

void SamplingRegulator::start() {
  last_tick_at_ = engine_.now();
  for (Domain& d : domains_) {
    d.last_busy_us = busy_us(d);
    d.last_blocked_us = blocked_us(d);
  }
  engine_.schedule_after(interval_us_, [this] { on_tick(); });
}

void SamplingRegulator::on_tick() {
  const SimTime now = engine_.now();
  const double window = now - last_tick_at_;
  last_tick_at_ = now;
  ++ticks_;
  for (Domain& d : domains_) {
    const double busy = busy_us(d);
    const double blocked = blocked_us(d);
    // max(0, ...): a warm-up reset can rewind the busy counters mid-window.
    const double pct =
        (window > 0.0)
            ? std::max(0.0, 100.0 * ((busy - d.last_busy_us) + (blocked - d.last_blocked_us)) /
                                (d.capacity_per_us * window))
            : 0.0;
    d.last_busy_us = busy;
    d.last_blocked_us = blocked;
    // Per daemon, linear extrapolation one interval ahead: regulate on the
    // *predicted* perturbation, so a rising transient is damped before it
    // crosses the budget rather than after.
    const double signal = global_ ? pct : pct + (pct - d.last_pct);
    d.last_pct = pct;
    // Multiplicative back-off over budget; speed-up only when comfortably
    // under half of it (hysteresis keeps the loop from oscillating at the
    // boundary).
    SimTime next = d.period_us;
    if (signal > budget_pct_) {
      next = std::min(d.period_us * grow_, max_period_us_);
    } else if (signal < 0.5 * budget_pct_) {
      next = std::max(d.period_us * shrink_, min_period_us_);
    }
    if (next != d.period_us) {
      d.period_us = next;
      ++adjustments_;
      peak_period_us_ = std::max(peak_period_us_, next);
    }
    if (global_) log_.push_back({now, pct, d.period_us});
  }
  engine_.schedule_after(interval_us_, [this] { on_tick(); });
}

}  // namespace paradyn::rocc
