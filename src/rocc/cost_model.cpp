#include "rocc/cost_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "rocc/app_process.hpp"

namespace paradyn::rocc {
namespace {

// PerDaemonThrottle's fixed control law: re-evaluate (and predict) every
// 250 ms; per-domain period multiplier in [1, 16]; factor *= 2 when over
// budget, *= 0.5 (floored at 1) when under half budget.
constexpr SimTime kThrottleIntervalUs = 250'000.0;
constexpr double kThrottleMaxSlowdown = 16.0;
constexpr double kThrottleGrow = 2.0;
constexpr double kThrottleShrink = 0.5;

}  // namespace

SamplingController::SamplingController(des::Engine& engine,
                                       const AdaptiveSamplingConfig& config,
                                       SimTime initial_period_us,
                                       std::vector<const CpuResource*> cpus,
                                       double total_cpu_capacity_per_us)
    : engine_(engine),
      config_(config),
      period_us_(initial_period_us),
      cpus_(std::move(cpus)),
      capacity_per_us_(total_cpu_capacity_per_us) {
  if (!(config_.overhead_budget_pct > 0.0)) {
    throw std::invalid_argument("SamplingController: overhead budget must be > 0");
  }
  if (!(config_.adjust_interval_us > 0.0)) {
    throw std::invalid_argument("SamplingController: adjust interval must be > 0");
  }
  if (!(config_.min_period_us > 0.0) || config_.max_period_us < config_.min_period_us) {
    throw std::invalid_argument("SamplingController: bad period bounds");
  }
  if (!(config_.grow > 1.0) || !(config_.shrink > 0.0) || !(config_.shrink < 1.0)) {
    throw std::invalid_argument("SamplingController: grow must be > 1 and shrink in (0,1)");
  }
  if (cpus_.empty() || !(capacity_per_us_ > 0.0)) {
    throw std::invalid_argument("SamplingController: need CPUs and positive capacity");
  }
  period_us_ = std::clamp(period_us_, config_.min_period_us, config_.max_period_us);
}

double SamplingController::is_busy_time_us() const {
  double busy = 0.0;
  for (const CpuResource* cpu : cpus_) {
    busy += cpu->busy_time(ProcessClass::ParadynDaemon) +
            cpu->busy_time(ProcessClass::MainParadyn);
  }
  return busy;
}

void SamplingController::start() {
  last_is_busy_us_ = is_busy_time_us();
  last_adjust_at_ = engine_.now();
  engine_.schedule_after(config_.adjust_interval_us, [this] { on_adjust(); });
}

void SamplingController::on_adjust() {
  const double busy = is_busy_time_us();
  const SimTime now = engine_.now();
  const double window = now - last_adjust_at_;
  // max(0, ...): a warm-up reset can rewind the busy counters mid-window.
  const double overhead_pct =
      (window > 0.0)
          ? std::max(0.0, 100.0 * (busy - last_is_busy_us_) / (capacity_per_us_ * window))
          : 0.0;
  last_is_busy_us_ = busy;
  last_adjust_at_ = now;

  // Multiplicative increase of the period (rate back-off) when over
  // budget; gentle speed-up only when comfortably under half the budget
  // (hysteresis keeps the controller from oscillating at the boundary).
  if (overhead_pct > config_.overhead_budget_pct) {
    period_us_ = std::min(period_us_ * config_.grow, config_.max_period_us);
  } else if (overhead_pct < 0.5 * config_.overhead_budget_pct) {
    period_us_ = std::max(period_us_ * config_.shrink, config_.min_period_us);
  }
  adjustments_.push_back({now, overhead_pct, period_us_});

  engine_.schedule_after(config_.adjust_interval_us, [this] { on_adjust(); });
}

PerDaemonThrottle::PerDaemonThrottle(des::Engine& engine, const AdaptiveThrottleConfig& config)
    : engine_(engine), budget_pct_(config.perturbation_budget_pct) {
  if (!(budget_pct_ > 0.0)) {
    throw std::invalid_argument("PerDaemonThrottle: perturbation budget must be > 0");
  }
}

std::int32_t PerDaemonThrottle::add_domain(const CpuResource* cpu, double cpu_share,
                                           double capacity_per_us) {
  if (cpu == nullptr || !(cpu_share > 0.0) || !(capacity_per_us > 0.0)) {
    throw std::invalid_argument("PerDaemonThrottle: bad domain parameters");
  }
  Domain d;
  d.cpu = cpu;
  d.cpu_share = cpu_share;
  d.capacity_per_us = capacity_per_us;
  domains_.push_back(std::move(d));
  return static_cast<std::int32_t>(domains_.size()) - 1;
}

void PerDaemonThrottle::add_app(std::int32_t domain, const ApplicationProcess* app) {
  domains_.at(static_cast<std::size_t>(domain)).apps.push_back(app);
}

std::vector<double> PerDaemonThrottle::factors() const {
  std::vector<double> out;
  out.reserve(domains_.size());
  for (const Domain& d : domains_) out.push_back(d.factor);
  return out;
}

void PerDaemonThrottle::start() {
  last_adjust_at_ = engine_.now();
  for (Domain& d : domains_) {
    d.last_busy_us = d.cpu->busy_time(ProcessClass::ParadynDaemon) * d.cpu_share;
    d.last_blocked_us = 0.0;
    for (const ApplicationProcess* app : d.apps) {
      d.last_blocked_us += app->pipe_blocked_time_us(engine_.now());
    }
  }
  engine_.schedule_after(kThrottleIntervalUs, [this] { on_adjust(); });
}

void PerDaemonThrottle::on_adjust() {
  const SimTime now = engine_.now();
  const double window = now - last_adjust_at_;
  last_adjust_at_ = now;
  ++ticks_;
  for (Domain& d : domains_) {
    const double busy = d.cpu->busy_time(ProcessClass::ParadynDaemon) * d.cpu_share;
    double blocked = 0.0;
    for (const ApplicationProcess* app : d.apps) blocked += app->pipe_blocked_time_us(now);
    // max(0, ...): a warm-up reset can rewind the busy counters mid-window.
    const double pct =
        (window > 0.0)
            ? std::max(0.0, 100.0 * ((busy - d.last_busy_us) + (blocked - d.last_blocked_us)) /
                                (d.capacity_per_us * window))
            : 0.0;
    d.last_busy_us = busy;
    d.last_blocked_us = blocked;
    // Linear extrapolation one interval ahead: throttle on the *predicted*
    // perturbation, so a rising transient is damped before it crosses the
    // budget rather than after.
    const double predicted = pct + (pct - d.current_pct);
    d.current_pct = pct;
    if (predicted > budget_pct_) {
      const double next = std::min(d.factor * kThrottleGrow, kThrottleMaxSlowdown);
      if (next != d.factor) {
        d.factor = next;
        ++adjustments_;
        max_factor_ = std::max(max_factor_, d.factor);
      }
    } else if (predicted < 0.5 * budget_pct_ && d.factor > 1.0) {
      const double next = std::max(d.factor * kThrottleShrink, 1.0);
      if (next != d.factor) {
        d.factor = next;
        ++adjustments_;
      }
    }
  }
  engine_.schedule_after(kThrottleIntervalUs, [this] { on_adjust(); });
}

}  // namespace paradyn::rocc
