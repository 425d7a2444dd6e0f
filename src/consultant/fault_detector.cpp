#include "consultant/fault_detector.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace paradyn::consultant {

FaultDetector::FaultDetector(rocc::FaultPlan plan, rocc::SimTime sampling_period_us)
    : horizon_us_(kStarvationFactor * sampling_period_us) {
  tracked_.reserve(plan.faults.size());
  for (const rocc::FaultSpec& f : plan.faults) {
    Tracked t;
    t.spec = f;
    tracked_.push_back(std::move(t));
  }
}

std::string FaultDetector::signature(rocc::SimTime now) const {
  // Sort the finding labels so the fingerprint is insensitive to the
  // severity ordering of search() — a rank swap between two persistent
  // findings is not a behavioral change.
  std::vector<std::string> parts;
  for (const Finding& f : consultant_.search()) {
    parts.push_back(std::string(to_string(f.hypothesis)) + "@" + f.focus.describe());
  }
  for (const auto& [node, seen] : last_seen_) {
    if (now - seen > horizon_us_) parts.push_back("starved@node " + std::to_string(node));
  }
  std::sort(parts.begin(), parts.end());
  std::string sig;
  for (const std::string& p : parts) {
    sig += p;
    sig += ';';
  }
  return sig;
}

void FaultDetector::evaluate(rocc::SimTime now) {
  const std::string sig = signature(now);
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    Tracked& t = tracked_[i];
    if (now < t.spec.start_us) {
      t.baseline = sig;
    } else if (!t.detected) {
      if (sig != t.baseline) {
        t.detected = true;
        t.detected_at = now;
        if (on_detect_) on_detect_(i, now);
      }
    } else if (!t.recovered && now >= t.spec.end_us() && sig == t.baseline) {
      t.recovered = true;
      t.recovered_at = now;
    }
  }
}

void FaultDetector::observe(const rocc::Sample& sample, rocc::SimTime delivered_at) {
  last_seen_[sample.node] = delivered_at;
  consultant_.observe(sample);
  evaluate(delivered_at);
}

void FaultDetector::finalize(std::vector<rocc::FaultOutcome>& outcomes) const {
  const std::size_t n = std::min(outcomes.size(), tracked_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Tracked& t = tracked_[i];
    outcomes[i].detected = t.detected;
    outcomes[i].detection_latency_us = t.detected ? t.detected_at - t.spec.start_us : -1.0;
    outcomes[i].recovered = t.recovered;
    outcomes[i].recovery_latency_us = t.recovered ? t.recovered_at - t.spec.end_us() : -1.0;
  }
}

DetectionHarness::DetectionHarness(rocc::Simulation& sim, RepairPolicy policy) {
  const rocc::FaultPlan& plan = sim.effective_fault_plan();
  if (plan.empty() || sim.main_process() == nullptr) return;
  detector_ = std::make_unique<FaultDetector>(plan, sim.config().sampling_period_us);
  FaultDetector* detector = detector_.get();
  des::Engine* engine = &sim.engine();
  // Replaces any previously attached sample sink.
  sim.main_process()->set_sample_sink(
      [detector, engine](const rocc::Sample& s) { detector->observe(s, engine->now()); });
  if (!policy.empty()) {
    policy.validate();
    repair_ = std::make_unique<RepairEngine>(sim, std::move(policy));
    detector_->set_detection_callback(
        [repair = repair_.get()](std::size_t fault_index, rocc::SimTime now) {
          repair->on_detected(fault_index, now);
        });
  }
}

void DetectionHarness::finalize(rocc::SimulationResult& result) const {
  if (detector_) detector_->finalize(result.fault_outcomes);
  if (repair_) repair_->finalize(result.fault_outcomes);
}

rocc::SimulationResult run_with_detection(const rocc::SystemConfig& config,
                                          RepairPolicy repair_policy) {
  rocc::Simulation sim(config);
  const DetectionHarness harness(sim, std::move(repair_policy));
  rocc::SimulationResult result = sim.run();
  harness.finalize(result);
  return result;
}

}  // namespace paradyn::consultant
