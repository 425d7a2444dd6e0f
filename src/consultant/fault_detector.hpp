// Fault detection on top of the Performance Consultant.
//
// The fault subsystem (rocc/faults.hpp) perturbs the modeled system; this
// module measures how long the *analysis side* of the IS takes to notice.
// The detector maintains a behavioral signature of the consultant's state —
// the set of confirmed (hypothesis, focus) findings plus the set of
// sample-starved nodes — and compares it against the signature last seen
// before each fault's injection time:
//
//   detection latency = injection time -> first signature change, and
//   recovery latency  = window end     -> first return to the baseline,
//
// both measured in *delivery* time: the detector only sees samples that
// have paid the full collection/forwarding path, so monitoring latency is
// part of detection latency by construction (the paper's motivation for
// treating latency as a first-class IS metric).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "consultant/consultant.hpp"
#include "consultant/repair.hpp"
#include "rocc/faults.hpp"
#include "rocc/metrics.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::consultant {

/// Streaming detector: feed every delivered sample, read per-fault
/// detection/recovery latencies at the end of the run.
class FaultDetector {
 public:
  /// A node counts as sample-starved when nothing arrived from it for this
  /// many sampling periods (stalls and crashes starve their whole domain).
  static constexpr double kStarvationFactor = 4.0;

  /// `sampling_period_us` is the run's nominal sampling period, which sets
  /// the starvation horizon.  The consultant runs with its default
  /// thresholds (ConsultantConfig{}).
  FaultDetector(rocc::FaultPlan plan, rocc::SimTime sampling_period_us);

  /// Feed one delivered sample; `delivered_at` is the simulated delivery
  /// time (wire to MainParadyn's sink with the engine clock).
  void observe(const rocc::Sample& sample, rocc::SimTime delivered_at);

  /// Copy detection/recovery results into `outcomes` (which must be the
  /// simulation's fault_outcomes, in plan order).
  void finalize(std::vector<rocc::FaultOutcome>& outcomes) const;

  /// Invoked once per tracked fault at its first signature divergence —
  /// the hook the RepairEngine hangs its first attempt on.  Runs inside
  /// observe(), so it may schedule engine events.
  using DetectionCallback = std::function<void(std::size_t fault_index, rocc::SimTime now)>;
  void set_detection_callback(DetectionCallback cb) { on_detect_ = std::move(cb); }

  [[nodiscard]] const PerformanceConsultant& consultant() const noexcept {
    return consultant_;
  }

 private:
  struct Tracked {
    rocc::FaultSpec spec;
    std::string baseline;  ///< Signature last seen before spec.start_us.
    bool detected = false;
    rocc::SimTime detected_at = 0.0;
    bool recovered = false;
    rocc::SimTime recovered_at = 0.0;
  };

  /// Findings fingerprint + starved-node set at `now`.
  [[nodiscard]] std::string signature(rocc::SimTime now) const;
  void evaluate(rocc::SimTime now);

  /// Starvation horizon: kStarvationFactor sampling periods.
  rocc::SimTime horizon_us_;
  PerformanceConsultant consultant_;
  std::vector<Tracked> tracked_;
  DetectionCallback on_detect_;
  /// Last delivery time per node (starvation bookkeeping).
  std::map<std::int32_t, rocc::SimTime> last_seen_;
};

/// Ties a FaultDetector to a Simulation for one run: attaches the main
/// process's sample sink before run(), arms the repair engine when a
/// policy is given, and copies the measured latencies (and repair records)
/// into the result afterwards.  Keep the harness alive across run().
class DetectionHarness {
 public:
  /// No-op when instrumentation is disabled or the fault plan is empty.
  /// The detector runs at the run's sampling period.  A non-empty `policy`
  /// closes the loop: detections trigger repair attempts through the
  /// simulation's repair API.
  explicit DetectionHarness(rocc::Simulation& sim, RepairPolicy policy = {});

  /// Fill result.fault_outcomes with detection/recovery latencies plus the
  /// per-fault repair block when a policy was armed.
  void finalize(rocc::SimulationResult& result) const;

  [[nodiscard]] const FaultDetector* detector() const noexcept { return detector_.get(); }
  [[nodiscard]] const RepairEngine* repair_engine() const noexcept { return repair_.get(); }

 private:
  std::unique_ptr<FaultDetector> detector_;
  std::unique_ptr<RepairEngine> repair_;
};

/// Convenience: run one simulation with fault detection (and optionally
/// the repair loop) attached.
[[nodiscard]] rocc::SimulationResult run_with_detection(const rocc::SystemConfig& config,
                                                        RepairPolicy repair_policy = {});

}  // namespace paradyn::consultant
