// Unit tests of the fault detector on synthetic sample traces, plus
// end-to-end detection latency through a real simulation run.
#include "consultant/fault_detector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::consultant {
namespace {

rocc::Sample make_sample(std::int32_t node, double cpu = 0.3, double comm = 0.05) {
  rocc::Sample s;
  s.node = node;
  s.cpu_fraction = cpu;
  s.comm_fraction = comm;
  return s;
}

rocc::FaultPlan stall_plan(rocc::SimTime start, rocc::SimTime dur) {
  rocc::FaultPlan plan;
  rocc::FaultSpec f;
  f.type = rocc::FaultType::DaemonStall;
  f.target = 0;
  f.start_us = start;
  f.duration_us = dur;
  plan.faults = {f};
  return plan;
}

std::vector<rocc::FaultOutcome> outcomes_for(const rocc::FaultPlan& plan) {
  std::vector<rocc::FaultOutcome> out;
  for (const auto& f : plan.faults) {
    rocc::FaultOutcome o;
    o.spec = f;
    out.push_back(o);
  }
  return out;
}

/// Sampling period of the synthetic traces: starved after 4 x 10 ms = 40 ms
/// of silence.
constexpr rocc::SimTime kSamplingPeriodUs = 10'000.0;

TEST(FaultDetector, StarvationDetectionAndRecovery) {
  // Nodes 0 and 1 deliver every 10 ms; node 0 goes silent during the fault
  // window [1.0 s, 1.5 s) and resumes afterwards.
  const auto plan = stall_plan(1e6, 5e5);
  FaultDetector det(plan, kSamplingPeriodUs);
  for (double t = 0.0; t < 2e6; t += 10'000.0) {
    const bool stalled = t >= 1e6 && t < 1.5e6;
    if (!stalled) det.observe(make_sample(0), t);
    det.observe(make_sample(1), t);
  }
  auto outcomes = outcomes_for(plan);
  det.finalize(outcomes);

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].detected);
  // Silence becomes visible once it exceeds the 40 ms starvation horizon.
  EXPECT_GE(outcomes[0].detection_latency_us, 40'000.0);
  EXPECT_LE(outcomes[0].detection_latency_us, 100'000.0);
  // Node 0 resumed after the window, so the signature returned to baseline.
  EXPECT_TRUE(outcomes[0].recovered);
  EXPECT_GE(outcomes[0].recovery_latency_us, 0.0);
  EXPECT_LE(outcomes[0].recovery_latency_us, 100'000.0);
}

TEST(FaultDetector, NoBehavioralChangeMeansNoDetection) {
  // The fault window passes but every node keeps delivering normally:
  // nothing to detect, latencies stay at the "not observed" sentinel.
  const auto plan = stall_plan(1e6, 2e5);
  FaultDetector det(plan, kSamplingPeriodUs);
  for (double t = 0.0; t < 2e6; t += 10'000.0) {
    det.observe(make_sample(0), t);
    det.observe(make_sample(1), t);
  }
  auto outcomes = outcomes_for(plan);
  det.finalize(outcomes);

  EXPECT_FALSE(outcomes[0].detected);
  EXPECT_DOUBLE_EQ(outcomes[0].detection_latency_us, -1.0);
  EXPECT_FALSE(outcomes[0].recovered);
  EXPECT_DOUBLE_EQ(outcomes[0].recovery_latency_us, -1.0);
}

TEST(FaultDetector, ConsultantFindingChangeTriggersDetection) {
  // No node ever goes silent; instead the workload turns CPU-bound during
  // the window, so detection comes from the consultant's findings
  // fingerprint, not starvation.
  const auto plan = stall_plan(1e6, 1e6);
  FaultDetector det(plan, kSamplingPeriodUs);
  for (double t = 0.0; t < 2e6; t += 10'000.0) {
    const double cpu = t >= 1e6 ? 0.98 : 0.30;
    det.observe(make_sample(0, cpu, 0.01), t);
    det.observe(make_sample(1, cpu, 0.01), t);
  }
  auto outcomes = outcomes_for(plan);
  det.finalize(outcomes);

  EXPECT_TRUE(outcomes[0].detected);
  EXPECT_GE(outcomes[0].detection_latency_us, 0.0);
}

TEST(FaultDetector, DetectionNeverPrecedesInjection) {
  // Signature churn *before* the window refreshes the baseline instead of
  // counting as a detection.
  const auto plan = stall_plan(1.5e6, 2e5);
  FaultDetector det(plan, kSamplingPeriodUs);
  for (double t = 0.0; t < 1.4e6; t += 10'000.0) {
    // Node 1 flaps in and out of starvation pre-fault.
    det.observe(make_sample(0), t);
    if (static_cast<int>(t / 100'000.0) % 2 == 0) det.observe(make_sample(1), t);
  }
  auto outcomes = outcomes_for(plan);
  det.finalize(outcomes);
  EXPECT_FALSE(outcomes[0].detected);
}

TEST(FaultDetector, FaultAtTimeZeroDetectsAgainstEmptyBaseline) {
  // A window opening at t = 0 never sees a pre-fault sample: the baseline
  // stays the empty signature, and the first starved/diverged signature
  // counts as the detection.  Latency must be a sane non-negative value.
  const auto plan = stall_plan(0.0, 5e5);
  FaultDetector det(plan, kSamplingPeriodUs);
  for (double t = 0.0; t < 1e6; t += 10'000.0) {
    const bool stalled = t < 5e5;
    if (!stalled) det.observe(make_sample(0), t);
    det.observe(make_sample(1), t);
  }
  auto outcomes = outcomes_for(plan);
  det.finalize(outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].detected);
  EXPECT_GE(outcomes[0].detection_latency_us, 0.0);
  EXPECT_LE(outcomes[0].detection_latency_us, 100'000.0);
}

TEST(FaultDetector, WindowPastSimEndReportsSentinelRecovery) {
  // The fault outlives the run: no post-window sample can ever arrive, so
  // recovery must stay at the -1 sentinel (not garbage, not "recovered").
  const auto plan = stall_plan(1.5e6, 1e6);  // ends at 2.5e6, run ends at 2e6
  FaultDetector det(plan, kSamplingPeriodUs);
  for (double t = 0.0; t < 2e6; t += 10'000.0) {
    const bool stalled = t >= 1.5e6;
    if (!stalled) det.observe(make_sample(0), t);
    det.observe(make_sample(1), t);
  }
  auto outcomes = outcomes_for(plan);
  det.finalize(outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].detected);
  EXPECT_FALSE(outcomes[0].recovered);
  EXPECT_DOUBLE_EQ(outcomes[0].recovery_latency_us, -1.0);
}

TEST(FaultDetector, BackToBackFaultsKeepSentinelsSane) {
  // Two seamless windows on the same daemon: the silence never breaks
  // between them, so the second fault's baseline is already the diverged
  // signature and it records no detection of its own — sentinels, not
  // stale or negative latencies.
  rocc::FaultPlan plan = stall_plan(1.0e6, 2e5);
  {
    rocc::FaultSpec second = plan.faults[0];
    second.start_us = 1.2e6;
    plan.faults.push_back(second);
  }
  FaultDetector det(plan, kSamplingPeriodUs);
  // The run ends while the second window is still silent, so neither a
  // fresh divergence (fault 2) nor a return to baseline (fault 1) is ever
  // observable.
  for (double t = 0.0; t < 1.4e6; t += 10'000.0) {
    const bool stalled = t >= 1.0e6;
    if (!stalled) det.observe(make_sample(0), t);
    det.observe(make_sample(1), t);
  }
  auto outcomes = outcomes_for(plan);
  det.finalize(outcomes);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].detected);
  EXPECT_GE(outcomes[0].detection_latency_us, 40'000.0);
  EXPECT_LE(outcomes[0].detection_latency_us, 100'000.0);
  EXPECT_FALSE(outcomes[0].recovered);
  EXPECT_DOUBLE_EQ(outcomes[0].recovery_latency_us, -1.0);
  // The second fault saw no fresh divergence: absent, not garbage.
  EXPECT_FALSE(outcomes[1].detected);
  EXPECT_DOUBLE_EQ(outcomes[1].detection_latency_us, -1.0);
  EXPECT_DOUBLE_EQ(outcomes[1].recovery_latency_us, -1.0);
}

TEST(DetectionHarness, NoOpWithoutFaultPlan) {
  auto c = rocc::SystemConfig::now(2);
  c.duration_us = 1e6;
  rocc::Simulation sim(c);
  const DetectionHarness harness(sim);
  EXPECT_EQ(harness.detector(), nullptr);
  auto result = sim.run();
  harness.finalize(result);
  EXPECT_TRUE(result.fault_outcomes.empty());
}

TEST(RunWithDetection, StallDetectionEndToEnd) {
  auto c = rocc::SystemConfig::now(2);
  c.duration_us = 2e6;
  c.sampling_period_us = 10'000.0;
  c.faults = rocc::FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=500ms");

  const auto r = run_with_detection(c);

  ASSERT_EQ(r.fault_outcomes.size(), 1u);
  EXPECT_TRUE(r.fault_outcomes[0].injected);
  // The stalled daemon starves node 0: detection inside the window, well
  // past the starvation horizon but well before the stall ends.
  EXPECT_TRUE(r.fault_outcomes[0].detected);
  EXPECT_GT(r.fault_outcomes[0].detection_latency_us, 0.0);
  EXPECT_LT(r.fault_outcomes[0].detection_latency_us, 5e5);
  // Delivery resumes after the stall, so the detector sees recovery.
  EXPECT_TRUE(r.fault_outcomes[0].recovered);
  EXPECT_GE(r.fault_outcomes[0].recovery_latency_us, 0.0);
}

TEST(RunWithDetection, DeterministicLatencies) {
  auto c = rocc::SystemConfig::now(2);
  c.duration_us = 2e6;
  c.sampling_period_us = 10'000.0;
  c.faults = rocc::FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=500ms");
  const auto a = run_with_detection(c);
  const auto b = run_with_detection(c);
  ASSERT_EQ(a.fault_outcomes.size(), 1u);
  ASSERT_EQ(b.fault_outcomes.size(), 1u);
  EXPECT_DOUBLE_EQ(a.fault_outcomes[0].detection_latency_us,
                   b.fault_outcomes[0].detection_latency_us);
  EXPECT_DOUBLE_EQ(a.fault_outcomes[0].recovery_latency_us,
                   b.fault_outcomes[0].recovery_latency_us);
}

}  // namespace
}  // namespace paradyn::consultant
