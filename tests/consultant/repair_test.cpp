// Unit tests of the repair policy grammar and matching, plus end-to-end
// detect->repair loops through real simulation runs: a crashed daemon is
// restarted with finite time-to-repair, a forced-failure policy exhausts
// its retries into gave_up, and repair runs are deterministic.
#include "consultant/repair.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "consultant/fault_detector.hpp"
#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::consultant {
namespace {

TEST(RepairSpecParse, FullGrammar) {
  const auto r = RepairPolicy::parse(
      "restart_daemon:timeout=500ms,max_retries=5,backoff=exp:200ms,jitter=0.1,success_p=0.9")
                     .actions.front();
  EXPECT_EQ(r.action, RepairAction::RestartDaemon);
  EXPECT_DOUBLE_EQ(r.timeout_us, 5e5);
  EXPECT_EQ(r.max_retries, 5);
  EXPECT_EQ(r.backoff, BackoffKind::Exponential);
  EXPECT_DOUBLE_EQ(r.backoff_base_us, 2e5);
  EXPECT_DOUBLE_EQ(r.jitter, 0.1);
  EXPECT_DOUBLE_EQ(r.success_p, 0.9);
}

TEST(RepairSpecParse, BareActionUsesDefaults) {
  const auto r = RepairPolicy::parse("reset_pipe").actions.front();
  EXPECT_EQ(r.action, RepairAction::ResetPipe);
  EXPECT_DOUBLE_EQ(r.timeout_us, 5e5);
  EXPECT_EQ(r.max_retries, 3);
  EXPECT_DOUBLE_EQ(r.success_p, 1.0);
}

TEST(RepairSpecParse, FixedBackoffAndRerouteKeys) {
  const auto r = RepairPolicy::parse(
      "reroute_link:backoff=fixed:50ms,penalty=2.5,threshold=4")
                     .actions.front();
  EXPECT_EQ(r.action, RepairAction::RerouteLink);
  EXPECT_EQ(r.backoff, BackoffKind::Fixed);
  EXPECT_DOUBLE_EQ(r.backoff_base_us, 5e4);
  EXPECT_DOUBLE_EQ(r.penalty, 2.5);
  EXPECT_DOUBLE_EQ(r.threshold, 4.0);
}

TEST(RepairSpecParse, ErrorsNameClauseAndPosition) {
  // Misspelled action: did-you-mean plus clause/char coordinates.
  try {
    (void)RepairPolicy::parse("restart_deamon:timeout=1s");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("restart_daemon"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
    EXPECT_NE(msg.find("clause 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("char"), std::string::npos) << msg;
  }
  // Misspelled key in the second clause: the position is global.
  try {
    (void)RepairPolicy::parse("reset_pipe;restart_daemon:timout=1s");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("timeout"), std::string::npos) << msg;
    EXPECT_NE(msg.find("clause 2"), std::string::npos) << msg;
  }
}

TEST(RepairSpecParse, RangeAndShapeErrors) {
  EXPECT_THROW((void)RepairPolicy::parse("restart_daemon:timeout=0"),
               std::invalid_argument);
  EXPECT_THROW((void)RepairPolicy::parse("restart_daemon:max_retries=0"),
               std::invalid_argument);
  EXPECT_THROW((void)RepairPolicy::parse("restart_daemon:success_p=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)RepairPolicy::parse("restart_daemon:jitter=2"),
               std::invalid_argument);
  EXPECT_THROW((void)RepairPolicy::parse("restart_daemon:backoff=200ms"),
               std::invalid_argument);  // missing kind
  EXPECT_THROW((void)RepairPolicy::parse("restart_daemon:backoff=cubic:1ms"),
               std::invalid_argument);
  // penalty / threshold are reroute-only.
  EXPECT_THROW((void)RepairPolicy::parse("restart_daemon:penalty=2"),
               std::invalid_argument);
  EXPECT_THROW((void)RepairPolicy::parse("reset_pipe:threshold=1"),
               std::invalid_argument);
  EXPECT_THROW((void)RepairPolicy::parse(""), std::invalid_argument);
  EXPECT_THROW((void)RepairPolicy::parse(";;"), std::invalid_argument);
}

TEST(RepairSpecParse, NumbersMustBeFinite) {
  for (const char* spec : {"restart_daemon:backoff=exp:nan", "restart_daemon:jitter=nan",
                           "restart_daemon:timeout=inf", "reroute_link:penalty=inf",
                           "reroute_link:threshold=nan", "restart_daemon:success_p=nan"}) {
    try {
      (void)RepairPolicy::parse(spec);
      ADD_FAILURE() << spec << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("RepairPolicy: bad spec", 0), 0u) << what;
      EXPECT_NE(what.find("not a finite number"), std::string::npos) << what;
    }
  }
}

TEST(RepairPolicyValidate, NaNFieldsFail) {
  // A policy built in code skips the parser; every bound still rejects NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [](const RepairSpec& r) {
    RepairPolicy policy;
    policy.actions = {r};
    try {
      policy.validate();
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  EXPECT_FALSE(rejects(RepairSpec{}));
  for (double RepairSpec::*field : {&RepairSpec::timeout_us, &RepairSpec::backoff_base_us,
                                    &RepairSpec::jitter, &RepairSpec::success_p,
                                    &RepairSpec::penalty, &RepairSpec::threshold}) {
    RepairSpec r;
    r.*field = nan;
    EXPECT_TRUE(rejects(r));
  }
}

rocc::FaultSpec fault_of(rocc::FaultType t, double magnitude = 0.0) {
  rocc::FaultSpec f;
  f.type = t;
  f.target = 0;
  f.magnitude = magnitude;
  return f;
}

TEST(RepairPolicyMatch, FirstDeclaredMatchingActionWins) {
  const auto policy = RepairPolicy::parse(
      "reroute_link:threshold=8;restart_daemon:max_retries=1;restart_daemon:max_retries=9");
  const auto* stall = policy.match(fault_of(rocc::FaultType::DaemonStall));
  ASSERT_NE(stall, nullptr);
  EXPECT_EQ(stall->max_retries, 1);  // first restart_daemon, not the second
  EXPECT_EQ(policy.match(fault_of(rocc::FaultType::DaemonCrash)), stall);

  // Threshold gates reroute: an x4 slowdown is below the x8 floor.
  EXPECT_EQ(policy.match(fault_of(rocc::FaultType::LinkSlowdown, 4.0)), nullptr);
  ASSERT_NE(policy.match(fault_of(rocc::FaultType::LinkSlowdown, 8.0)), nullptr);

  // No reset_pipe declared, sample_drop is unrepairable.
  EXPECT_EQ(policy.match(fault_of(rocc::FaultType::PipeBackpressure, 2.0)), nullptr);
  EXPECT_EQ(policy.match(fault_of(rocc::FaultType::SampleDrop, 0.5)), nullptr);
}

// ---- End-to-end: the detect->repair loop through a real run. ----

rocc::SystemConfig crash_config() {
  auto c = rocc::SystemConfig::now(2);
  c.duration_us = 3e6;
  c.sampling_period_us = 10'000.0;
  c.faults = rocc::FaultPlan::parse("daemon_crash:daemon=0,start=500ms,dur=2s");
  return c;
}

TEST(RepairLoop, CrashRepairedWithFiniteTimeToRepair) {
  const auto r = run_with_detection(crash_config(),
                                    RepairPolicy::parse("restart_daemon:timeout=50ms,"
                                                        "max_retries=3,backoff=exp:20ms"));
  ASSERT_EQ(r.fault_outcomes.size(), 1u);
  const auto& o = r.fault_outcomes[0];
  EXPECT_TRUE(o.injected);
  EXPECT_TRUE(o.detected);
  EXPECT_TRUE(o.repair_attempted);
  EXPECT_TRUE(o.repaired);
  EXPECT_FALSE(o.gave_up);
  EXPECT_GE(o.repair_attempts, 1u);
  // TTR is finite and causal: at least detection latency + one timeout,
  // and inside the fault window (the repair preempted the natural lift).
  EXPECT_GE(o.time_to_repair_us, o.detection_latency_us + 50'000.0);
  EXPECT_LT(o.time_to_repair_us, 2e6);
  // The restarted daemon resumes delivery well before the window's natural
  // end, so strictly more samples arrive than in the unrepaired run.
  const auto unrepaired = run_with_detection(crash_config());
  EXPECT_GT(r.samples_delivered, unrepaired.samples_delivered);
}

TEST(RepairLoop, ForcedFailureGivesUpAfterRetryBudget) {
  const auto r = run_with_detection(crash_config(),
                                    RepairPolicy::parse("restart_daemon:timeout=50ms,"
                                                        "max_retries=2,backoff=fixed:30ms,"
                                                        "success_p=0"));
  ASSERT_EQ(r.fault_outcomes.size(), 1u);
  const auto& o = r.fault_outcomes[0];
  EXPECT_TRUE(o.repair_attempted);
  EXPECT_FALSE(o.repaired);
  EXPECT_TRUE(o.gave_up);
  EXPECT_EQ(o.repair_attempts, 2u);
  // One failed attempt -> one fixed backoff period on the books.
  EXPECT_DOUBLE_EQ(o.repair_backoff_us, 30'000.0);
  EXPECT_DOUBLE_EQ(o.time_to_repair_us, -1.0);
}

TEST(RepairLoop, JitterStretchesBackoff) {
  const auto r = run_with_detection(crash_config(),
                                    RepairPolicy::parse("restart_daemon:timeout=50ms,"
                                                        "max_retries=2,backoff=fixed:30ms,"
                                                        "jitter=0.5,success_p=0"));
  ASSERT_EQ(r.fault_outcomes.size(), 1u);
  const auto& o = r.fault_outcomes[0];
  ASSERT_TRUE(o.gave_up);
  // backoff = 30ms * (1 + 0.5 * U[0,1)) in [30ms, 45ms).
  EXPECT_GE(o.repair_backoff_us, 30'000.0);
  EXPECT_LT(o.repair_backoff_us, 45'000.0);
}

TEST(RepairLoop, UnmatchedPolicyLeavesRunBitIdentical) {
  // A policy that matches nothing in the plan must not move any stream or
  // schedule any event: the run reproduces the no-policy run exactly.
  const auto with_policy = run_with_detection(
      crash_config(), RepairPolicy::parse("reset_pipe;reroute_link:threshold=64"));
  const auto without = run_with_detection(crash_config());
  EXPECT_EQ(with_policy.samples_generated, without.samples_generated);
  EXPECT_EQ(with_policy.samples_delivered, without.samples_delivered);
  EXPECT_EQ(with_policy.samples_dropped, without.samples_dropped);
  EXPECT_EQ(with_policy.events_processed, without.events_processed);
  EXPECT_DOUBLE_EQ(with_policy.latency_us.mean(), without.latency_us.mean());
  ASSERT_EQ(with_policy.fault_outcomes.size(), 1u);
  EXPECT_FALSE(with_policy.fault_outcomes[0].repair_attempted);
}

TEST(RepairLoop, RerouteLinkCapsSlowdownPenalty) {
  auto c = rocc::SystemConfig::now(2);
  c.duration_us = 3e6;
  c.sampling_period_us = 10'000.0;
  c.faults = rocc::FaultPlan::parse("link_slow:start=500ms,dur=2s,factor=32");
  const auto repaired = run_with_detection(
      c, RepairPolicy::parse("reroute_link:timeout=50ms,penalty=1.5"));
  const auto unrepaired = run_with_detection(c);
  ASSERT_EQ(repaired.fault_outcomes.size(), 1u);
  if (repaired.fault_outcomes[0].repaired) {
    // The fallback path (x1.5) replaces the x32 slowdown, so the mean
    // latency over the run strictly improves.
    EXPECT_LT(repaired.latency_us.mean(), unrepaired.latency_us.mean());
    EXPECT_GT(repaired.fault_outcomes[0].time_to_repair_us, 0.0);
  } else {
    // A slowdown alone may evade the signature detector in some configs;
    // then nothing may change.
    EXPECT_FALSE(repaired.fault_outcomes[0].repair_attempted);
  }
}

TEST(RepairLoop, ResetPipeDrainsAndUnclamps) {
  auto c = rocc::SystemConfig::now(1);
  c.duration_us = 3e6;
  c.sampling_period_us = 10'000.0;
  c.pipe_capacity = 8;
  // The stall makes the clamped pipe observable (producer blocks sooner).
  c.faults = rocc::FaultPlan::parse(
      "daemon_stall:daemon=0,start=500ms,dur=1s;"
      "pipe_backpressure:daemon=0,start=500ms,dur=2s,capacity=1");
  const auto r = run_with_detection(
      c, RepairPolicy::parse("reset_pipe:timeout=50ms"));
  ASSERT_EQ(r.fault_outcomes.size(), 2u);
  // Whichever fault the detector flags first, only the backpressure row
  // can carry a reset_pipe repair.
  EXPECT_FALSE(r.fault_outcomes[0].repair_attempted);
  if (r.fault_outcomes[1].repaired) {
    EXPECT_GT(r.fault_outcomes[1].time_to_repair_us, 0.0);
  }
}

TEST(RepairLoop, RepairRunsAreDeterministic) {
  const RepairPolicy policy = RepairPolicy::parse(
      "restart_daemon:timeout=50ms,max_retries=3,backoff=exp:20ms,jitter=0.3,success_p=0.5");
  const auto a = run_with_detection(crash_config(), policy);
  const auto b = run_with_detection(crash_config(), policy);
  ASSERT_EQ(a.fault_outcomes.size(), 1u);
  ASSERT_EQ(b.fault_outcomes.size(), 1u);
  EXPECT_EQ(a.fault_outcomes[0].repair_attempts, b.fault_outcomes[0].repair_attempts);
  EXPECT_EQ(a.fault_outcomes[0].repaired, b.fault_outcomes[0].repaired);
  EXPECT_DOUBLE_EQ(a.fault_outcomes[0].time_to_repair_us,
                   b.fault_outcomes[0].time_to_repair_us);
  EXPECT_DOUBLE_EQ(a.fault_outcomes[0].repair_backoff_us,
                   b.fault_outcomes[0].repair_backoff_us);
  EXPECT_EQ(a.samples_delivered, b.samples_delivered);
  EXPECT_DOUBLE_EQ(a.latency_us.mean(), b.latency_us.mean());
}

}  // namespace
}  // namespace paradyn::consultant
