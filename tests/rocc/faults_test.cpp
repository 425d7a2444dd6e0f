// Unit and integration tests of the fault/perturbation injection
// subsystem: spec parsing, plan validation, the sample-drop gate, and the
// observable effect of each fault type on an assembled simulation.
#include "rocc/faults.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "rocc/simulation.hpp"
#include "support/fault_points.hpp"

namespace paradyn::rocc {
namespace {

SystemConfig quick_now(std::int32_t nodes, std::int32_t batch) {
  auto c = SystemConfig::now(nodes);
  c.batch_size = batch;
  c.duration_us = 2e6;
  c.sampling_period_us = 10'000.0;
  return c;
}

TEST(FaultSpecParse, DaemonStallWithUnits) {
  const auto f = FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=500ms").faults.front();
  EXPECT_EQ(f.type, FaultType::DaemonStall);
  EXPECT_EQ(f.target, 0);
  EXPECT_DOUBLE_EQ(f.start_us, 1e6);
  EXPECT_DOUBLE_EQ(f.duration_us, 5e5);
  EXPECT_DOUBLE_EQ(f.end_us(), 1.5e6);
}

TEST(FaultSpecParse, BareNumbersAreMicroseconds) {
  const auto f = FaultPlan::parse("daemon_crash:daemon=1,start=250000,dur=125us").faults.front();
  EXPECT_EQ(f.type, FaultType::DaemonCrash);
  EXPECT_DOUBLE_EQ(f.start_us, 250'000.0);
  EXPECT_DOUBLE_EQ(f.duration_us, 125.0);
}

TEST(FaultSpecParse, LinkSlowFactorAndAllTargets) {
  const auto f = FaultPlan::parse("link_slow:start=2s,dur=1s,factor=8").faults.front();
  EXPECT_EQ(f.type, FaultType::LinkSlowdown);
  EXPECT_DOUBLE_EQ(f.magnitude, 8.0);

  const auto d = FaultPlan::parse("sample_drop:node=all,start=1s,dur=2s,p=0.25").faults.front();
  EXPECT_EQ(d.type, FaultType::SampleDrop);
  EXPECT_EQ(d.target, -1);
  EXPECT_DOUBLE_EQ(d.magnitude, 0.25);

  const auto b =
      FaultPlan::parse("pipe_backpressure:daemon=0,start=1s,dur=1s,capacity=2").faults.front();
  EXPECT_EQ(b.type, FaultType::PipeBackpressure);
  EXPECT_DOUBLE_EQ(b.magnitude, 2.0);
}

TEST(FaultSpecParse, SemicolonJoinsSpecs) {
  const auto plan =
      FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=100ms;link_slow:start=0,dur=1s,factor=2");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].type, FaultType::DaemonStall);
  EXPECT_EQ(plan.faults[1].type, FaultType::LinkSlowdown);
}

TEST(FaultSpecParse, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultPlan::parse(""), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("bogus_type:start=0,dur=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("daemon_stall"), std::invalid_argument);
  // Missing required start/dur.
  EXPECT_THROW((void)FaultPlan::parse("daemon_stall:daemon=0"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("daemon_stall:daemon=0,start=1s"),
               std::invalid_argument);
  // Unknown key and unparsable value.
  EXPECT_THROW((void)FaultPlan::parse("daemon_stall:start=1s,dur=1s,frobnicate=3"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("daemon_stall:daemon=x,start=1s,dur=1s"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse(""), std::invalid_argument);
}

/// The message `parse` throws for `spec`, or "" when it parses.
std::string parse_error(const std::string& spec) {
  try {
    (void)FaultPlan::parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FaultSpecParse, NumbersMustBeFinite) {
  // start=nan slipped past validate and into the calendar queue (SIGSEGV);
  // factor=inf stopped all network traffic; the others were accepted.
  for (const char* spec : {
           "daemon_stall:daemon=0,start=nan,dur=500ms",
           "link_slow:start=1s,dur=500ms,factor=inf",
           "daemon_stall:daemon=0,start=1s,dur=inf",
           "daemon_stall:daemon=0,start=1s,dur=500ms,cascade=0.5,cascade_delay=inf",
           "daemon_stall:daemon=0,start=uniform:0:inf,dur=500ms",
           "sample_drop:node=all,start=1s,dur=1s,p=nan",
           "daemon_stall:daemon=0,start=1e306s,dur=500ms",  // finite, but not in us
       }) {
    const std::string what = parse_error(spec);
    EXPECT_NE(what.find("not a finite number"), std::string::npos) << spec << " -> " << what;
    EXPECT_EQ(what.rfind("FaultPlan: bad spec", 0), 0u) << what;
  }
  EXPECT_NE(parse_error("daemon_stall:daemon=0,start=nan,dur=500ms").find("(clause 1, char 28)"),
            std::string::npos);
}

TEST(FaultSpecParse, CapacityAndCountsAreIntegers) {
  // capacity=1.5 used to be cut to a clamp of 1 without a word.
  EXPECT_NE(parse_error("pipe_backpressure:daemon=0,start=1s,dur=1s,capacity=1.5")
                .find("expected an integer: 1.5"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(FaultPlan::parse("pipe_backpressure:daemon=0,start=1s,dur=1s,capacity=2")
                       .faults.front()
                       .magnitude,
                   2.0);
  // Out-of-range integers fail by message instead of an undefined cast.
  EXPECT_NE(parse_error("daemon_stall:daemon=0,start=1s,dur=1s,cascade=0.5,cascade_hops=1e300")
                .find("expected an integer >= 1"),
            std::string::npos);
  EXPECT_NE(parse_error("daemon_stall:daemon=3e9,start=1s,dur=1s").find("target must be"),
            std::string::npos);
}

TEST(FaultPlanValidate, WindowAndTargetChecks) {
  FaultPlan plan;
  FaultSpec f;
  f.type = FaultType::DaemonStall;
  f.target = 0;
  f.start_us = 1e6;
  f.duration_us = 1e5;
  plan.faults = {f};
  EXPECT_NO_THROW(plan.validate(2, 2, 2e6, 16));

  // Start at/after sim end can never fire; a negative start is malformed.
  // A plan built in code skips the parser, so NaN must fail every bound.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  plan.faults[0].start_us = 2e6;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].start_us = -1.0;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].start_us = nan;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  // Degenerate or negative window.
  plan.faults[0].start_us = 0.0;
  plan.faults[0].duration_us = 0.0;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].duration_us = -1.0;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].duration_us = nan;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  // Daemon target out of range; and no daemons at all when
  // instrumentation is disabled.
  plan.faults[0].duration_us = 1e5;
  plan.faults[0].target = 2;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].target = 0;
  EXPECT_THROW(plan.validate(0, 2, 2e6, 16), std::invalid_argument);

  // sample_drop: p must be in (0, 1], node must exist.
  plan.faults[0].type = FaultType::SampleDrop;
  plan.faults[0].magnitude = 0.5;
  EXPECT_NO_THROW(plan.validate(2, 2, 2e6, 16));
  plan.faults[0].magnitude = 0.0;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].magnitude = 1.5;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].magnitude = nan;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].magnitude = 0.5;
  plan.faults[0].target = 7;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);

  // link_slow: factor >= 1.
  plan.faults[0] = f;
  plan.faults[0].type = FaultType::LinkSlowdown;
  plan.faults[0].magnitude = 0.5;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].magnitude = nan;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);

  // pipe_backpressure: an integer clamped capacity in [1, pipe_capacity).
  plan.faults[0].type = FaultType::PipeBackpressure;
  plan.faults[0].magnitude = 16.0;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].magnitude = 0.0;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].magnitude = 1.5;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].magnitude = nan;
  EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument);
  plan.faults[0].magnitude = 2.0;
  EXPECT_NO_THROW(plan.validate(2, 2, 2e6, 16));
}

TEST(FaultSpecParse, StochasticWindows) {
  const auto f =
      FaultPlan::parse("daemon_stall:daemon=0,start=exp:1s,dur=uniform:200ms:800ms").faults.front();
  EXPECT_TRUE(f.stochastic());
  ASSERT_NE(f.start_dist, nullptr);
  ASSERT_NE(f.duration_dist, nullptr);

  const auto g =
      FaultPlan::parse("link_slow:start=1s,dur=lognormal:500ms:100ms,factor=4").faults.front();
  EXPECT_TRUE(g.stochastic());
  EXPECT_EQ(g.start_dist, nullptr);
  EXPECT_DOUBLE_EQ(g.start_us, 1e6);

  EXPECT_THROW((void)FaultPlan::parse("daemon_stall:daemon=0,start=exp:,dur=1s"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("daemon_stall:daemon=0,start=zipf:2,dur=1s"),
               std::invalid_argument);
}

TEST(FaultPlan, ResolveDrawsAndClampsStochasticWindows) {
  auto plan = FaultPlan::parse(
      "daemon_stall:daemon=0,start=exp:100ms,dur=exp:50ms;"
      "daemon_crash:daemon=0,start=1s,dur=200ms");
  EXPECT_TRUE(plan.any_stochastic());
  // Stochastic windows skip the static timing checks at validate time.
  EXPECT_NO_THROW(plan.validate(1, 1, 2e6, 16));

  des::Pcg32 rng = des::RngStream(7, 0, kFaultWindowRngTag);
  plan.resolve(rng);
  EXPECT_FALSE(plan.any_stochastic());
  EXPECT_GE(plan.faults[0].start_us, 0.0);
  EXPECT_GE(plan.faults[0].duration_us, 1.0);  // clamped to a non-degenerate window
  // Fixed windows pass through untouched.
  EXPECT_DOUBLE_EQ(plan.faults[1].start_us, 1e6);
  EXPECT_DOUBLE_EQ(plan.faults[1].duration_us, 2e5);

  // Same seed, same draw: the resolved plan is deterministic.
  auto again = FaultPlan::parse(
      "daemon_stall:daemon=0,start=exp:100ms,dur=exp:50ms;"
      "daemon_crash:daemon=0,start=1s,dur=200ms");
  des::Pcg32 rng2 = des::RngStream(7, 0, kFaultWindowRngTag);
  again.resolve(rng2);
  EXPECT_DOUBLE_EQ(again.faults[0].start_us, plan.faults[0].start_us);
  EXPECT_DOUBLE_EQ(again.faults[0].duration_us, plan.faults[0].duration_us);
}

TEST(FaultSpecParse, CascadeClause) {
  const auto f = FaultPlan::parse(
      "daemon_stall:daemon=0,start=1s,dur=500ms,cascade=0.5,cascade_delay=100ms,"
      "cascade_hops=2,cascade_factor=8")
                    .faults.front();
  EXPECT_DOUBLE_EQ(f.cascade_p, 0.5);
  EXPECT_DOUBLE_EQ(f.cascade_delay_us, 1e5);
  EXPECT_EQ(f.cascade_hops, 2);
  EXPECT_DOUBLE_EQ(f.cascade_factor, 8.0);
}

TEST(FaultPlanValidate, CascadeChecks) {
  // Cascades need a stall/crash with a concrete daemon target and sane
  // parameters.  Only stall and crash take the cascade keys, so parse
  // rejects them on another type; validate() checks the rest, and the type
  // too for a plan built in code.
  EXPECT_THROW((void)FaultPlan::parse("link_slow:start=1s,dur=1s,factor=2,cascade=0.5"),
               std::invalid_argument);
  FaultPlan slow = FaultPlan::parse("link_slow:start=1s,dur=1s,factor=2");
  slow.faults[0].cascade_p = 0.5;
  EXPECT_THROW(slow.validate(2, 2, 2e6, 16), std::invalid_argument);
  const auto reject = [](const std::string& spec) {
    const auto plan = FaultPlan::parse(spec);
    EXPECT_THROW(plan.validate(2, 2, 2e6, 16), std::invalid_argument) << spec;
  };
  reject("daemon_stall:daemon=all,start=1s,dur=1s,cascade=0.5");
  reject("daemon_stall:daemon=0,start=1s,dur=1s,cascade=1.5");
  reject("daemon_stall:daemon=0,start=1s,dur=1s,cascade=-0.5");
  reject("daemon_stall:daemon=0,start=1s,dur=1s,cascade=0.5,cascade_delay=0");
  reject("daemon_stall:daemon=0,start=1s,dur=1s,cascade=0.5,cascade_factor=0.5");

  const auto ok = FaultPlan::parse(
      "daemon_crash:daemon=1,start=1s,dur=500ms,cascade=1,cascade_hops=2");
  EXPECT_NO_THROW(ok.validate(2, 2, 2e6, 16));

  // Built in code, a NaN cascade parameter fails too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double FaultSpec::*field :
       {&FaultSpec::cascade_p, &FaultSpec::cascade_delay_us, &FaultSpec::cascade_factor}) {
    FaultPlan bad = ok;
    bad.faults[0].*field = nan;
    EXPECT_THROW(bad.validate(2, 2, 2e6, 16), std::invalid_argument);
  }
}

TEST(FaultSpecParse, ErrorsNameClauseAndPositionWithSuggestion) {
  try {
    (void)FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=1s;deamon_crash:start=1s,dur=1s");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("clause 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("char"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
    EXPECT_NE(msg.find("daemon_crash"), std::string::npos) << msg;
  }
  try {
    (void)FaultPlan::parse("daemon_stall:daemon=0,strat=1s,dur=1s");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("did you mean 'start'"), std::string::npos) << msg;
  }
}

TEST(FaultSpecParse, EachTypeTakesOnlyItsOwnKeys) {
  // A key of another type is an error, not a silent alias: factor=, p= and
  // capacity= each belong to one type, the target key is daemon= or node=,
  // and only stall and crash cascade.
  for (const char* spec : {"sample_drop:node=0,start=1s,dur=1s,factor=0.3",
                           "link_slow:start=1s,dur=1s,capacity=3",
                           "daemon_stall:daemon=0,start=1s,dur=1s,p=0.5,capacity=3",
                           "daemon_crash:daemon=0,start=1s,dur=1s,factor=2",
                           "link_slow:daemon=0,start=1s,dur=1s,factor=2",
                           "sample_drop:daemon=0,start=1s,dur=1s,p=0.5",
                           "pipe_backpressure:node=0,start=1s,dur=1s,capacity=2",
                           "pipe_backpressure:daemon=0,start=1s,dur=1s,p=0.5",
                           "sample_drop:node=0,start=1s,dur=1s,p=0.5,cascade=0.5"}) {
    try {
      (void)FaultPlan::parse(spec);
      ADD_FAILURE() << "accepted: " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("(clause 1, char "), std::string::npos) << msg;
      EXPECT_NE(msg.find("unknown key: "), std::string::npos) << msg;
    }
  }
  // The suggestion comes from the type's own keys.
  const auto message = [](const std::string& spec) {
    try {
      (void)FaultPlan::parse(spec);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message("sample_drop:nod=0,start=1s,dur=1s,p=0.5").find("did you mean 'node'"),
            std::string::npos);
  EXPECT_NE(message("link_slow:start=1s,dur=1s,facter=2").find("did you mean 'factor'"),
            std::string::npos);
  EXPECT_EQ(message("daemon_stall:node=0,start=1s,dur=1s").find("did you mean"),
            std::string::npos);
  // Each type's own keys still parse.
  const auto magnitude = [](const std::string& spec) {
    return FaultPlan::parse(spec).faults.front().magnitude;
  };
  EXPECT_DOUBLE_EQ(magnitude("sample_drop:node=1,start=1s,dur=1s,p=0.3"), 0.3);
  EXPECT_DOUBLE_EQ(magnitude("link_slow:start=1s,dur=1s,factor=3"), 3.0);
  EXPECT_DOUBLE_EQ(magnitude("pipe_backpressure:daemon=1,start=1s,dur=1s,capacity=3"), 3.0);
  EXPECT_EQ(FaultPlan::parse("daemon_crash:daemon=1,start=1s,dur=1s,cascade=0.5,"
                             "cascade_delay=5ms,cascade_hops=2,cascade_factor=1.5")
                .faults.front()
                .cascade_hops,
            2);
}

TEST(FaultPlan, SchedulePointsInDeclarationOrder) {
  const auto plan = FaultPlan::parse(
      "daemon_stall:daemon=0,start=1s,dur=100ms;link_slow:start=500ms,dur=1s,factor=2");
  const auto pts = schedule_points(plan);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts[0], 1e6);
  EXPECT_DOUBLE_EQ(pts[1], 1.1e6);
  EXPECT_DOUBLE_EQ(pts[2], 5e5);
  EXPECT_DOUBLE_EQ(pts[3], 1.5e6);
}

TEST(FaultGate, DrawsOnlyInsideWindowsAndRespectsTarget) {
  FaultGate gate(/*seed=*/7);
  EXPECT_FALSE(gate.active());

  gate.windows().emplace_back(/*node=*/1, /*probability=*/1.0);
  EXPECT_TRUE(gate.active());
  EXPECT_TRUE(gate.should_drop(1));
  EXPECT_FALSE(gate.should_drop(0));  // other node untouched

  gate.windows().clear();
  EXPECT_FALSE(gate.active());

  // node -1 covers everyone.
  gate.windows().emplace_back(-1, 1.0);
  EXPECT_TRUE(gate.should_drop(0));
  EXPECT_TRUE(gate.should_drop(3));
}

TEST(FaultGate, BernoulliRateTracksProbability) {
  FaultGate gate(/*seed=*/11);
  gate.windows().emplace_back(-1, 0.25);
  int dropped = 0;
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) {
    if (gate.should_drop(0)) ++dropped;
  }
  const double rate = static_cast<double>(dropped) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(FaultDescribe, MentionsTypeAndWindow) {
  const auto f = FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=500ms").faults.front();
  const std::string d = f.describe();
  EXPECT_NE(d.find("daemon_stall"), std::string::npos) << d;
  EXPECT_NE(d.find('0'), std::string::npos) << d;
}

// ---- Integration: each fault type produces its observable signature. ----

TEST(FaultSimulation, SampleDropReducesDeliveryAndCountsDrops) {
  auto c = quick_now(2, 1);
  c.faults = FaultPlan::parse("sample_drop:node=all,start=0,dur=2s,p=0.5");
  const auto rf = run_simulation(c);
  auto h = quick_now(2, 1);
  const auto rh = run_simulation(h);

  EXPECT_GT(rf.samples_dropped, 0u);
  EXPECT_LT(rf.samples_delivered, rh.samples_delivered);
  ASSERT_EQ(rf.fault_outcomes.size(), 1u);
  EXPECT_TRUE(rf.fault_outcomes[0].injected);
  // Roughly half the healthy volume survives (generous band).
  const auto delivered = static_cast<double>(rf.samples_delivered);
  const auto healthy = static_cast<double>(rh.samples_delivered);
  EXPECT_GT(delivered, 0.35 * healthy);
  EXPECT_LT(delivered, 0.65 * healthy);
}

TEST(FaultSimulation, DaemonCrashLosesBufferedSamples) {
  auto c = quick_now(1, 8);  // batching so the daemon holds state to lose
  c.pipe_capacity = 64;
  // Two crashes so the destroyed pending batches cannot hide inside one
  // batch's worth of end-of-run in-flight slack.
  c.faults = FaultPlan::parse(
      "daemon_crash:daemon=0,start=600ms,dur=200ms;daemon_crash:daemon=0,start=1200ms,dur=200ms");
  const auto rf = run_simulation(c);

  EXPECT_GT(rf.samples_dropped, 0u);  // in-memory batches destroyed
  // Dropped samples are really gone: they are not also counted delivered.
  EXPECT_LE(rf.samples_delivered + rf.samples_dropped, rf.samples_generated);
  // The daemon restarts: delivery resumes after both windows.
  EXPECT_GT(rf.samples_delivered, 100u);
}

TEST(FaultSimulation, LinkSlowdownStretchesLatencyThenRecovers) {
  auto c = quick_now(2, 1);
  c.faults = FaultPlan::parse("link_slow:start=500ms,dur=1s,factor=32");
  const auto rf = run_simulation(c);
  const auto rh = run_simulation(quick_now(2, 1));

  EXPECT_GT(rf.latency_us.max(), rh.latency_us.max());
  // The window ends inside the run, so delivery continues afterwards.
  EXPECT_GT(rf.samples_delivered, 0.5 * static_cast<double>(rh.samples_delivered));
}

TEST(FaultSimulation, PipeBackpressureThrottlesProducer) {
  // Stall the daemon mid-run in both configurations; the clamped pipe
  // buffers 1 sample during the stall where the healthy pipe buffers 8,
  // so the producer blocks earlier and generates strictly less.
  auto base = quick_now(1, 1);
  base.pipe_capacity = 8;
  base.faults = FaultPlan::parse("daemon_stall:daemon=0,start=500ms,dur=500ms");
  auto clamped = base;
  clamped.faults = FaultPlan::parse(
      "daemon_stall:daemon=0,start=500ms,dur=500ms;"
      "pipe_backpressure:daemon=0,start=0,dur=2s,capacity=1");
  const auto rf = run_simulation(clamped);
  const auto rh = run_simulation(base);

  EXPECT_LT(rf.samples_generated, rh.samples_generated);
  ASSERT_EQ(rf.fault_outcomes.size(), 2u);
  EXPECT_TRUE(rf.fault_outcomes[1].injected);
}

// ---- Overlap normalization: same-target windows compose predictably. ----

TEST(FaultOverlap, SameTargetStallsExtendToMaxDeadline) {
  // Two overlapping stalls on the same daemon behave as their union: the
  // daemon stays stalled until the later deadline, then delivery resumes.
  auto c = quick_now(1, 1);
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=0,start=500ms,dur=400ms;"
      "daemon_stall:daemon=0,start=700ms,dur=400ms");
  const auto r = run_simulation(c);
  ASSERT_EQ(r.fault_outcomes.size(), 2u);
  EXPECT_TRUE(r.fault_outcomes[0].injected);
  EXPECT_TRUE(r.fault_outcomes[1].injected);
  // The first window's end (900 ms) must not wake the daemon early: the
  // run delivers the same as a single union-window stall.
  auto u = quick_now(1, 1);
  u.faults = FaultPlan::parse("daemon_stall:daemon=0,start=500ms,dur=600ms");
  const auto ru = run_simulation(u);
  EXPECT_EQ(r.samples_delivered, ru.samples_delivered);
  EXPECT_DOUBLE_EQ(r.latency_us.max(), ru.latency_us.max());
}

TEST(FaultOverlap, SlowdownFactorsMultiply) {
  // Two fully-overlapping x4 slowdowns == one x16 slowdown over the same
  // window: the composed effective factor is the product.
  auto two = quick_now(2, 1);
  two.faults = FaultPlan::parse(
      "link_slow:start=500ms,dur=1s,factor=4;link_slow:start=500ms,dur=1s,factor=4");
  auto one = quick_now(2, 1);
  one.faults = FaultPlan::parse("link_slow:start=500ms,dur=1s,factor=16");
  const auto rt = run_simulation(two);
  const auto ro = run_simulation(one);
  EXPECT_DOUBLE_EQ(rt.latency_us.mean(), ro.latency_us.mean());
  EXPECT_DOUBLE_EQ(rt.latency_us.max(), ro.latency_us.max());
  EXPECT_EQ(rt.samples_delivered, ro.samples_delivered);
}

TEST(FaultOverlap, DeclarationOrderIsBehaviorNeutral) {
  // Reordering clauses must not change the modeled behavior (the
  // documented overlap contract): effects are commutative per target.
  auto fwd = quick_now(2, 1);
  fwd.faults = FaultPlan::parse(
      "daemon_stall:daemon=0,start=400ms,dur=600ms;"
      "link_slow:start=600ms,dur=500ms,factor=4;"
      "pipe_backpressure:daemon=0,start=500ms,dur=800ms,capacity=2");
  auto rev = quick_now(2, 1);
  rev.faults = FaultPlan::parse(
      "pipe_backpressure:daemon=0,start=500ms,dur=800ms,capacity=2;"
      "link_slow:start=600ms,dur=500ms,factor=4;"
      "daemon_stall:daemon=0,start=400ms,dur=600ms");
  const auto rf = run_simulation(fwd);
  const auto rr = run_simulation(rev);
  EXPECT_EQ(rf.samples_generated, rr.samples_generated);
  EXPECT_EQ(rf.samples_delivered, rr.samples_delivered);
  EXPECT_DOUBLE_EQ(rf.latency_us.mean(), rr.latency_us.mean());
  EXPECT_DOUBLE_EQ(rf.pd_cpu_time_per_node_us, rr.pd_cpu_time_per_node_us);
}

TEST(FaultOverlap, NestedPipeClampsTakeTheMin) {
  // An inner capacity=1 clamp nested in an outer capacity=4 window must win
  // while it is active: the stalled pipe holds 1 sample instead of 4, so
  // fewer samples are generated; reverting the inner clamp afterwards
  // restores the outer one.  The inner window opens before the stall so the
  // pipe is already tight when delivery stops.
  auto nested = quick_now(1, 1);
  nested.pipe_capacity = 8;
  nested.faults = FaultPlan::parse(
      "daemon_stall:daemon=0,start=500ms,dur=1s;"
      "pipe_backpressure:daemon=0,start=0,dur=2s,capacity=4;"
      "pipe_backpressure:daemon=0,start=400ms,dur=1200ms,capacity=1");
  auto outer_only = quick_now(1, 1);
  outer_only.pipe_capacity = 8;
  outer_only.faults = FaultPlan::parse(
      "daemon_stall:daemon=0,start=500ms,dur=1s;"
      "pipe_backpressure:daemon=0,start=0,dur=2s,capacity=4");
  const auto rn = run_simulation(nested);
  const auto ro = run_simulation(outer_only);
  EXPECT_LT(rn.samples_generated, ro.samples_generated);
}

TEST(FaultPlanValidate, ZeroLengthWindowRejected) {
  const auto plan = FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=0");
  EXPECT_THROW(plan.validate(1, 1, 2e6, 16), std::invalid_argument);
  // A zero *drawn* duration is clamped at resolve time instead.
  auto st = FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=uniform:0:0.5");
  des::Pcg32 rng = des::RngStream(3, 0, kFaultWindowRngTag);
  st.resolve(rng);
  EXPECT_GE(st.faults[0].duration_us, 1.0);
}

// ---- Cascading faults: topology-aware secondary link degradation. ----

TEST(FaultCascade, StallPropagatesToNeighborsAndAppendsInducedOutcomes) {
  auto c = quick_now(4, 1);
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=1,start=500ms,dur=1s,cascade=1,cascade_delay=50ms,cascade_factor=8");
  const auto r = run_simulation(c);
  // p = 1 on a direct chain: both neighbors (daemons 0 and 2) are hit, so
  // two induced rows are appended after the plan's single row.
  ASSERT_EQ(r.fault_outcomes.size(), 3u);
  EXPECT_EQ(r.fault_outcomes[0].cascaded_from, -1);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(r.fault_outcomes[i].cascaded_from, 0);
    EXPECT_EQ(r.fault_outcomes[i].spec.type, FaultType::LinkSlowdown);
    EXPECT_TRUE(r.fault_outcomes[i].injected);
    EXPECT_DOUBLE_EQ(r.fault_outcomes[i].spec.magnitude, 8.0);
    // Induced windows open at the hop delay and close with the parent.
    EXPECT_DOUBLE_EQ(r.fault_outcomes[i].spec.start_us, 550'000.0);
    EXPECT_DOUBLE_EQ(r.fault_outcomes[i].spec.end_us(), 1'500'000.0);
  }
  // The degraded neighbor uplinks stretch delivery latency beyond the
  // stall-only run.
  auto nc = quick_now(4, 1);
  nc.faults = FaultPlan::parse("daemon_stall:daemon=1,start=500ms,dur=1s");
  const auto rn = run_simulation(nc);
  ASSERT_EQ(rn.fault_outcomes.size(), 1u);
  EXPECT_GT(r.latency_us.mean(), rn.latency_us.mean());
}

TEST(FaultCascade, CascadeRunsAreDeterministic) {
  auto c = quick_now(4, 1);
  c.faults = FaultPlan::parse(
      "daemon_crash:daemon=0,start=400ms,dur=800ms,cascade=0.5,cascade_hops=2");
  const auto a = run_simulation(c);
  const auto b = run_simulation(c);
  ASSERT_EQ(a.fault_outcomes.size(), b.fault_outcomes.size());
  for (std::size_t i = 0; i < a.fault_outcomes.size(); ++i) {
    EXPECT_EQ(a.fault_outcomes[i].cascaded_from, b.fault_outcomes[i].cascaded_from);
    EXPECT_DOUBLE_EQ(a.fault_outcomes[i].spec.start_us, b.fault_outcomes[i].spec.start_us);
  }
  EXPECT_EQ(a.samples_delivered, b.samples_delivered);
  EXPECT_DOUBLE_EQ(a.latency_us.mean(), b.latency_us.mean());
}

TEST(FaultSimulation, FaultRunsAreDeterministic) {
  auto c = quick_now(2, 1);
  c.faults = FaultPlan::parse(
      "sample_drop:node=all,start=250ms,dur=1s,p=0.3;link_slow:start=1s,dur=500ms,factor=4");
  const auto a = run_simulation(c);
  const auto b = run_simulation(c);
  EXPECT_EQ(a.samples_generated, b.samples_generated);
  EXPECT_EQ(a.samples_delivered, b.samples_delivered);
  EXPECT_EQ(a.samples_dropped, b.samples_dropped);
  EXPECT_DOUBLE_EQ(a.latency_us.mean(), b.latency_us.mean());
  EXPECT_DOUBLE_EQ(a.pd_cpu_time_per_node_us, b.pd_cpu_time_per_node_us);
}

TEST(FaultSimulation, FaultFreeStreamsUntouchedByFaultMachinery) {
  // A plan whose windows never cover any node must reproduce the healthy
  // run bit-for-bit: the fault RNG stream is dedicated, and no model
  // stream advances differently because faults exist.
  auto c = quick_now(2, 1);
  const auto rh = run_simulation(c);
  c.faults = FaultPlan::parse("sample_drop:node=1,start=1s,dur=1ms,p=1e-9");
  const auto rf = run_simulation(c);
  EXPECT_EQ(rf.samples_generated, rh.samples_generated);
  EXPECT_DOUBLE_EQ(rf.latency_us.mean(), rh.latency_us.mean());
  EXPECT_DOUBLE_EQ(rf.app_cpu_time_per_node_us, rh.app_cpu_time_per_node_us);
}

TEST(FaultSimulation, AdaptiveThrottleSlowsSamplingUnderBudget) {
  auto c = quick_now(2, 1);
  c.sampling_period_us = 2'000.0;  // aggressive sampling -> perturbation
  c.regulator.scope = RegulatorScope::PerDaemon;
  c.regulator.budget_pct = 0.5;  // tight budget
  const auto rt = run_simulation(c);
  auto h = quick_now(2, 1);
  h.sampling_period_us = 2'000.0;
  const auto rh = run_simulation(h);

  EXPECT_GT(rt.max_throttle_factor, 1.0);
  EXPECT_GT(rt.throttle_adjustments, 0u);
  EXPECT_LT(rt.samples_generated, rh.samples_generated);
}

TEST(FaultSimulation, ThrottleDisabledByDefault) {
  const auto r = run_simulation(quick_now(1, 1));
  EXPECT_DOUBLE_EQ(r.max_throttle_factor, 1.0);
  EXPECT_EQ(r.throttle_adjustments, 0u);
  EXPECT_TRUE(r.throttle_factors.empty());
}

}  // namespace
}  // namespace paradyn::rocc
