// Shard-count-invariance differential suite for the partitioned (PDES) ROCC
// engine.
//
// The load-bearing property: for every supported flavor grid — plain,
// batching + warm-up, all four fault types, stochastic windows, cascades,
// detection + repair, adaptive throttle, binary-tree forwarding — running
// with `--shards N` (and with the default `--shards 0`) is *bit-identical*
// to `--shards 1`.  Features that couple nodes at zero latency (SMP,
// barriers, the global cost model, metrics probes) run on one shard only,
// where `--shards 1` must match `--shards 0`.  Identity is checked
// three ways: field-by-field on SimulationResult, string equality of the
// serialized --report-json results array, and (for traces) multiset equality
// of every recorded model event.  The suite also pins the des-layer edge
// cases the conservative window depends on: events exactly at a window
// horizon, cancellation handles used after the owner shard advanced, and the
// config validations that reject un-shardable couplings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "consultant/fault_detector.hpp"
#include "des/shard.hpp"
#include "experiments/report_json.hpp"
#include "experiments/shard_executor.hpp"
#include "experiments/thread_pool.hpp"
#include "obs/trace.hpp"
#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"
#include "support/bit_identical.hpp"

namespace paradyn::rocc {
namespace {

SimulationResult run_at_shards(SystemConfig c, std::int32_t shards) {
  c.shards = shards;
  Simulation sim(c);
  return sim.run();
}

/// The shard counts a grid compares against its 1-shard baseline: the
/// default 0 (also one shard) plus `counts`.
std::vector<std::int32_t> with_default_count(std::initializer_list<std::int32_t> counts) {
  std::vector<std::int32_t> all{0};
  all.insert(all.end(), counts.begin(), counts.end());
  return all;
}

/// Run the config at --shards 1, at the default --shards 0, and at each
/// count in `counts`, asserting pairwise bit-identity against the 1-shard
/// baseline.
void expect_shard_invariant(const SystemConfig& c, std::initializer_list<std::int32_t> counts) {
  const SimulationResult baseline = run_at_shards(c, 1);
  for (const std::int32_t n : with_default_count(counts)) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    expect_bit_identical(baseline, run_at_shards(c, n));
  }
}

SystemConfig pdes_config(std::int32_t nodes) {
  auto c = SystemConfig::now(nodes);
  c.duration_us = 1e6;
  c.sampling_period_us = 10'000.0;
  c.uplink_latency_us = 500.0;  // lookahead
  return c;
}

// ---------------------------------------------------------------------------
// Flavor grids
// ---------------------------------------------------------------------------

TEST(PdesInvariance, PlainGrid) { expect_shard_invariant(pdes_config(8), {2, 4, 8}); }

TEST(PdesInvariance, BatchWarmupGrid) {
  auto c = pdes_config(8);
  c.batch_size = 32;
  c.warmup_us = 300'000.0;
  c.record_latency_series = true;
  expect_shard_invariant(c, {2, 4, 8});
}

TEST(PdesInvariance, FaultGridAllTypes) {
  auto c = pdes_config(4);
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=1,start=200ms,dur=100ms;"
      "link_slow:start=400ms,dur=200ms,factor=4;"
      "sample_drop:node=all,start=600ms,dur=200ms,p=0.3;"
      "pipe_backpressure:daemon=0,start=100ms,dur=700ms,capacity=2");
  expect_shard_invariant(c, {2, 4});
}

TEST(PdesInvariance, FaultGridWithWarmup) {
  auto c = pdes_config(4);
  c.warmup_us = 150'000.0;
  c.batch_size = 16;
  c.faults = FaultPlan::parse(
      "daemon_crash:daemon=2,start=300ms,dur=200ms;"
      "sample_drop:node=1,start=200ms,dur=500ms,p=0.5");
  expect_shard_invariant(c, {2, 3, 4});
}

TEST(PdesInvariance, StochasticWindowGrid) {
  auto c = pdes_config(4);
  c.duration_us = 2e6;
  c.faults = FaultPlan::parse("daemon_stall:daemon=1,start=uniform:300ms:600ms,dur=exp:400ms");
  expect_shard_invariant(c, {2, 4});
}

TEST(PdesInvariance, CascadeGrid) {
  auto c = pdes_config(8);
  c.duration_us = 2e6;
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=3,start=300ms,dur=600ms,cascade=0.7,cascade_delay=50ms,"
      "cascade_hops=3");
  expect_shard_invariant(c, {2, 4, 8});
}

TEST(PdesInvariance, TreeTopologyGrid) {
  auto c = SystemConfig::mpp(8, ForwardingTopology::BinaryTree);
  c.duration_us = 1e6;
  c.sampling_period_us = 10'000.0;
  c.uplink_latency_us = 500.0;
  c.batch_size = 8;
  expect_shard_invariant(c, {2, 4, 8});
}

TEST(PdesInvariance, TreeTopologyFaultedGrid) {
  auto c = SystemConfig::mpp(8, ForwardingTopology::BinaryTree);
  c.duration_us = 1.5e6;
  c.sampling_period_us = 10'000.0;
  c.uplink_latency_us = 500.0;
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=1,start=300ms,dur=300ms,cascade=0.5,cascade_delay=40ms;"
      "link_slow:start=500ms,dur=400ms,factor=3");
  expect_shard_invariant(c, {2, 4, 8});
}

TEST(PdesInvariance, AdaptiveThrottleGrid) {
  auto c = pdes_config(4);
  c.regulator.scope = RegulatorScope::PerDaemon;
  c.regulator.budget_pct = 5.0;
  expect_shard_invariant(c, {2, 4});
}

TEST(PdesInvariance, DedicatedMainHostGrid) {
  auto c = pdes_config(4);
  c.main_on_dedicated_host = true;
  expect_shard_invariant(c, {2, 4});
}

// ---------------------------------------------------------------------------
// Detection + repair
// ---------------------------------------------------------------------------

SimulationResult run_with_harness(SystemConfig c, std::int32_t shards,
                                  const consultant::RepairPolicy* policy) {
  c.shards = shards;
  Simulation sim(c);
  auto harness = policy != nullptr
                     ? std::make_unique<consultant::DetectionHarness>(sim, *policy)
                     : std::make_unique<consultant::DetectionHarness>(sim);
  SimulationResult r = sim.run();
  harness->finalize(r);
  return r;
}

void expect_repair_invariant(const SystemConfig& c, const consultant::RepairPolicy* policy,
                             std::initializer_list<std::int32_t> counts) {
  const SimulationResult baseline = run_with_harness(c, 1, policy);
  for (const std::int32_t n : with_default_count(counts)) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    const SimulationResult r = run_with_harness(c, n, policy);
    expect_bit_identical(baseline, r);
    ASSERT_EQ(baseline.fault_outcomes.size(), r.fault_outcomes.size());
    for (std::size_t f = 0; f < baseline.fault_outcomes.size(); ++f) {
      SCOPED_TRACE("fault " + std::to_string(f));
      const auto& a = baseline.fault_outcomes[f];
      const auto& b = r.fault_outcomes[f];
      EXPECT_EQ(a.detected, b.detected);
      EXPECT_DOUBLE_EQ(a.detection_latency_us, b.detection_latency_us);
      EXPECT_DOUBLE_EQ(a.recovery_latency_us, b.recovery_latency_us);
      EXPECT_EQ(a.repair_attempts, b.repair_attempts);
      EXPECT_EQ(a.repaired, b.repaired);
      EXPECT_EQ(a.gave_up, b.gave_up);
      EXPECT_DOUBLE_EQ(a.time_to_repair_us, b.time_to_repair_us);
      EXPECT_DOUBLE_EQ(a.repair_backoff_us, b.repair_backoff_us);
    }
  }
}

TEST(PdesInvariance, DetectionGrid) {
  auto c = pdes_config(4);
  c.duration_us = 1.5e6;
  c.faults = FaultPlan::parse("daemon_stall:daemon=2,start=500ms,dur=300ms");
  expect_repair_invariant(c, nullptr, {2, 4});
}

TEST(PdesInvariance, RestartRepairGrid) {
  auto c = pdes_config(4);
  c.duration_us = 2e6;
  c.faults = FaultPlan::parse("daemon_crash:daemon=1,start=500ms,dur=1s");
  const auto policy = consultant::RepairPolicy::parse(
      "restart_daemon:timeout=50ms,max_retries=3,backoff=exp:20ms,jitter=0.3,success_p=0.5");
  expect_repair_invariant(c, &policy, {2, 4});
}

TEST(PdesInvariance, RerouteRepairGrid) {
  auto c = pdes_config(4);
  c.duration_us = 2e6;
  c.faults = FaultPlan::parse("link_slow:start=400ms,dur=1s,factor=6");
  const auto policy = consultant::RepairPolicy::parse(
      "reroute_link:timeout=40ms,max_retries=2,backoff=fixed:30ms,success_p=0.7,penalty=1.5");
  expect_repair_invariant(c, &policy, {2, 4});
}

TEST(PdesInvariance, ResetPipeRepairGrid) {
  auto c = pdes_config(4);
  c.duration_us = 2e6;
  c.faults = FaultPlan::parse("pipe_backpressure:daemon=1,start=300ms,dur=1200ms,capacity=1");
  const auto policy = consultant::RepairPolicy::parse(
      "reset_pipe:timeout=60ms,max_retries=3,backoff=fixed:25ms,success_p=0.6");
  expect_repair_invariant(c, &policy, {2, 4});
}

// ---------------------------------------------------------------------------
// Report-json / summary / executor identity
// ---------------------------------------------------------------------------

std::string report_doc(const SystemConfig& c, std::int32_t shards) {
  SystemConfig run_config = c;
  run_config.shards = shards;
  Simulation sim(run_config);
  const SimulationResult r = sim.run();
  obs::ReproStamp stamp;
  stamp.tool = "pdes_tests";
  stamp.config = run_config.summary();
  stamp.seed = run_config.seed;
  stamp.has_seed = true;
  std::ostringstream os;
  experiments::write_report_json(os, stamp, {r}, nullptr);
  return os.str();
}

TEST(PdesInvariance, ReportJsonDocumentsStringIdentical) {
  auto c = pdes_config(4);
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=1,start=200ms,dur=100ms;"
      "sample_drop:node=all,start=500ms,dur=300ms,p=0.25");
  const std::string one = report_doc(c, 1);
  EXPECT_EQ(one, report_doc(c, 2));
  EXPECT_EQ(one, report_doc(c, 4));
}

TEST(PdesInvariance, SummaryExcludesShardCount) {
  auto c = pdes_config(4);
  std::vector<std::string> stamps;
  for (const std::int32_t shards : {0, 1, 4}) {
    c.shards = shards;
    stamps.push_back(c.summary());
  }
  EXPECT_EQ(stamps[0], stamps[1]);
  EXPECT_EQ(stamps[0], stamps[2]);
  // ... but the uplink latency is part of the model, so it is stamped for
  // any shard count; 0 keeps the historical stamp.
  auto at_zero = SystemConfig::now(4);
  auto at_ten = SystemConfig::now(4);
  at_ten.uplink_latency_us = 10'000.0;
  EXPECT_NE(at_zero.summary(), at_ten.summary());
  EXPECT_NE(at_ten.summary().find("uplink=10000us"), std::string::npos) << at_ten.summary();
  EXPECT_EQ(at_zero.summary().find("uplink"), std::string::npos) << at_zero.summary();
}

// The pool executor strides shards across a fixed number of lanes; every
// lane count must reproduce the serial results bit-exactly: one lane, fewer
// lanes than shards (ParallelRunner's lane rule on a busy grid), one lane per shard,
// and more lanes than shards.
TEST(PdesInvariance, LaneBoundedExecutorBitIdenticalToSerial) {
  auto c = pdes_config(8);
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=1,start=200ms,dur=300ms;"
      "link_slow:start=300ms,dur=400ms,factor=4");
  c.shards = 4;

  Simulation serial(c);
  const SimulationResult a = serial.run();

  experiments::ThreadPool pool(4);
  for (const std::size_t lanes : {1u, 2u, 3u, 4u, 8u}) {
    Simulation pooled(c);
    pooled.set_shard_executor(experiments::shard_pool_executor(pool, lanes));
    const SimulationResult b = pooled.run();
    expect_bit_identical(a, b);
  }
}

// ---------------------------------------------------------------------------
// Trace invariance
// ---------------------------------------------------------------------------

struct FlatEvent {
  std::string category;
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  double arg0 = 0.0;
  double arg1 = 0.0;
  std::uint64_t id = 0;
  std::int32_t track = 0;
  int phase = 0;

  auto key() const {
    return std::tie(ts, track, category, name, phase, id, dur, arg0, arg1);
  }
  bool operator<(const FlatEvent& o) const { return key() < o.key(); }
  bool operator==(const FlatEvent& o) const { return key() == o.key(); }
};

/// Every retained model event, sorted canonically.  Engine bookkeeping
/// (category "des": per-event execution spans) is per-shard by construction
/// and excluded; everything else — CPU/network occupancy, daemon/main
/// activity, sample lifecycles, fault/repair markers — must be invariant.
std::vector<FlatEvent> flatten_traces(const obs::TraceRecorder& recorder) {
  std::vector<FlatEvent> out;
  recorder.for_each_event([&out](const obs::TraceEvent& e, std::int32_t) {
    if (std::strcmp(e.category, "des") == 0) return;
    FlatEvent f;
    f.category = e.category;
    f.name = e.name;
    f.ts = e.ts_us;
    f.dur = e.dur_us;
    f.arg0 = e.arg0;
    f.arg1 = e.arg1;
    f.id = e.id;
    f.track = e.track;
    f.phase = static_cast<int>(e.phase);
    out.push_back(std::move(f));
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PdesInvariance, TracedModelEventsIdenticalAcrossShardCounts) {
  auto c = pdes_config(4);
  c.duration_us = 400'000.0;
  c.faults = FaultPlan::parse("daemon_stall:daemon=1,start=100ms,dur=100ms");

  std::vector<std::vector<FlatEvent>> flats;
  for (const std::int32_t shards : {1, 2, 4}) {
    SystemConfig run_config = c;
    run_config.shards = shards;
    obs::TraceRecorder recorder(1u << 20);
    Simulation sim(run_config);
    sim.set_trace_recorder(recorder);
    (void)sim.run();
    ASSERT_EQ(recorder.dropped(), 0u) << "ring too small for a fair comparison";
    flats.push_back(flatten_traces(recorder));
  }
  ASSERT_FALSE(flats[0].empty());
  EXPECT_EQ(flats[0], flats[1]);
  EXPECT_EQ(flats[0], flats[2]);
}

TEST(PdesInvariance, TracingDoesNotChangeResults) {
  // Trace events must be recorded from within existing events, never by
  // scheduling new ones: attaching a recorder cannot move the clock.
  auto c = pdes_config(4);
  c.faults = FaultPlan::parse("link_slow:start=200ms,dur=300ms,factor=4");
  c.shards = 2;

  Simulation plain(c);
  const SimulationResult a = plain.run();

  obs::TraceRecorder recorder(1u << 20);
  Simulation traced(c);
  traced.set_trace_recorder(recorder);
  const SimulationResult b = traced.run();

  expect_bit_identical(a, b);
}

// ---------------------------------------------------------------------------
// One shard: zero-latency couplings run, and --shards 1 matches --shards 0
// ---------------------------------------------------------------------------

/// Both one-shard spellings run and agree bit for bit.
void expect_one_shard_identical(const SystemConfig& c) {
  expect_bit_identical(run_at_shards(c, 0), run_at_shards(c, 1));
}

TEST(PdesOneShard, ZeroUplinkMatchesShardsZero) {
  auto c = pdes_config(4);
  c.uplink_latency_us = 0.0;
  c.batch_size = 8;
  c.warmup_us = 200'000.0;
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=1,start=300ms,dur=200ms;"
      "sample_drop:node=all,start=500ms,dur=200ms,p=0.3");
  expect_one_shard_identical(c);
}

TEST(PdesOneShard, SmpMatchesShardsZero) {
  auto c = SystemConfig::smp(4, 8, 2);
  c.duration_us = 1e6;
  c.sampling_period_us = 10'000.0;
  c.batch_size = 4;
  expect_one_shard_identical(c);
  c.uplink_latency_us = 500.0;
  expect_one_shard_identical(c);
}

TEST(PdesOneShard, BarrierMatchesShardsZero) {
  auto c = pdes_config(4);
  c.barrier_period_us = 50'000.0;
  c.warmup_us = 100'000.0;
  expect_one_shard_identical(c);
  c.uplink_latency_us = 0.0;
  const SimulationResult r = run_at_shards(c, 1);
  EXPECT_GT(r.barrier_rounds, 0u);
  expect_bit_identical(run_at_shards(c, 0), r);
}

TEST(PdesOneShard, GlobalAdaptiveSamplingMatchesShardsZero) {
  auto c = pdes_config(4);
  c.regulator.scope = RegulatorScope::Global;
  c.regulator.budget_pct = 1.0;
  expect_one_shard_identical(c);
  c.uplink_latency_us = 0.0;
  const SimulationResult r = run_at_shards(c, 1);
  EXPECT_FALSE(r.cost_adjustments.empty());
  expect_bit_identical(run_at_shards(c, 0), r);
}

/// Probe rows of a metrics-enabled run as CSV, plus its result.
std::pair<std::string, SimulationResult> metrics_run(SystemConfig c, std::int32_t shards) {
  c.shards = shards;
  Simulation sim(c);
  obs::MetricsRegistry registry;
  sim.enable_metrics(registry, 50'000.0);
  SimulationResult r = sim.run();
  std::ostringstream os;
  registry.write_csv(os);
  return {os.str(), std::move(r)};
}

TEST(PdesOneShard, MetricsProbesMatchShardsZero) {
  for (const double uplink : {0.0, 500.0}) {
    SCOPED_TRACE("uplink=" + std::to_string(uplink));
    auto c = pdes_config(4);
    c.uplink_latency_us = uplink;
    c.regulator.scope = RegulatorScope::PerDaemon;
    c.regulator.budget_pct = 5.0;
    c.faults = FaultPlan::parse("link_slow:start=200ms,dur=300ms,factor=4");
    const auto zero = metrics_run(c, 0);
    const auto one = metrics_run(c, 1);
    EXPECT_NE(zero.first.find("samples.delivered"), std::string::npos);
    EXPECT_GT(std::count(zero.first.begin(), zero.first.end(), '\n'), 10);
    EXPECT_EQ(zero.first, one.first);
    expect_bit_identical(zero.second, one.second);
  }
}

// ---------------------------------------------------------------------------
// Config validation: couplings the conservative window cannot express
// ---------------------------------------------------------------------------

TEST(PdesValidation, ZeroLookaheadRejectedWithClearError) {
  auto c = SystemConfig::now(4);
  c.shards = 2;
  c.uplink_latency_us = 0.0;
  try {
    Simulation sim(c);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos) << e.what();
  }
}

TEST(PdesValidation, ShardsBeyondNodesRejected) {
  auto c = pdes_config(4);
  c.shards = 5;
  EXPECT_THROW(Simulation sim(c), std::invalid_argument);
}

TEST(PdesValidation, SmpRejected) {
  auto c = SystemConfig::smp(4, 8, 1);
  c.shards = 2;
  c.uplink_latency_us = 500.0;
  EXPECT_THROW(Simulation sim(c), std::invalid_argument);
}

TEST(PdesValidation, BarrierRejected) {
  auto c = pdes_config(4);
  c.shards = 2;
  c.barrier_period_us = 50'000.0;
  EXPECT_THROW(Simulation sim(c), std::invalid_argument);
}

TEST(PdesValidation, GlobalAdaptiveSamplingRejected) {
  auto c = pdes_config(4);
  c.shards = 2;
  c.regulator.scope = RegulatorScope::Global;
  try {
    Simulation sim(c);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The way out it names must be a flag roccsim accepts.
    EXPECT_NE(std::string(e.what()).find("--adaptive-sampling"), std::string::npos) << e.what();
  }
}

TEST(PdesValidation, MetricsProbesRejectedWhenPartitioned) {
  auto c = pdes_config(4);
  c.shards = 2;
  Simulation sim(c);
  obs::MetricsRegistry registry;
  EXPECT_THROW(sim.enable_metrics(registry, 1000.0), std::logic_error);
}

// ---------------------------------------------------------------------------
// des-layer shard edge cases
// ---------------------------------------------------------------------------

TEST(ShardSetEdge, EventExactlyAtWindowHorizonRunsInNextWindow) {
  // An event scheduled exactly at a window horizon belongs to the *next*
  // window: cross-shard messages for that instant must be injected first.
  des::ShardSetConfig sc;
  sc.shards = 2;
  sc.window_us = 100.0;
  sc.duration_us = 250.0;
  des::ShardSet set(sc);

  std::vector<std::pair<double, int>> order;
  // Local event on shard 1 exactly at the first horizon...
  set.engine(1).schedule_at(100.0, [&] { order.emplace_back(100.0, 1); });
  // ...and a cross-shard message due at the same instant, posted from a
  // shard-0 event inside window 0 (lookahead = one full window).
  set.engine(0).schedule_at(0.0, [&] {
    set.post(0, 1, 100.0, /*sender_key=*/7, [&] { order.emplace_back(100.0, 2); });
  });
  set.run();

  // Injection order: locally-scheduled events at a timestamp run before
  // same-timestamp injections (insertion order within the destination
  // queue), a shard-count-invariant rule.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], (std::pair<double, int>{100.0, 1}));
  EXPECT_EQ(order[1], (std::pair<double, int>{100.0, 2}));
}

TEST(ShardSetEdge, PostBeforeHorizonThrows) {
  des::ShardSetConfig sc;
  sc.shards = 2;
  sc.window_us = 100.0;
  sc.duration_us = 200.0;
  des::ShardSet set(sc);
  bool threw = false;
  set.engine(0).schedule_at(50.0, [&] {
    try {
      set.post(0, 1, 99.0, 0, [] {});  // inside the executing window
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  set.run();
  EXPECT_TRUE(threw);
}

TEST(ShardSetEdge, CancelHandleAfterOwnerShardAdvanced) {
  // A cancellation handle for an event on another shard, used after that
  // shard already executed (or passed) the event, must be a harmless no-op —
  // not slab corruption.
  des::ShardSetConfig sc;
  sc.shards = 2;
  sc.window_us = 100.0;
  sc.duration_us = 400.0;
  des::ShardSet set(sc);

  int fired = 0;
  int cancelled_fired = 0;
  // Owner shard 1: one event that will have fired by window 2, one late
  // event we cancel before its time arrives.
  auto fired_handle = set.engine(1).schedule_at(50.0, [&] { ++fired; });
  auto pending_handle = set.engine(1).schedule_at(350.0, [&] { ++cancelled_fired; });
  // Shard 0, two windows later: both handles' cancel must be safe — the
  // first is stale (event already executed), the second still pending.
  set.engine(0).schedule_at(250.0, [&] {
    set.engine(1).cancel(fired_handle);    // stale: no-op
    set.engine(1).cancel(pending_handle);  // live: prevents the callback
  });
  set.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cancelled_fired, 0);
}

TEST(ShardSetEdge, CheckpointFiresExactlyAtWarmup) {
  des::ShardSetConfig sc;
  sc.shards = 2;
  sc.window_us = 64.0;
  sc.warmup_us = 160.0;  // interior to a window: forces a split boundary
  sc.duration_us = 320.0;
  des::ShardSet set(sc);
  std::vector<double> checkpoints;
  set.run([&](des::SimTime t) { checkpoints.push_back(t); });
  ASSERT_EQ(checkpoints.size(), 1u);
  EXPECT_DOUBLE_EQ(checkpoints[0], 160.0);
  EXPECT_DOUBLE_EQ(set.engine(0).now(), 320.0);
  EXPECT_DOUBLE_EQ(set.engine(1).now(), 320.0);
}

TEST(ShardSetEdge, ZeroWindowRunsOneShardAsOneWindow) {
  des::ShardSetConfig sc;
  sc.shards = 1;
  sc.window_us = 0.0;
  sc.warmup_us = 100.0;
  sc.duration_us = 300.0;
  des::ShardSet set(sc);
  std::vector<double> fired;
  for (const double t : {50.0, 100.0, 250.0, 300.0, 301.0}) {
    set.engine(0).schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  std::vector<double> checkpoints;
  set.run([&](des::SimTime t) { checkpoints.push_back(t); });
  EXPECT_EQ(fired, (std::vector<double>{50.0, 100.0, 250.0, 300.0}));
  EXPECT_EQ(checkpoints, (std::vector<double>{100.0}));
  EXPECT_DOUBLE_EQ(set.engine(0).now(), 300.0);
}

TEST(ShardSetEdge, ZeroWindowRejectedForTwoShards) {
  des::ShardSetConfig sc;
  sc.shards = 2;
  sc.window_us = 0.0;
  sc.duration_us = 300.0;
  EXPECT_THROW(des::ShardSet set(sc), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Defaults keep the historical model
// ---------------------------------------------------------------------------

TEST(PdesLegacy, ShardsZeroWithoutUplinkMatchesHistoricalShape) {
  // Sanity: uplink = 0 keeps the historical synchronous hand-off, with the
  // whole run as one window — samples still flow.
  auto c = SystemConfig::now(2);
  c.duration_us = 200'000.0;
  c.sampling_period_us = 10'000.0;
  const auto r = run_simulation(c);
  EXPECT_GT(r.samples_delivered, 0u);
}

}  // namespace
}  // namespace paradyn::rocc
