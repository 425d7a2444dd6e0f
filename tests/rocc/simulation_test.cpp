// Integration tests of the assembled ROCC model.
#include "rocc/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "support/replications.hpp"

namespace paradyn::rocc {
namespace {

SystemConfig quick_now(std::int32_t nodes, std::int32_t batch) {
  auto c = SystemConfig::now(nodes);
  c.batch_size = batch;
  c.duration_us = 2e6;  // 2 simulated seconds
  c.sampling_period_us = 10'000.0;
  return c;
}

TEST(Simulation, DeterministicForSameSeed) {
  const auto a = run_simulation(quick_now(4, 1));
  const auto b = run_simulation(quick_now(4, 1));
  EXPECT_DOUBLE_EQ(a.pd_cpu_time_per_node_us, b.pd_cpu_time_per_node_us);
  EXPECT_DOUBLE_EQ(a.app_cpu_time_per_node_us, b.app_cpu_time_per_node_us);
  EXPECT_EQ(a.samples_delivered, b.samples_delivered);
  EXPECT_DOUBLE_EQ(a.latency_us.mean(), b.latency_us.mean());
}

TEST(Simulation, SeedChangesResults) {
  auto cfg = quick_now(4, 1);
  const auto a = run_simulation(cfg);
  cfg.seed = 999;
  const auto b = run_simulation(cfg);
  EXPECT_NE(a.app_cpu_time_per_node_us, b.app_cpu_time_per_node_us);
}

TEST(Simulation, RunTwiceThrows) {
  Simulation sim(quick_now(2, 1));
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

TEST(Simulation, SampleAccountingUnderCf) {
  // 4 nodes x 1 app x (2s / 40ms) = ~200 samples generated; under light
  // load CF delivers nearly all of them (a handful remain in flight).
  auto c = quick_now(4, 1);
  c.sampling_period_us = 40'000.0;
  const auto r = run_simulation(c);
  EXPECT_NEAR(static_cast<double>(r.samples_generated), 200.0, 4.0);
  EXPECT_LE(r.samples_delivered, r.samples_generated);
  EXPECT_GT(static_cast<double>(r.samples_delivered),
            0.9 * static_cast<double>(r.samples_generated));
  // CF: one batch per sample.
  EXPECT_EQ(r.batches_delivered, r.samples_delivered);
}

TEST(Simulation, BatchAccountingUnderBf) {
  const auto r = run_simulation(quick_now(4, 16));
  EXPECT_GT(r.batches_delivered, 0u);
  EXPECT_EQ(r.samples_delivered, r.batches_delivered * 16u);
}

TEST(Simulation, HeadlineResultBfCutsPdOverhead) {
  // The paper's central claim: BF reduces direct Pd CPU overhead by >60%
  // at small sampling periods (one system call per batch instead of per
  // sample).
  auto cf = quick_now(4, 1);
  cf.sampling_period_us = 40'000.0;
  auto bf = quick_now(4, 32);
  bf.sampling_period_us = 40'000.0;
  const auto rcf = run_simulation(cf);
  const auto rbf = run_simulation(bf);
  EXPECT_LT(rbf.pd_cpu_time_per_node_us, 0.45 * rcf.pd_cpu_time_per_node_us);
}

TEST(Simulation, UninstrumentedHasNoIsActivity) {
  auto c = quick_now(4, 1);
  c.instrumentation_enabled = false;
  const auto r = run_simulation(c);
  EXPECT_DOUBLE_EQ(r.pd_cpu_time_per_node_us, 0.0);
  EXPECT_DOUBLE_EQ(r.main_cpu_time_us, 0.0);
  EXPECT_EQ(r.samples_generated, 0u);
  EXPECT_EQ(r.samples_delivered, 0u);
  EXPECT_GT(r.app_cpu_time_per_node_us, 0.0);
}

TEST(Simulation, InstrumentationPerturbsApplication) {
  // Direct + indirect IS overhead must cost the application CPU time.
  auto on = quick_now(4, 1);
  auto off = quick_now(4, 1);
  off.instrumentation_enabled = false;
  const auto ron = run_simulation(on);
  const auto roff = run_simulation(off);
  EXPECT_LT(ron.app_cpu_util_pct, roff.app_cpu_util_pct);
}

TEST(Simulation, UtilizationsWithinBounds) {
  const auto r = run_simulation(quick_now(4, 8));
  for (const double u : {r.app_cpu_util_pct, r.pd_cpu_util_pct, r.main_cpu_util_pct,
                         r.is_cpu_util_pct, r.pd_busy_share_pct}) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 100.0 + 1e-9);
  }
}

TEST(Simulation, LatencyPositiveAndFinite) {
  const auto r = run_simulation(quick_now(4, 1));
  ASSERT_GT(r.latency_us.count(), 0u);
  EXPECT_GT(r.latency_us.min(), 0.0);
  EXPECT_TRUE(std::isfinite(r.latency_us.mean()));
  // Monitoring latency is at least the minimum possible service demand.
  EXPECT_GT(r.latency_us.mean(), 10.0);
}

TEST(Simulation, ThroughputMatchesSamplingRateUnderLightLoad) {
  // 4 nodes x 25 samples/s = 100 samples/s offered.
  auto c = quick_now(4, 1);
  c.sampling_period_us = 40'000.0;
  const auto r = run_simulation(c);
  EXPECT_NEAR(r.throughput_samples_per_sec, 100.0, 8.0);
}

TEST(Simulation, TinyPipeBlocksApplication) {
  // Aggressive sampling into a 2-slot pipe on a contended CPU must block
  // the app: fewer samples generated than the timer rate, and lower app
  // CPU time than with a large pipe.
  auto small = quick_now(1, 1);
  small.sampling_period_us = 200.0;  // 5000 samples/s offered
  small.pipe_capacity = 2;
  auto big = small;
  big.pipe_capacity = 100'000;
  const auto rs = run_simulation(small);
  const auto rb = run_simulation(big);
  EXPECT_LT(rs.samples_generated, rb.samples_generated);
  EXPECT_LT(rs.app_cpu_time_per_node_us, rb.app_cpu_time_per_node_us);
}

TEST(Simulation, DedicatedMainHostRelievesNodeZero) {
  // Moving the main process to its own workstation (Figure 29 setup)
  // frees node CPU for the application.
  auto shared = quick_now(2, 1);
  auto dedicated = shared;
  dedicated.main_on_dedicated_host = true;
  const auto rs = run_simulation(shared);
  const auto rd = run_simulation(dedicated);
  EXPECT_GT(rd.app_cpu_util_pct, rs.app_cpu_util_pct);
  // The main process still consumes comparable CPU, just elsewhere.
  EXPECT_GT(rd.main_cpu_util_pct, 0.5 * rs.main_cpu_util_pct);
}

TEST(Simulation, MainProcessLoadScalesWithNodes) {
  // Unsaturated operating point: main demand is n * 25/s * 3.2ms.
  auto c2 = quick_now(2, 1);
  c2.sampling_period_us = 40'000.0;
  auto c8 = quick_now(8, 1);
  c8.sampling_period_us = 40'000.0;
  const auto r2 = run_simulation(c2);
  const auto r8 = run_simulation(c8);
  EXPECT_GT(r8.main_cpu_util_pct, 2.0 * r2.main_cpu_util_pct);
  EXPECT_LT(r8.main_cpu_util_pct, 100.0);
}

TEST(Simulation, BarrierReducesApplicationCpuUtilization) {
  auto no_barrier = quick_now(8, 32);
  auto with_barrier = no_barrier;
  with_barrier.barrier_period_us = 5'000.0;  // very frequent barriers
  const auto r0 = run_simulation(no_barrier);
  const auto r1 = run_simulation(with_barrier);
  EXPECT_EQ(r0.barrier_rounds, 0u);
  EXPECT_GT(r1.barrier_rounds, 10u);
  EXPECT_GT(r1.barrier_wait_us, 0.0);
  EXPECT_LT(r1.app_cpu_util_pct, r0.app_cpu_util_pct);
}

TEST(SimulationMpp, TreeDeliversAllSamplesAndCostsMergeCpu) {
  auto direct = SystemConfig::mpp(8, ForwardingTopology::Direct);
  direct.duration_us = 2e6;
  direct.sampling_period_us = 10'000.0;
  direct.batch_size = 4;
  auto tree = direct;
  tree.topology = ForwardingTopology::BinaryTree;

  const auto rd = run_simulation(direct);
  const auto rt = run_simulation(tree);

  EXPECT_GT(rt.samples_delivered, 0.9 * static_cast<double>(rd.samples_delivered));
  // Interior nodes pay merge CPU: tree forwarding costs more Pd CPU
  // (Figure 27's finding).
  EXPECT_GT(rt.pd_cpu_time_per_node_us, rd.pd_cpu_time_per_node_us);
  // Latency accumulates across hops: tree latency >= direct latency.
  EXPECT_GE(rt.latency_us.mean(), rd.latency_us.mean());
}

TEST(SimulationFault, DaemonStallBacksUpAndRecovers) {
  // Stall the only daemon for 0.5 s in the middle of a 2 s run: pipes fill
  // and the application blocks, then the backlog drains on resume.
  auto faulty = quick_now(1, 1);
  faulty.sampling_period_us = 10'000.0;
  faulty.pipe_capacity = 8;
  faulty.faults = FaultPlan::parse("daemon_stall:daemon=0,start=500ms,dur=500ms");
  auto healthy = quick_now(1, 1);
  healthy.sampling_period_us = 10'000.0;
  healthy.pipe_capacity = 8;

  const auto rf = run_simulation(faulty);
  const auto rh = run_simulation(healthy);

  // The stall suppresses sample generation (blocked producer) ...
  EXPECT_LT(rf.samples_generated, rh.samples_generated);
  // ... but the system recovers: post-stall samples are delivered, and
  // everything generated either arrived or is bounded in flight.
  EXPECT_GT(rf.samples_delivered, 100u);
  EXPECT_LE(rf.samples_generated - rf.samples_delivered, 16u);
  // Pd does strictly less work during the run.
  EXPECT_LT(rf.pd_cpu_time_per_node_us, rh.pd_cpu_time_per_node_us);
}

TEST(Simulation, LatencySeriesRecordedOnDemand) {
  auto off = quick_now(2, 1);
  const auto r_off = run_simulation(off);
  EXPECT_TRUE(r_off.latency_series_us.empty());

  auto on = off;
  on.record_latency_series = true;
  const auto r_on = run_simulation(on);
  ASSERT_EQ(r_on.latency_series_us.size(), r_on.samples_delivered);
  // Series must agree with the streaming summary.
  const auto s = stats::summarize(r_on.latency_series_us);
  EXPECT_NEAR(s.mean(), r_on.latency_us.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(s.max(), r_on.latency_us.max());
}

TEST(Simulation, PerNodeBreakdownSumsToTotals) {
  auto c = quick_now(4, 8);
  const auto r = run_simulation(c);
  ASSERT_EQ(r.per_node.size(), 4u);
  double app = 0.0;
  double pd = 0.0;
  double main = 0.0;
  for (const auto& nb : r.per_node) {
    app += nb.app_cpu_us;
    pd += nb.pd_cpu_us;
    main += nb.main_cpu_us;
  }
  EXPECT_NEAR(app / 4.0, r.app_cpu_time_per_node_us, 1e-6);
  EXPECT_NEAR(pd / 4.0, r.pd_cpu_time_per_node_us, 1e-6);
  EXPECT_NEAR(main, r.main_cpu_time_us, 1e-6);
  // Main runs on node 0 only (no dedicated host here).
  EXPECT_GT(r.per_node[0].main_cpu_us, 0.0);
  EXPECT_DOUBLE_EQ(r.per_node[1].main_cpu_us, 0.0);
}

TEST(Simulation, DedicatedHostAppearsAsExtraBreakdownEntry) {
  auto c = quick_now(2, 1);
  c.main_on_dedicated_host = true;
  const auto r = run_simulation(c);
  ASSERT_EQ(r.per_node.size(), 3u);  // 2 worker nodes + main host
  EXPECT_DOUBLE_EQ(r.per_node[0].main_cpu_us, 0.0);
  EXPECT_GT(r.per_node[2].main_cpu_us, 0.0);
  EXPECT_DOUBLE_EQ(r.per_node[2].app_cpu_us, 0.0);
}

TEST(Simulation, WarmupExcludedFromAccounting) {
  auto c = quick_now(2, 1);
  c.sampling_period_us = 40'000.0;
  auto warm = c;
  warm.warmup_us = 1e6;  // half of the 2 s run
  const auto r0 = run_simulation(c);
  const auto rw = run_simulation(warm);
  // The measurement window halves, so absolute CPU times roughly halve...
  EXPECT_NEAR(rw.app_cpu_time_per_node_us, 0.5 * r0.app_cpu_time_per_node_us,
              0.1 * r0.app_cpu_time_per_node_us);
  EXPECT_LT(rw.samples_generated, r0.samples_generated);
  // ... while rates/utilizations stay comparable (stationary workload).
  EXPECT_NEAR(rw.app_cpu_util_pct, r0.app_cpu_util_pct, 5.0);
  EXPECT_NEAR(rw.throughput_samples_per_sec, r0.throughput_samples_per_sec, 10.0);
  EXPECT_DOUBLE_EQ(rw.duration_us, 1e6);
}

TEST(Simulation, WarmupValidation) {
  auto c = quick_now(2, 1);
  c.warmup_us = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.warmup_us = c.duration_us;  // must be strictly inside the run
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Simulation, TracingModeEmitsOneSamplePerCycle) {
  auto c = quick_now(2, 1);
  c.instrumentation_mode = InstrumentationMode::Tracing;
  c.sampling_period_us = 40'000.0;  // only used for flush pacing in tracing
  const auto r = run_simulation(c);
  // Cycles take ~2.4 ms, so tracing yields ~400 events/s/node — far more
  // than 40 ms sampling would (25/s/node).
  EXPECT_GT(r.samples_generated, 1000u);
  EXPECT_GT(r.samples_delivered, 0u);
}

TEST(Simulation, TracingCostsMoreThanSampling) {
  // The overhead motivation for Paradyn's sampling-based IS (Section 2):
  // per-event tracing multiplies the data volume and the direct overhead.
  auto sampling = quick_now(2, 1);
  sampling.sampling_period_us = 40'000.0;
  auto tracing = sampling;
  tracing.instrumentation_mode = InstrumentationMode::Tracing;
  const auto rs = run_simulation(sampling);
  const auto rt = run_simulation(tracing);
  EXPECT_GT(rt.samples_generated, 5 * rs.samples_generated);
  EXPECT_GT(rt.pd_cpu_time_per_node_us, 2.0 * rs.pd_cpu_time_per_node_us);
}

TEST(Simulation, IoBlockingReducesResourceUsage) {
  auto base = quick_now(2, 1);
  auto blocked = base;
  blocked.app.io_block_probability = 0.5;
  blocked.app.io_block_duration = std::make_shared<stats::Exponential>(5'000.0);
  const auto r0 = run_simulation(base);
  const auto r1 = run_simulation(blocked);
  EXPECT_LT(r1.app_cpu_util_pct, r0.app_cpu_util_pct);
}

TEST(Simulation, IoBlockConfigValidated) {
  auto c = quick_now(2, 1);
  c.app.io_block_probability = 0.5;  // duration missing
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.app.io_block_probability = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimulationMpp, TreeFlushBoundsEnRouteStaleness) {
  // En-route merged samples may wait at most ~one sampling period per hop
  // for the local batch to fill (the daemon's flush timer), so monitoring
  // latency through a depth-d tree is bounded by ~d * (period + service).
  auto tree = SystemConfig::mpp(16, ForwardingTopology::BinaryTree);
  tree.duration_us = 5e6;
  tree.sampling_period_us = 40'000.0;
  tree.batch_size = 32;  // a batch takes 1.28 s to fill locally
  const auto r = run_simulation(tree);
  ASSERT_GT(r.latency_us.count(), 0u);
  // Depth of a 16-node heap tree is 4; allow generous service slack.
  EXPECT_LT(r.latency_us.mean(), 4.0 * 2.0 * tree.sampling_period_us);
  // Without the flush, latency would be dominated by the 1.28 s batch
  // fill per hop.
  EXPECT_LT(r.latency_us.mean(), 1.28e6);
}

TEST(SimulationSmp, SharedPoolRunsAndDeliverseSamples) {
  auto c = SystemConfig::smp(4, 4, 1);
  c.duration_us = 2e6;
  c.sampling_period_us = 10'000.0;
  const auto r = run_simulation(c);
  EXPECT_GT(r.samples_delivered, 0u);
  EXPECT_GT(r.is_cpu_util_pct, 0.0);
}

TEST(SimulationSmp, MoreDaemonsHelpCfThroughputUnderLoad) {
  // Figure 21: under CF with many CPUs, a single serial daemon saturates;
  // adding daemons raises forwarding throughput.
  auto one = SystemConfig::smp(8, 8, 1);
  one.duration_us = 2e6;
  one.sampling_period_us = 500.0;  // heavy sample traffic
  one.batch_size = 1;
  auto four = one;
  four.daemons = 4;
  const auto r1 = run_simulation(one);
  const auto r4 = run_simulation(four);
  EXPECT_GT(r4.throughput_samples_per_sec, 1.2 * r1.throughput_samples_per_sec);
}

TEST(Simulation, ReplicationsVaryOnlyBySeed) {
  auto c = quick_now(2, 1);
  const auto results = run_replications(c, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_NE(results[0].app_cpu_time_per_node_us, results[1].app_cpu_time_per_node_us);
  // Re-running reproduces the same triple.
  const auto again = run_replications(c, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(results[i].app_cpu_time_per_node_us, again[i].app_cpu_time_per_node_us);
  }
}

// ------------------------------------------------------- property-style sweep

struct SweepCase {
  std::string name;
  Architecture arch;
  std::int32_t nodes;
  std::int32_t batch;
  ForwardingTopology topology;
};

// Print the case by name: gtest's default dumps the struct's bytes, heap
// pointers included, into the test name, which then differs run to run.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class SimulationInvariants : public ::testing::TestWithParam<SweepCase> {
 protected:
  static SystemConfig make(const SweepCase& p) {
    SystemConfig c = [&] {
      switch (p.arch) {
        case Architecture::Now:
          return SystemConfig::now(p.nodes);
        case Architecture::Smp:
          return SystemConfig::smp(p.nodes, p.nodes, 1);
        case Architecture::Mpp:
          return SystemConfig::mpp(p.nodes, p.topology);
      }
      return SystemConfig::now(p.nodes);
    }();
    c.batch_size = p.batch;
    c.duration_us = 1e6;
    c.sampling_period_us = 10'000.0;
    return c;
  }
};

TEST_P(SimulationInvariants, ConservationAndBounds) {
  const auto r = run_simulation(make(GetParam()));

  // Flow conservation: nothing is delivered that was not generated.
  EXPECT_LE(r.samples_delivered, r.samples_generated);
  // Batch integrity under direct forwarding: delivered samples arrive in
  // whole batches.  (Tree aggregation merges child samples into local
  // units, so delivered counts need not be batch multiples there.)
  if (GetParam().topology == ForwardingTopology::Direct) {
    if (GetParam().batch == 1) {
      EXPECT_EQ(r.batches_delivered, r.samples_delivered);
    } else {
      EXPECT_EQ(r.samples_delivered % static_cast<std::uint64_t>(GetParam().batch), 0u);
    }
  }
  // Latency recorded once per delivered sample.
  EXPECT_EQ(r.latency_us.count(), r.samples_delivered);
  if (r.samples_delivered > 0) {
    EXPECT_GT(r.latency_us.min(), 0.0);
  }

  // Utilization bounds.
  EXPECT_GE(r.app_cpu_util_pct, 0.0);
  EXPECT_LE(r.app_cpu_util_pct, 100.0 + 1e-9);
  EXPECT_GE(r.pd_cpu_util_pct, 0.0);
  EXPECT_LE(r.pd_cpu_util_pct, 100.0 + 1e-9);
  EXPECT_LE(r.app_cpu_util_pct + r.pd_cpu_util_pct, 100.0 + 1e-9);

  // CPU time identities.
  EXPECT_NEAR(r.app_cpu_util_pct, 100.0 * r.app_cpu_time_per_node_us / r.duration_us, 1e-6);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, InvariantsHoldForEverySeed) {
  auto c = quick_now(3, 8);
  c.seed = GetParam();
  const auto r = run_simulation(c);
  EXPECT_LE(r.samples_delivered, r.samples_generated);
  EXPECT_EQ(r.latency_us.count(), r.samples_delivered);
  EXPECT_GE(r.app_cpu_util_pct, 0.0);
  EXPECT_LE(r.app_cpu_util_pct + r.pd_cpu_util_pct, 100.0 + 1e-9);
  EXPECT_GT(r.samples_delivered, 0u);
  // Pd busy time is bounded below by the work actually delivered (collect
  // cost is part of every sample's path) and above by total capacity.
  EXPECT_GT(r.pd_cpu_time_per_node_us, 0.0);
  EXPECT_LT(r.pd_cpu_time_per_node_us, r.duration_us);
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 1234u, 99991u, 7777777u,
                                           0xDEADBEEFu, 0xFFFFFFFFFFFFFFFFull));

INSTANTIATE_TEST_SUITE_P(
    ArchitectureSweep, SimulationInvariants,
    ::testing::Values(SweepCase{"now_cf", Architecture::Now, 4, 1, ForwardingTopology::Direct},
                      SweepCase{"now_bf", Architecture::Now, 4, 16, ForwardingTopology::Direct},
                      SweepCase{"smp_cf", Architecture::Smp, 4, 1, ForwardingTopology::Direct},
                      SweepCase{"smp_bf", Architecture::Smp, 4, 16, ForwardingTopology::Direct},
                      SweepCase{"mpp_direct", Architecture::Mpp, 8, 8, ForwardingTopology::Direct},
                      SweepCase{"mpp_tree", Architecture::Mpp, 8, 8,
                                ForwardingTopology::BinaryTree}),
    [](const ::testing::TestParamInfo<SweepCase>& info) { return info.param.name; });

}  // namespace
}  // namespace paradyn::rocc
