#include "consultant/consultant.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "rocc/simulation.hpp"

namespace paradyn::consultant {
namespace {

rocc::Sample make_sample(std::int32_t node, double cpu, double comm,
                         std::int32_t process = 0) {
  rocc::Sample s;
  s.node = node;
  s.app_index = process;
  s.cpu_fraction = cpu;
  s.comm_fraction = comm;
  return s;
}

void feed(PerformanceConsultant& pc, std::int32_t node, double cpu, double comm, int n) {
  for (int i = 0; i < n; ++i) pc.observe(make_sample(node, cpu, comm));
}

TEST(Consultant, NoConclusionWithoutEvidence) {
  PerformanceConsultant pc;
  EXPECT_TRUE(pc.search().empty());
  feed(pc, 0, 0.99, 0.0, 3);  // below min_samples
  EXPECT_TRUE(pc.search().empty());
}

TEST(Consultant, DetectsGlobalCpuBound) {
  PerformanceConsultant pc;
  for (int node = 0; node < 4; ++node) feed(pc, node, 0.95, 0.02, 20);
  const auto findings = pc.search();
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().hypothesis, Hypothesis::CpuBound);
  EXPECT_TRUE(findings.front().focus.whole_program);
  EXPECT_GT(findings.front().observed, 0.9);
}

TEST(Consultant, RefinesToHotNode) {
  PerformanceConsultant pc;
  // Three cool nodes, one hot node: the global mean stays below the
  // threshold but the refinement must flag node 2.
  feed(pc, 0, 0.40, 0.05, 20);
  feed(pc, 1, 0.40, 0.05, 20);
  feed(pc, 3, 0.40, 0.05, 20);
  feed(pc, 2, 0.97, 0.01, 20);
  const auto findings = pc.search();
  bool found_node2 = false;
  for (const auto& f : findings) {
    if (f.hypothesis == Hypothesis::CpuBound && !f.focus.whole_program) {
      EXPECT_EQ(f.focus.node, 2);
      found_node2 = true;
    }
  }
  EXPECT_TRUE(found_node2);
}

TEST(Consultant, RefinesToHotProcessOnNode) {
  // Node 1 hosts two processes; process 3 is the culprit.  The search must
  // descend the hierarchy: node 1 flagged, then node 1 / process 3.
  PerformanceConsultant pc;
  for (int i = 0; i < 20; ++i) {
    pc.observe(make_sample(0, 0.40, 0.05, 0));
    pc.observe(make_sample(1, 0.99, 0.01, 3));
    pc.observe(make_sample(1, 0.80, 0.05, 4));
  }
  const auto findings = pc.search();
  bool node_level = false;
  bool process_level = false;
  for (const auto& f : findings) {
    if (f.hypothesis != Hypothesis::CpuBound || f.focus.whole_program) continue;
    if (f.focus.process < 0 && f.focus.node == 1) node_level = true;
    if (f.focus.process == 3 && f.focus.node == 1) {
      process_level = true;
      EXPECT_EQ(f.focus.describe(), "node 1 / process 3");
      EXPECT_NEAR(f.observed, 0.99, 1e-9);  // the process's windowed mean
    }
    EXPECT_NE(f.focus.process, 4);  // the well-behaved sibling stays unflagged
  }
  EXPECT_TRUE(node_level);
  EXPECT_TRUE(process_level);
}

TEST(Consultant, NoProcessRefinementForSingleProcessNodes) {
  // One process per node: the node focus already is the process; no
  // redundant process-level findings.
  PerformanceConsultant pc;
  for (int i = 0; i < 20; ++i) {
    pc.observe(make_sample(0, 0.40, 0.05, 0));
    pc.observe(make_sample(2, 0.97, 0.01, 0));
  }
  for (const auto& f : pc.search()) {
    EXPECT_LT(f.focus.process, 0);
  }
}

TEST(Consultant, DetectsSyncWaiting) {
  PerformanceConsultant pc;
  feed(pc, 0, 0.30, 0.10, 20);  // 60% of the interval blocked
  const auto findings = pc.search();
  bool sync = false;
  for (const auto& f : findings) {
    if (f.hypothesis != Hypothesis::SyncWaiting || !f.focus.whole_program) continue;
    sync = true;
    EXPECT_NEAR(f.observed, 0.6, 1e-9);  // the whole program's windowed mean
  }
  EXPECT_TRUE(sync);
}

TEST(Consultant, DetectsCommunicationBound) {
  PerformanceConsultant pc;
  feed(pc, 0, 0.45, 0.50, 20);
  const auto findings = pc.search();
  bool comm = false;
  for (const auto& f : findings) {
    if (f.hypothesis == Hypothesis::CommunicationBound) comm = true;
  }
  EXPECT_TRUE(comm);
}

TEST(Consultant, SlidingWindowForgetsOldPhases) {
  ConsultantConfig cfg;
  cfg.window = 16;
  PerformanceConsultant pc(cfg);
  feed(pc, 0, 0.99, 0.0, 16);  // phase 1: CPU bound
  EXPECT_GT(pc.node_mean(Hypothesis::CpuBound, 0), 0.9);
  feed(pc, 0, 0.10, 0.0, 16);  // phase 2: idle — window fully replaced
  EXPECT_LT(pc.node_mean(Hypothesis::CpuBound, 0), 0.2);
}

TEST(Consultant, ClampsOutOfRangeFractions) {
  PerformanceConsultant pc;
  feed(pc, 0, 1.7, -0.3, 10);  // scheduling jitter artifacts
  EXPECT_LE(pc.node_mean(Hypothesis::CpuBound, 0), 1.0);
  EXPECT_GE(pc.node_mean(Hypothesis::CommunicationBound, 0), 0.0);
}

TEST(Consultant, KnownNodesTracksFoci) {
  PerformanceConsultant pc;
  feed(pc, 3, 0.5, 0.1, 2);
  feed(pc, 7, 0.5, 0.1, 2);
  const auto nodes = pc.known_nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], 3);
  EXPECT_EQ(nodes[1], 7);
  EXPECT_EQ(pc.samples_observed(), 4u);
}

TEST(Consultant, EpisodeHistoryTracksWhen) {
  PerformanceConsultant pc;
  // Phase 1 (t = 0..1000): CPU bound.
  for (int i = 0; i < 20; ++i) {
    rocc::Sample s = make_sample(0, 0.95, 0.02);
    s.generated_at = i * 50.0;
    pc.observe(s);
  }
  auto findings = pc.search_and_record();
  ASSERT_FALSE(findings.empty());
  ASSERT_EQ(pc.history().size(), findings.size());
  EXPECT_DOUBLE_EQ(pc.history().front().first_confirmed_us, 950.0);
  EXPECT_EQ(pc.history().front().confirmations, 1u);

  // Phase 2 (t = 1000..3000): still CPU bound — same episode extends.
  for (int i = 0; i < 40; ++i) {
    rocc::Sample s = make_sample(0, 0.95, 0.02);
    s.generated_at = 1000.0 + i * 50.0;
    pc.observe(s);
  }
  (void)pc.search_and_record();
  const auto& e = pc.history().front();
  EXPECT_DOUBLE_EQ(e.first_confirmed_us, 950.0);
  EXPECT_DOUBLE_EQ(e.last_confirmed_us, 2950.0);
  EXPECT_EQ(e.confirmations, 2u);
  EXPECT_DOUBLE_EQ(pc.now(), 2950.0);
}

TEST(Consultant, HistoryEmptyWithoutConfirmations) {
  PerformanceConsultant pc;
  feed(pc, 0, 0.5, 0.1, 20);  // nothing above threshold but SyncWaiting=0.4
  (void)pc.search_and_record();
  // SyncWaiting exactly at threshold 0.40 confirms; adjust to stay below.
  PerformanceConsultant pc2;
  feed(pc2, 0, 0.6, 0.2, 20);  // wait = 0.2: all hypotheses false
  EXPECT_TRUE(pc2.search_and_record().empty());
  EXPECT_TRUE(pc2.history().empty());
}

TEST(Consultant, ToStringCoverage) {
  EXPECT_STREQ(to_string(Hypothesis::CpuBound), "CPUBound");
  EXPECT_STREQ(to_string(Hypothesis::CommunicationBound), "CommunicationBound");
  EXPECT_STREQ(to_string(Hypothesis::SyncWaiting), "SyncWaiting");
  EXPECT_EQ((Focus{true, -1}).describe(), "whole program");
  EXPECT_EQ((Focus{false, 5}).describe(), "node 5");
}

// ------------------------------------------------------ integration with rocc

TEST(ConsultantIntegration, LocatesSkewedNodeThroughTheIs) {
  auto cfg = rocc::SystemConfig::now(4);
  cfg.duration_us = 8e6;
  cfg.sampling_period_us = 40'000.0;
  cfg.batch_size = 4;
  cfg.barrier_every_cycles = 25;  // work-based SPMD iterations create skew
  cfg.main_on_dedicated_host = true;

  rocc::AppModel sick = cfg.app;
  sick.cpu_burst = std::make_shared<stats::Lognormal>(
      stats::Lognormal::from_mean_stddev(8852.0, 12136.0));
  cfg.app_overrides[2] = sick;

  rocc::Simulation sim(cfg);
  PerformanceConsultant pc;
  sim.main_process()->set_sample_sink([&pc](const rocc::Sample& s) { pc.observe(s); });
  (void)sim.run();

  EXPECT_GT(pc.samples_observed(), 100u);
  // The skewed node computes more than its barrier-bound peers.
  EXPECT_GT(pc.node_mean(Hypothesis::CpuBound, 2),
            pc.node_mean(Hypothesis::CpuBound, 0) + 0.1);
  // And the refinement names node 2 (and only node 2) as CPU-bound.
  const auto findings = pc.search();
  for (const auto& f : findings) {
    if (f.hypothesis == Hypothesis::CpuBound && !f.focus.whole_program) {
      EXPECT_EQ(f.focus.node, 2);
    }
  }
}

TEST(ConsultantIntegration, SampleMetricsAreSane) {
  auto cfg = rocc::SystemConfig::now(2);
  cfg.duration_us = 3e6;
  cfg.sampling_period_us = 20'000.0;

  rocc::Simulation sim(cfg);
  std::size_t count = 0;
  sim.main_process()->set_sample_sink([&](const rocc::Sample& s) {
    ++count;
    EXPECT_GE(s.cpu_fraction, 0.0);
    // Bursts are credited at completion, so a long burst finishing just
    // after a tick can push the raw fraction past 1 by up to
    // max_burst / interval; the consultant clamps on intake.
    EXPECT_LE(s.cpu_fraction, 3.0);
    EXPECT_GE(s.comm_fraction, 0.0);
    EXPECT_GE(s.node, 0);
    EXPECT_LT(s.node, 2);
  });
  const auto r = sim.run();
  EXPECT_EQ(count, r.samples_delivered);
}

}  // namespace
}  // namespace paradyn::consultant
