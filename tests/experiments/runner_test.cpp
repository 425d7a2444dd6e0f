#include "experiments/runner.hpp"

#include <gtest/gtest.h>

#include <string>

namespace paradyn::experiments {
namespace {

rocc::SystemConfig tiny_config() {
  auto c = rocc::SystemConfig::now(2);
  c.duration_us = 0.5e6;
  c.sampling_period_us = 20'000.0;
  return c;
}

TEST(ReplicationSet, ComputesConfidenceIntervals) {
  const ReplicationSet reps(tiny_config(), 5);
  ASSERT_EQ(reps.results().size(), 5u);
  const auto ci = reps.metric(pd_cpu_time_sec, 0.90);
  EXPECT_GT(ci.mean, 0.0);
  EXPECT_GE(ci.half_width, 0.0);
  EXPECT_DOUBLE_EQ(ci.level, 0.90);
  double sum = 0.0;
  for (const auto& r : reps.results()) sum += pd_cpu_time_sec(r);
  EXPECT_NEAR(sum / 5.0, ci.mean, 1e-12);  // the plain mean of the runs
}

TEST(ReplicationSet, SingleReplicationDegenerateInterval) {
  // roccsweep defaults to --reps 1; metric() must not throw but return a
  // zero-width interval around the single observation.
  const ReplicationSet reps(tiny_config(), 1);
  const auto ci = reps.metric(pd_cpu_time_sec, 0.90);
  EXPECT_GT(ci.mean, 0.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
  EXPECT_DOUBLE_EQ(ci.level, 0.90);
  EXPECT_DOUBLE_EQ(ci.mean, pd_cpu_time_sec(reps.results().front()));
}

TEST(ReplicationSet, ZeroReplicationsThrowsBeforeRunning) {
  // Validation must fire before any simulation work; an invalid config and
  // zero replications still reports the replication error.
  auto bad = tiny_config();
  bad.sampling_period_us = -1.0;
  try {
    const ReplicationSet reps(bad, 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("replications"), std::string::npos);
  }
}

TEST(ReplicationSet, ReplicationsDiffer) {
  const ReplicationSet reps(tiny_config(), 3);
  const auto& r = reps.results();
  EXPECT_NE(r[0].app_cpu_time_per_node_us, r[1].app_cpu_time_per_node_us);
}

TEST(FactorialExperiment, RunsAllCells) {
  std::vector<Factor> factors{
      {"sampling_period", "40ms", "10ms",
       [](rocc::SystemConfig& c, bool high) { c.sampling_period_us = high ? 10'000.0 : 40'000.0; }},
      {"policy", "CF", "BF",
       [](rocc::SystemConfig& c, bool high) { c.batch_size = high ? 32 : 1; }},
  };
  const FactorialExperiment exp(tiny_config(), factors, 2);
  EXPECT_EQ(exp.cells().size(), 4u);
  EXPECT_EQ(exp.replications(), 2u);
  for (const auto& cell : exp.cells()) {
    EXPECT_EQ(cell.runs.size(), 2u);
    EXPECT_GT(cell.mean(pd_cpu_time_sec), 0.0);
  }
  // Cell 0b01 has the sampling-period factor high (10 ms).
  EXPECT_DOUBLE_EQ(exp.cells()[1].config.sampling_period_us, 10'000.0);
  EXPECT_EQ(exp.cells()[2].config.batch_size, 32);
}

TEST(FactorialExperiment, AnalysisFindsDominantFactor) {
  // Sampling period dominates Pd CPU time (the paper's Figure 16 finding);
  // with only these two factors the sampling period must explain more
  // variation than its interaction with the policy.
  std::vector<Factor> factors{
      {"sampling_period", "40ms", "5ms",
       [](rocc::SystemConfig& c, bool high) { c.sampling_period_us = high ? 5'000.0 : 40'000.0; }},
      {"policy", "CF", "BF",
       [](rocc::SystemConfig& c, bool high) { c.batch_size = high ? 32 : 1; }},
  };
  auto base = tiny_config();
  base.duration_us = 1e6;
  const FactorialExperiment exp(base, factors, 3);
  const auto analysis = exp.analyze(pd_cpu_time_sec);
  const auto& period = analysis.effect("A");
  const auto& interaction = analysis.effect("AB");
  EXPECT_GT(period.variation_fraction, interaction.variation_fraction);
  EXPECT_GT(period.variation_fraction, 0.3);
}

TEST(FactorialExperiment, Validation) {
  EXPECT_THROW(FactorialExperiment(tiny_config(), {}, 2), std::invalid_argument);
  std::vector<Factor> one{{"a", "lo", "hi", [](rocc::SystemConfig&, bool) {}}};
  EXPECT_THROW(FactorialExperiment(tiny_config(), one, 0), std::invalid_argument);
}

// Two variants of tiny_config() swept over the sampling period.
rocc::SystemConfig sweep_point(double sp_ms, std::size_t variant) {
  auto c = tiny_config();
  c.sampling_period_us = sp_ms * 1'000.0;
  c.batch_size = variant == 0 ? 1 : 8;
  return c;
}

TEST(Sweep, MeansMatchAReplicationSetPerPointBitForBit) {
  const std::vector<double> xs{10, 40};
  for (const std::size_t jobs : {1u, 4u}) {
    const Sweep sweep(xs, {"CF", "BF(8)"}, sweep_point, 2, jobs);
    for (const auto& panel : paper_panels()) {
      const auto means = sweep.means(panel.metric);
      ASSERT_EQ(means.size(), 2u);
      for (std::size_t v = 0; v < 2; ++v) {
        ASSERT_EQ(means[v].size(), xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
          const ReplicationSet point(sweep_point(xs[i], v), 2, 1);
          EXPECT_EQ(means[v][i], point.metric(panel.metric).mean)
              << panel.title << " jobs " << jobs;
        }
      }
    }
    EXPECT_EQ(sweep.runs().size(), 8u);
    EXPECT_EQ(sweep.report().runs, 8u);
  }
}

TEST(Sweep, RejectsZeroReplicationsAndUnequalSeeds) {
  EXPECT_THROW(Sweep({10}, {"CF"}, sweep_point, 0), std::invalid_argument);
  const auto seeded = [](double sp_ms, std::size_t variant) {
    auto c = sweep_point(sp_ms, variant);
    c.seed = 1 + variant;
    return c;
  };
  EXPECT_THROW(Sweep({10}, {"CF", "BF(8)"}, seeded, 1), std::invalid_argument);
}

TEST(MetricExtractors, MatchResultFields) {
  rocc::SimulationResult r;
  r.pd_cpu_time_per_node_us = 2e6;
  r.main_cpu_time_us = 4e6;
  r.nodes = 2;
  r.cpus_per_node = 1;
  r.throughput_samples_per_sec = 123.0;
  EXPECT_DOUBLE_EQ(pd_cpu_time_sec(r), 2.0);
  EXPECT_DOUBLE_EQ(is_cpu_time_sec(r), 4.0);  // 2 + 4/2
  EXPECT_DOUBLE_EQ(throughput(r), 123.0);
  r.latency_us.add(1500.0);
  EXPECT_DOUBLE_EQ(latency_ms(r), 1.5);
}

}  // namespace
}  // namespace paradyn::experiments
