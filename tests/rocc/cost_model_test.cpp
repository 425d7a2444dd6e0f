// Tests of the adaptive cost model (Paradyn's dynamic cost model,
// reference [12]): the controller must throttle the sampling rate when the
// IS exceeds its overhead budget, speed up when far under it, stay inside
// its period bounds, and remain stable at an admissible operating point.
#include "rocc/cost_model.hpp"

#include <gtest/gtest.h>

#include "rocc/simulation.hpp"

namespace paradyn::rocc {
namespace {

SystemConfig adaptive_config(double budget_pct, double initial_period_us) {
  auto c = SystemConfig::now(4);
  c.duration_us = 10e6;
  c.sampling_period_us = initial_period_us;
  c.regulator.scope = RegulatorScope::Global;
  c.regulator.budget_pct = budget_pct;
  c.regulator.adjust_interval_us = 250'000.0;
  c.regulator.min_period_us = 500.0;
  c.regulator.max_period_us = 500'000.0;
  c.main_on_dedicated_host = false;
  return c;
}

TEST(CostModel, ThrottlesWhenOverBudget) {
  // 1 ms sampling on 4 nodes blows a 1% budget; the controller must grow
  // the period substantially and cut the IS's total CPU consumption
  // relative to the unregulated run.  (Measured overhead can stay elevated
  // for a while after convergence: the serialized main process still
  // drains the early flood's backlog — queued work the regulator cannot
  // undo, only stop adding to.)
  auto adaptive = adaptive_config(1.0, 1'000.0);
  auto fixed = adaptive;
  fixed.regulator.scope = RegulatorScope::Off;
  const auto ra = run_simulation(adaptive);
  const auto rf = run_simulation(fixed);

  EXPECT_GT(ra.final_sampling_period_us, 10'000.0);
  ASSERT_FALSE(ra.cost_adjustments.empty());
  // The period trajectory is non-decreasing while over budget.
  EXPECT_GE(ra.cost_adjustments.back().new_period_us,
            ra.cost_adjustments.front().new_period_us);
  // Regulation cuts the sample volume and the direct IS cost by a lot.
  EXPECT_LT(static_cast<double>(ra.samples_generated),
            0.3 * static_cast<double>(rf.samples_generated));
  EXPECT_LT(ra.pd_cpu_time_per_node_us, 0.5 * rf.pd_cpu_time_per_node_us);
  // And the application gets the CPU back.
  EXPECT_GT(ra.app_cpu_util_pct, rf.app_cpu_util_pct);
}

TEST(CostModel, SpeedsUpWhenUnderBudget) {
  // 200 ms sampling under a generous 20% budget: the controller should walk
  // the period down toward the minimum.
  auto c = adaptive_config(20.0, 200'000.0);
  const auto r = run_simulation(c);
  EXPECT_LT(r.final_sampling_period_us, 50'000.0);
}

TEST(CostModel, RespectsPeriodBounds) {
  // Impossible budget: even the max period cannot get under 0.0001%; the
  // controller must stop at the bound, not run away.
  auto c = adaptive_config(0.0001, 1'000.0);
  const auto r = run_simulation(c);
  EXPECT_LE(r.final_sampling_period_us, c.regulator.max_period_us + 1e-9);
  // And a huge budget pins at the minimum.
  auto fast = adaptive_config(95.0, 100'000.0);
  const auto rf = run_simulation(fast);
  EXPECT_GE(rf.final_sampling_period_us, fast.regulator.min_period_us - 1e-9);
}

TEST(CostModel, AdjustmentLogIsComplete) {
  auto c = adaptive_config(1.0, 10'000.0);
  const auto r = run_simulation(c);
  // 10 s run / 250 ms interval = ~40 adjustments.
  EXPECT_NEAR(static_cast<double>(r.cost_adjustments.size()), 40.0, 2.0);
  for (const auto& adj : r.cost_adjustments) {
    EXPECT_GE(adj.observed_overhead_pct, 0.0);
    EXPECT_GE(adj.new_period_us, c.regulator.min_period_us);
    EXPECT_LE(adj.new_period_us, c.regulator.max_period_us);
  }
}

TEST(CostModel, DisabledMeansNoController) {
  auto c = adaptive_config(1.0, 10'000.0);
  c.regulator.scope = RegulatorScope::Off;
  const auto r = run_simulation(c);
  EXPECT_DOUBLE_EQ(r.final_sampling_period_us, 0.0);
  EXPECT_TRUE(r.cost_adjustments.empty());
}

TEST(CostModel, ControllerValidation) {
  // Regulator settings are checked with the rest of the configuration,
  // before anything is built.
  auto c = adaptive_config(1.0, 10'000.0);
  EXPECT_NO_THROW(c.validate());

  auto bad = c;
  bad.regulator.budget_pct = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.regulator.scope = RegulatorScope::PerDaemon;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.regulator.scope = RegulatorScope::Off;
  EXPECT_NO_THROW(bad.validate());
  bad = c;
  bad.regulator.adjust_interval_us = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = c;
  bad.regulator.min_period_us = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = c;
  bad.regulator.max_period_us = bad.regulator.min_period_us / 2.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // The global scope's interval and bounds do not apply per daemon.
  bad.regulator.scope = RegulatorScope::PerDaemon;
  EXPECT_NO_THROW(bad.validate());
}

TEST(CostModel, InitialPeriodClampedIntoBounds) {
  des::Engine engine;
  CpuResource cpu(engine, 1, 10'000.0);
  RegulatorConfig cfg;
  cfg.scope = RegulatorScope::Global;
  cfg.min_period_us = 5'000.0;
  cfg.max_period_us = 50'000.0;
  SamplingRegulator low(engine, cfg, 1.0);
  EXPECT_DOUBLE_EQ(low.period_us(low.add_domain({&cpu}, 1.0, 1.0)), 5'000.0);
  SamplingRegulator high(engine, cfg, 1e9);
  EXPECT_DOUBLE_EQ(high.period_us(high.add_domain({&cpu}, 1.0, 1.0)), 50'000.0);
  // Per daemon, the bounds are [SP, 16 SP]: every domain starts at SP.
  cfg.scope = RegulatorScope::PerDaemon;
  SamplingRegulator per_daemon(engine, cfg, 1.0);
  EXPECT_DOUBLE_EQ(per_daemon.period_us(per_daemon.add_domain({&cpu}, 1.0, 1.0)), 1.0);
}

}  // namespace
}  // namespace paradyn::rocc
