#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "rocc/config.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::obs {
namespace {

TEST(Histogram, ExactMomentsAndBoundedPercentiles) {
  Histogram h;
  for (const double v : {1.0, 2.0, 4.0, 8.0, 16.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 31.0);
  EXPECT_DOUBLE_EQ(h.mean(), 6.2);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 16.0);
  // Power-of-two buckets: estimates within a factor of ~1.5, clamped to
  // the observed range, and monotone in p.
  const double p50 = h.percentile(0.5);
  const double p90 = h.percentile(0.9);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p90, h.max());
  EXPECT_LE(p50, p90);
  EXPECT_NEAR(p50, 4.0, 4.0 * 0.5);
}

TEST(Histogram, LogLinearSubBucketsBoundRelativeError) {
  // 16 linear sub-buckets per power of two cap the quantization error of a
  // bucketed value at one sub-bucket width: 1/16 of the bucket's base, i.e.
  // ~6.25% of the value.  Check across five decades.
  for (const double v : {3.0, 97.0, 1000.0, 123456.0, 9.9e6}) {
    Histogram h;
    for (int i = 0; i < 100; ++i) h.observe(v);
    for (const double p : {0.25, 0.5, 0.99}) {
      EXPECT_NEAR(h.percentile(p), v, v * (1.0 / 16.0 + 1e-9)) << "v=" << v << " p=" << p;
    }
  }
  // A two-point distribution's median must land on a real observation's
  // sub-bucket, not between the two modes.
  Histogram bimodal;
  for (int i = 0; i < 75; ++i) bimodal.observe(100.0);
  for (int i = 0; i < 25; ++i) bimodal.observe(10'000.0);
  EXPECT_NEAR(bimodal.percentile(0.5), 100.0, 100.0 / 16.0 + 1e-9);
  EXPECT_NEAR(bimodal.percentile(0.9), 10'000.0, 10'000.0 / 16.0 + 1e-9);
}

TEST(Histogram, EmptyIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(MetricsRegistry, SampleRecordsProbesCountersAndGauges) {
  // Counters and gauges are probes too: one reads a running total, the
  // other the last value written.
  MetricsRegistry reg;
  double probe_value = 1.0;
  std::uint64_t events = 0;
  double depth = 0.0;
  reg.add_probe("probe", [&probe_value] { return probe_value; });
  reg.add_probe("events", [&events] { return static_cast<double>(events); });
  reg.add_probe("depth", [&depth] { return depth; });

  events += 10;
  depth = 2.0;
  reg.sample(0.0);
  probe_value = 5.0;
  events += 10;
  depth = 4.0;
  reg.sample(100.0);

  ASSERT_EQ(reg.rows(), 2u);
  const auto& cols = reg.column_names();
  const auto col = [&](const std::string& name) {
    const auto it = std::find(cols.begin(), cols.end(), name);
    EXPECT_NE(it, cols.end()) << name;
    return static_cast<std::size_t>(it - cols.begin());
  };
  const auto [t0, row0] = reg.row(0);
  const auto [t1, row1] = reg.row(1);
  EXPECT_DOUBLE_EQ(t0, 0.0);
  EXPECT_DOUBLE_EQ(t1, 100.0);
  EXPECT_DOUBLE_EQ(row0->at(col("probe")), 1.0);
  EXPECT_DOUBLE_EQ(row1->at(col("probe")), 5.0);
  // Counter columns are cumulative, hence monotone.
  EXPECT_DOUBLE_EQ(row0->at(col("events")), 10.0);
  EXPECT_DOUBLE_EQ(row1->at(col("events")), 20.0);
  EXPECT_DOUBLE_EQ(row1->at(col("depth")), 4.0);
}

TEST(MetricsRegistry, CsvHasHeaderAndOneLinePerRow) {
  MetricsRegistry reg;
  reg.add_probe("queue", [] { return 1.5; });
  reg.sample(0.0);
  reg.sample(50.0);

  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv, "time_us,queue\n0.000,1.5\n50.000,1.5\n");
}

TEST(MetricsRegistry, SimulationProbesTickOnSimulatedTime) {
  // enable_metrics(registry, tick) must sample at t = 0, tick, 2*tick, ...
  // in *simulated* microseconds, aligned regardless of event activity.
  auto cfg = rocc::SystemConfig::now(2);
  cfg.duration_us = 0.2e6;
  cfg.sampling_period_us = 10'000.0;
  constexpr double kTickUs = 25'000.0;

  MetricsRegistry reg;
  rocc::Simulation sim(cfg);
  sim.enable_metrics(reg, kTickUs);
  const auto result = sim.run();
  EXPECT_GT(result.samples_delivered, 0u);

  ASSERT_GE(reg.rows(), static_cast<std::size_t>(cfg.duration_us / kTickUs));
  for (std::size_t i = 0; i < reg.rows(); ++i) {
    const auto [t, values] = reg.row(i);
    EXPECT_DOUBLE_EQ(t, static_cast<double>(i) * kTickUs);
    EXPECT_EQ(values->size(), reg.column_names().size());
  }

  // The standard probes are registered and the counter-like ones are
  // monotone non-decreasing over simulated time.
  const auto& cols = reg.column_names();
  for (const char* name : {"engine.events_processed", "samples.generated", "samples.delivered",
                           "net.busy_frac", "pipe.occupancy_total"}) {
    EXPECT_NE(std::find(cols.begin(), cols.end(), name), cols.end()) << name;
  }
  for (const char* name : {"engine.events_processed", "samples.generated", "samples.delivered"}) {
    const auto it = std::find(cols.begin(), cols.end(), name);
    ASSERT_NE(it, cols.end());
    const auto idx = static_cast<std::size_t>(it - cols.begin());
    double prev = -1.0;
    for (std::size_t i = 0; i < reg.rows(); ++i) {
      const double v = reg.row(i).second->at(idx);
      EXPECT_GE(v, prev) << name << " at row " << i;
      prev = v;
    }
    EXPECT_GT(prev, 0.0) << name;
  }
}

}  // namespace
}  // namespace paradyn::obs
