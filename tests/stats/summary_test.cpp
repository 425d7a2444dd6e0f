#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "des/random.hpp"

namespace paradyn::stats {
namespace {

TEST(SummaryStats, EmptyIsZero) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SummaryStats, SinglePoint) {
  SummaryStats s;
  s.add(7.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 7.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(SummaryStats, KnownSmallSample) {
  // Data {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sample variance 32/7.
  SummaryStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStats, NumericallyStableAroundLargeOffset) {
  SummaryStats s;
  const double offset = 1e12;
  for (const double x : {offset + 1.0, offset + 2.0, offset + 3.0}) s.add(x);
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0, 1e-3);
}

TEST(Histogram, CountsAndDensity) {
  Histogram h(0.0, 10.0, 5);
  for (const double x : {0.5, 1.5, 1.6, 3.0, 9.9}) h.add(x);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 3u);  // bin width 2: [0,2) holds 0.5, 1.5, 1.6
  EXPECT_EQ(h.count(1), 1u);  // [2,4) holds 3.0
  EXPECT_EQ(h.count(4), 1u);  // [8,10) holds 9.9
  EXPECT_EQ(h.bin_count(), 5u);
  double mass = 0.0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) mass += h.density(b) * h.bin_width();
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(Histogram, BinAssignmentAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);  // clamped into first bin
  h.add(100.0);   // clamped into last bin
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
  EXPECT_THROW((void)h.bin_center(5), std::out_of_range);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(EmpiricalQuantile, InterpolatesSortedData) {
  const std::vector<double> data{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(empirical_quantile(data, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(data, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(empirical_quantile(data, 0.5), 25.0);
  EXPECT_NEAR(empirical_quantile(data, 1.0 / 3.0), 20.0, 1e-12);
}

TEST(EmpiricalQuantile, Validation) {
  const std::vector<double> empty;
  EXPECT_THROW((void)empirical_quantile(empty, 0.5), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)empirical_quantile(one, 1.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(empirical_quantile(one, 0.5), 1.0);
}

TEST(QqPlot, PerfectFitLiesOnDiagonal) {
  // Data sampled exactly at the quantiles of the distribution itself.
  Exponential e(100.0);
  std::vector<double> data;
  for (int i = 0; i < 2000; ++i) {
    data.push_back(e.quantile((i + 0.5) / 2000.0));
  }
  const auto points = qq_plot(data, e, 40);
  ASSERT_EQ(points.size(), 40u);
  EXPECT_LT(qq_deviation(points), 0.01);
}

TEST(QqPlot, WrongFamilyDeviates) {
  // Lognormal data against an exponential model should bend away from y=x.
  const auto ln = Lognormal::from_mean_stddev(100.0, 300.0);
  std::vector<double> data;
  des::RngStream rng(17, 1);
  for (int i = 0; i < 5000; ++i) data.push_back(ln.sample(rng));
  Exponential wrong(100.0);
  const auto points = qq_plot(data, wrong, 40);
  EXPECT_GT(qq_deviation(points), 0.2);
}

TEST(QqPlot, Validation) {
  Exponential e(1.0);
  const std::vector<double> empty;
  EXPECT_THROW((void)qq_plot(empty, e), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)qq_plot(one, e, 0), std::invalid_argument);
}

}  // namespace
}  // namespace paradyn::stats
