#include "stats/timeseries.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "des/random.hpp"

namespace paradyn::stats {
namespace {

std::vector<double> iid_series(std::size_t n, std::uint64_t seed) {
  des::RngStream rng(seed, 1);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.next_double());
  return out;
}

/// AR(1) process x_t = phi x_{t-1} + e_t: lag-k autocorrelation is phi^k.
std::vector<double> ar1_series(std::size_t n, double phi, std::uint64_t seed) {
  des::RngStream rng(seed, 2);
  std::vector<double> out;
  out.reserve(n);
  double x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x = phi * x + (rng.next_double() - 0.5);
    out.push_back(x);
  }
  return out;
}

TEST(Autocorrelation, LagZeroIsOne) {
  const auto s = iid_series(100, 1);
  EXPECT_DOUBLE_EQ(autocorrelation(s, 0), 1.0);
}

TEST(Autocorrelation, IidSeriesNearZero) {
  const auto s = iid_series(50'000, 2);
  for (const std::size_t lag : {1u, 2u, 5u}) {
    EXPECT_NEAR(autocorrelation(s, lag), 0.0, 0.02) << "lag " << lag;
  }
}

TEST(Autocorrelation, Ar1MatchesTheory) {
  const double phi = 0.8;
  const auto s = ar1_series(100'000, phi, 3);
  EXPECT_NEAR(autocorrelation(s, 1), phi, 0.02);
  EXPECT_NEAR(autocorrelation(s, 2), phi * phi, 0.03);
  EXPECT_NEAR(autocorrelation(s, 4), std::pow(phi, 4), 0.04);
}

TEST(Autocorrelation, Validation) {
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_THROW((void)autocorrelation(tiny, 2), std::invalid_argument);
  const std::vector<double> constant{3.0, 3.0, 3.0};
  EXPECT_THROW((void)autocorrelation(constant, 1), std::invalid_argument);
}

TEST(Autocorrelations, ReturnsRequestedLags) {
  const auto s = ar1_series(10'000, 0.5, 4);
  std::vector<double> acf;
  for (std::size_t lag = 1; lag <= 5; ++lag) acf.push_back(autocorrelation(s, lag));
  for (std::size_t k = 1; k < acf.size(); ++k) {
    EXPECT_LT(std::fabs(acf[k]), std::fabs(acf[k - 1]) + 0.05);  // decaying
  }
}

TEST(BatchMeans, PartitionsAndAverages) {
  std::vector<double> s;
  for (int i = 0; i < 100; ++i) s.push_back(static_cast<double>(i));
  const auto result = batch_means(s, 10);
  EXPECT_EQ(result.batch_count, 10u);
  EXPECT_EQ(result.batch_size, 10u);
  EXPECT_DOUBLE_EQ(result.batch_means[0], 4.5);
  EXPECT_DOUBLE_EQ(result.batch_means[9], 94.5);
  EXPECT_NEAR(result.ci.mean, 49.5, 1e-9);
}

TEST(BatchMeans, DropsRemainder) {
  std::vector<double> s(103, 1.0);
  const auto result = batch_means(s, 10);
  EXPECT_EQ(result.batch_size, 10u);  // 3 observations dropped
}

TEST(BatchMeans, Validation) {
  std::vector<double> s(10, 1.0);
  EXPECT_THROW((void)batch_means(s, 1), std::invalid_argument);
  EXPECT_THROW((void)batch_means(s, 20), std::invalid_argument);
}

TEST(BatchMeans, CorrelatedSeriesWidensIntervalVsNaive) {
  // The naive IID interval on an AR(1) series is too narrow; batch means
  // with few large batches must be wider.
  const auto s = ar1_series(20'000, 0.9, 5);
  const auto naive = mean_confidence_interval(s, 0.90);
  const auto batched = batch_means(s, 20, 0.90);
  EXPECT_GT(batched.ci.half_width, 2.0 * naive.half_width);
}

TEST(BatchMeans, IndependenceHeuristic) {
  // Large batches of an AR(1) process decorrelate...
  const auto s = ar1_series(50'000, 0.7, 6);
  const auto good = batch_means(s, 10);
  EXPECT_LT(std::fabs(good.lag1_of_batch_means), 0.5);
  // ... while tiny batches stay correlated.
  const auto bad = batch_means(s, 10'000);
  EXPECT_GE(std::fabs(bad.lag1_of_batch_means), 0.2);
}

}  // namespace
}  // namespace paradyn::stats
