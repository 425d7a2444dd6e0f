#include "stats/confidence.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "des/random.hpp"
#include "stats/distributions.hpp"

namespace paradyn::stats {
namespace {

TEST(ConfidenceInterval, KnownSmallSample) {
  // {1,2,3,4,5}: mean 3, s = sqrt(2.5), n = 5, t_{0.95,4} = 2.131847.
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto ci = mean_confidence_interval(data, 0.90);
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.half_width, 2.131847 * std::sqrt(2.5) / std::sqrt(5.0), 1e-5);
  EXPECT_TRUE(ci.contains(3.0));
  EXPECT_NEAR(ci.lower() + ci.upper(), 2.0 * ci.mean, 1e-12);
}

TEST(ConfidenceInterval, HigherLevelIsWider) {
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  const auto ci90 = mean_confidence_interval(data, 0.90);
  const auto ci99 = mean_confidence_interval(data, 0.99);
  EXPECT_GT(ci99.half_width, ci90.half_width);
}

TEST(ConfidenceInterval, Validation) {
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)mean_confidence_interval(one, 0.9), std::invalid_argument);
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW((void)mean_confidence_interval(two, 0.0), std::invalid_argument);
  EXPECT_THROW((void)mean_confidence_interval(two, 1.0), std::invalid_argument);
}

TEST(ConfidenceInterval, RelativeHalfWidth) {
  const std::vector<double> data{10.0, 10.0, 10.0, 10.0};
  const auto ci = mean_confidence_interval(data, 0.90);
  EXPECT_DOUBLE_EQ(ci.half_width / std::fabs(ci.mean), 0.0);  // zero variance
}

TEST(ConfidenceInterval, CoverageNearNominal) {
  // Repeated experiment: 90% CI on the mean of Exponential(100) with n=50
  // (the paper's replication count) should cover the true mean ~90% of the
  // time.
  Exponential truth(100.0);
  des::RngStream rng(99, 1);
  int covered = 0;
  constexpr int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> sample;
    for (int i = 0; i < 50; ++i) sample.push_back(truth.sample(rng));
    if (mean_confidence_interval(sample, 0.90).contains(100.0)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GT(coverage, 0.85);
  EXPECT_LT(coverage, 0.95);
}

}  // namespace
}  // namespace paradyn::stats
