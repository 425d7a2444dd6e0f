#include "stats/special_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace paradyn::stats {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963984540054), 0.025, 1e-9);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-10);
}

TEST(NormalQuantile, InvertsCdf) {
  for (const double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.95), 1.6448536269514722, 1e-9);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
}

TEST(NormalQuantile, RejectsOutOfDomain) {
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(-0.5), std::invalid_argument);
}

TEST(RegularizedBeta, SymmetryAndEdges) {
  EXPECT_DOUBLE_EQ(regularized_beta(0.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_beta(1.0, 2.0, 3.0), 1.0);
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (const double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(regularized_beta(x, 2.0, 5.0), 1.0 - regularized_beta(1.0 - x, 5.0, 2.0), 1e-12);
  }
  // I_x(1,1) = x.
  EXPECT_NEAR(regularized_beta(0.42, 1.0, 1.0), 0.42, 1e-12);
}

TEST(StudentT, CdfSymmetricAboutZero) {
  for (const double df : {1.0, 5.0, 30.0}) {
    EXPECT_NEAR(student_t_cdf(0.0, df), 0.5, 1e-12);
    for (const double t : {0.5, 1.0, 2.0}) {
      EXPECT_NEAR(student_t_cdf(t, df) + student_t_cdf(-t, df), 1.0, 1e-12);
    }
  }
}

TEST(StudentT, QuantileMatchesClassicTables) {
  // Two-sided 90% CI critical values t_{0.95, df}.
  EXPECT_NEAR(student_t_quantile(0.95, 4.0), 2.131846786, 1e-6);
  EXPECT_NEAR(student_t_quantile(0.95, 9.0), 1.833112933, 1e-6);
  EXPECT_NEAR(student_t_quantile(0.95, 49.0), 1.676550893, 1e-6);
  // 97.5% values.
  EXPECT_NEAR(student_t_quantile(0.975, 10.0), 2.228138852, 1e-6);
}

TEST(StudentT, QuantileApproachesNormalForLargeDf) {
  EXPECT_NEAR(student_t_quantile(0.975, 1e6), normal_quantile(0.975), 1e-4);
}

TEST(StudentT, QuantileInvertsCdf) {
  for (const double df : {3.0, 12.0, 60.0}) {
    for (const double p : {0.05, 0.25, 0.5, 0.8, 0.99}) {
      EXPECT_NEAR(student_t_cdf(student_t_quantile(p, df), df), p, 1e-9);
    }
  }
}

}  // namespace
}  // namespace paradyn::stats
