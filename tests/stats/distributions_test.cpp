#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "des/random.hpp"
#include "stats/summary.hpp"
#include "support/hash_label.hpp"

namespace paradyn::stats {
namespace {

// ----------------------------------------------------------------- unit tests

TEST(Exponential, Moments) {
  Exponential e(223.0);
  EXPECT_DOUBLE_EQ(e.mean(), 223.0);
  EXPECT_DOUBLE_EQ(e.variance(), 223.0 * 223.0);
  EXPECT_DOUBLE_EQ(e.stddev(), 223.0);
}

TEST(Exponential, PdfCdfKnownValues) {
  Exponential e(1.0);
  EXPECT_NEAR(e.pdf(0.0), 1.0, 1e-12);
  EXPECT_NEAR(e.pdf(1.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(e.cdf(1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(e.cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(e.pdf(-1.0), 0.0);
}

TEST(Exponential, RejectsNonPositiveMean) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(Lognormal, FromMeanStddevRoundTrips) {
  const auto ln = Lognormal::from_mean_stddev(2213.0, 3034.0);
  EXPECT_NEAR(ln.mean(), 2213.0, 1e-6);
  EXPECT_NEAR(ln.stddev(), 3034.0, 1e-6);
}

TEST(Lognormal, MedianIsExpMu) {
  Lognormal ln(1.5, 0.75);
  EXPECT_NEAR(ln.quantile(0.5), std::exp(1.5), 1e-9);
  EXPECT_NEAR(ln.cdf(std::exp(1.5)), 0.5, 1e-12);
}

TEST(Lognormal, PdfZeroBelowSupport) {
  Lognormal ln(0.0, 1.0);
  EXPECT_DOUBLE_EQ(ln.pdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ln.pdf(-3.0), 0.0);
  EXPECT_DOUBLE_EQ(ln.cdf(0.0), 0.0);
}

TEST(Weibull, ShapeOneIsExponential) {
  Weibull w(1.0, 200.0);
  Exponential e(200.0);
  for (const double x : {1.0, 50.0, 200.0, 1000.0}) {
    EXPECT_NEAR(w.pdf(x), e.pdf(x), 1e-12);
    EXPECT_NEAR(w.cdf(x), e.cdf(x), 1e-12);
  }
  EXPECT_NEAR(w.mean(), 200.0, 1e-9);
}

TEST(Weibull, MomentsAgainstGammaFormulas) {
  Weibull w(2.0, 100.0);
  EXPECT_NEAR(w.mean(), 100.0 * std::tgamma(1.5), 1e-9);
  const double g1 = std::tgamma(1.5);
  const double g2 = std::tgamma(2.0);
  EXPECT_NEAR(w.variance(), 100.0 * 100.0 * (g2 - g1 * g1), 1e-9);
}

TEST(Uniform, BasicProperties) {
  Uniform u(10.0, 30.0);
  EXPECT_DOUBLE_EQ(u.mean(), 20.0);
  EXPECT_NEAR(u.variance(), 400.0 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(u.cdf(10.0), 0.0);
  EXPECT_DOUBLE_EQ(u.cdf(30.0), 1.0);
  EXPECT_DOUBLE_EQ(u.cdf(20.0), 0.5);
  EXPECT_DOUBLE_EQ(u.pdf(20.0), 0.05);
  EXPECT_DOUBLE_EQ(u.pdf(31.0), 0.0);
  EXPECT_THROW(Uniform(1.0, 1.0), std::invalid_argument);
}

TEST(Deterministic, AlwaysSameValue) {
  Deterministic d(42.0);
  des::RngStream rng(1, 1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 42.0);
  EXPECT_DOUBLE_EQ(d.mean(), 42.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(41.9), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(42.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.3), 42.0);
}

TEST(Distribution, DescribeMentionsFamily) {
  EXPECT_NE(Exponential(5.0).describe().find("exponential"), std::string::npos);
  EXPECT_NE(Lognormal(0.0, 1.0).describe().find("lognormal"), std::string::npos);
  EXPECT_NE(Weibull(2.0, 3.0).describe().find("weibull"), std::string::npos);
}

TEST(Distribution, LogLikelihoodMinusInfinityOutsideSupport) {
  Exponential e(1.0);
  const std::vector<double> data{1.0, -1.0};
  EXPECT_TRUE(std::isinf(e.log_likelihood(data)));
  EXPECT_LT(e.log_likelihood(data), 0.0);
}

TEST(Distribution, LogPdfSurvivesWherePdfUnderflows) {
  // A sample far in the tail: pdf underflows to 0 (log would give -inf),
  // but the analytic log-density is a perfectly finite large negative
  // number.  This is the Figure 8 fitting failure the log-space
  // log_likelihood fixes.
  const Exponential e(1.0);
  const double far = 1e4;
  EXPECT_EQ(e.pdf(far), 0.0);  // underflow
  EXPECT_NEAR(e.log_pdf(far), -far, 1e-6);
  EXPECT_TRUE(std::isfinite(e.log_pdf(far)));

  const Lognormal ln(0.0, 1.0);
  const double huge = 1e120;
  EXPECT_EQ(ln.pdf(huge), 0.0);
  EXPECT_TRUE(std::isfinite(ln.log_pdf(huge)));
}

TEST(Distribution, LogLikelihoodFiniteOnExtremeData) {
  // 600 tail observations: the product of pdfs underflows to 0 long before
  // the end, but the log-space sum is exact.
  const Exponential e(1.0);
  const std::vector<double> data(600, 400.0);
  const double ll = e.log_likelihood(data);
  EXPECT_TRUE(std::isfinite(ll));
  EXPECT_NEAR(ll, -600.0 * 400.0, 1e-6);
}

TEST(Distribution, LogPdfMinusInfinityOutsideSupport) {
  EXPECT_TRUE(std::isinf(Exponential(1.0).log_pdf(-1.0)));
  EXPECT_TRUE(std::isinf(Lognormal(0.0, 1.0).log_pdf(0.0)));
  EXPECT_TRUE(std::isinf(Uniform(0.0, 1.0).log_pdf(2.0)));
  EXPECT_LT(Uniform(0.0, 1.0).log_pdf(2.0), 0.0);
}

TEST(SampleStandardNormal, MeanAndVariance) {
  des::RngStream rng(7, 7);
  SummaryStats s;
  for (int i = 0; i < 200000; ++i) s.add(sample_standard_normal(rng));
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.variance(), 1.0, 0.02);
}

// ------------------------------------------------------ property-based sweeps

struct DistCase {
  std::string name;
  DistributionPtr dist;
};

// Print the case by name: gtest's default dumps the struct's bytes, heap
// pointers included, into the test name, which then differs run to run.
void PrintTo(const DistCase& c, std::ostream* os) { *os << c.name; }

class DistributionProperty : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionProperty, CdfIsMonotoneNonDecreasing) {
  const auto& d = *GetParam().dist;
  double prev = 0.0;
  for (int i = 0; i <= 200; ++i) {
    const double x = static_cast<double>(i) * d.mean() / 20.0;
    const double c = d.cdf(x);
    EXPECT_GE(c, prev - 1e-12) << "x=" << x;
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST_P(DistributionProperty, QuantileInvertsCdf) {
  const auto& d = *GetParam().dist;
  for (const double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = d.quantile(p);
    EXPECT_NEAR(d.cdf(x), p, 1e-8) << "p=" << p;
  }
}

TEST_P(DistributionProperty, SampleMomentsMatchTheory) {
  const auto& d = *GetParam().dist;
  des::RngStream rng(11, des::hash_label(GetParam().name));
  SummaryStats s;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) s.add(d.sample(rng));
  EXPECT_NEAR(s.mean(), d.mean(), 6.0 * d.stddev() / std::sqrt(double(kN)))
      << GetParam().name;
  // Variance is noisier, especially for the heavy-tailed lognormal.
  EXPECT_NEAR(s.stddev(), d.stddev(), 0.15 * d.stddev() + 1e-9) << GetParam().name;
}

TEST_P(DistributionProperty, SamplesInsideSupport) {
  const auto& d = *GetParam().dist;
  des::RngStream rng(13, des::hash_label(GetParam().name));
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(d.sample(rng), 0.0);
  }
}

TEST_P(DistributionProperty, LogPdfMatchesLogOfPdfInsideSupport) {
  const auto& d = *GetParam().dist;
  for (const double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double x = d.quantile(p);
    const double pdf = d.pdf(x);
    ASSERT_GT(pdf, 0.0) << "p=" << p;
    EXPECT_NEAR(d.log_pdf(x), std::log(pdf), 1e-9 * std::abs(std::log(pdf)) + 1e-9)
        << GetParam().name << " p=" << p;
  }
}

TEST_P(DistributionProperty, PdfIntegratesToApproximatelyOne) {
  const auto& d = *GetParam().dist;
  // Trapezoidal integration between the 0.1th and 99.99th percentiles
  // (the lower cutoff avoids the pole at 0 of a shape<1 Weibull pdf).
  const double lo = d.quantile(0.001);
  const double hi = d.quantile(0.9999);
  constexpr int kSteps = 20000;
  const double h = (hi - lo) / kSteps;
  double integral = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const double x0 = lo + i * h;
    const double x1 = x0 + h;
    integral += 0.5 * (d.pdf(x0) + d.pdf(x1)) * h;
  }
  EXPECT_NEAR(integral, 0.9989, 5e-3) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperDistributions, DistributionProperty,
    ::testing::Values(
        DistCase{"exp_223", std::make_shared<Exponential>(223.0)},
        DistCase{"exp_40000", std::make_shared<Exponential>(40'000.0)},
        DistCase{"lognormal_app_cpu",
                 std::make_shared<Lognormal>(Lognormal::from_mean_stddev(2213.0, 3034.0))},
        DistCase{"lognormal_main_cpu",
                 std::make_shared<Lognormal>(Lognormal::from_mean_stddev(3208.0, 3287.0))},
        DistCase{"weibull_1p5", std::make_shared<Weibull>(1.5, 300.0)},
        DistCase{"weibull_0p8", std::make_shared<Weibull>(0.8, 100.0)},
        DistCase{"uniform", std::make_shared<Uniform>(0.0, 500.0)}),
    [](const ::testing::TestParamInfo<DistCase>& info) { return info.param.name; });

}  // namespace
}  // namespace paradyn::stats
