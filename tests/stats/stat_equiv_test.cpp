// Statistical-equivalence acceptance tests for the ziggurat engine: at
// n = 1e6 per family, a one-sample KS test against the analytic CDF must
// not reject at the 1% level, and the first two sample moments must agree
// with the analytic moments within 5 standard errors.  Each family is drawn
// twice: through FrozenSampler (the simulator's path) and through the
// virtual Distribution::sample() (the reference path).
//
// These run under the `stat_equiv` ctest label in the Release-mode CI job
// (they draw tens of millions of variates, too slow for the sanitizer
// matrix but cheap with optimization on).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "des/random.hpp"
#include "stats/distributions.hpp"
#include "stats/empirical.hpp"
#include "stats/ks_test.hpp"
#include "stats/sampler.hpp"
#include "stats/ziggurat.hpp"

namespace paradyn::stats {
namespace {

constexpr std::size_t kDraws = 1'000'000;
constexpr double kAlpha = 0.01;

double standard_normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// The two ways to draw from `dist`: the frozen ziggurat / alias-table
/// sampler, and the reference virtual sample().
struct Path {
  const char* name;
  std::function<double(des::Pcg32&)> draw;
};

std::vector<Path> both_paths(const DistributionPtr& dist) {
  const auto sampler = FrozenSampler::compile(dist);
  return {{"ziggurat", [sampler](des::Pcg32& rng) { return sampler(rng); }},
          {"reference", [dist](des::Pcg32& rng) { return dist->sample(rng); }}};
}

void expect_ks_accepts(const std::vector<double>& xs, const CdfFn& cdf, const char* what) {
  const auto result = ks_test(xs, cdf);
  EXPECT_GT(result.p_value, kAlpha) << what << ": D = " << result.statistic << " at n = "
                                    << result.n;
}

void expect_moments(const std::vector<double>& xs, double mean, double variance,
                    const char* what) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double m = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  const double v = ss / static_cast<double>(xs.size() - 1);
  // 5 standard errors of each estimator (variance s.e. approximated for a
  // heavy-tailed family by a generous sqrt(2) Gaussian formula times 10).
  const double se_mean = std::sqrt(variance / static_cast<double>(xs.size()));
  const double se_var = 10.0 * variance * std::sqrt(2.0 / static_cast<double>(xs.size()));
  EXPECT_NEAR(m, mean, 5.0 * se_mean) << what;
  EXPECT_NEAR(v, variance, 5.0 * se_var) << what;
}

TEST(StatEquiv, ZigguratNormalMatchesAnalyticCdf) {
  des::RngStream rng(101, 1);
  std::vector<double> xs(kDraws);
  for (double& x : xs) x = ziggurat_normal(rng);
  expect_ks_accepts(xs, standard_normal_cdf, "ziggurat normal");
  expect_moments(xs, 0.0, 1.0, "ziggurat normal");
}

TEST(StatEquiv, ZigguratExponentialMatchesAnalyticCdf) {
  des::RngStream rng(101, 2);
  std::vector<double> xs(kDraws);
  for (double& x : xs) x = ziggurat_exponential(rng);
  expect_ks_accepts(xs, CdfFn([](double x) { return 1.0 - std::exp(-x); }),
                    "ziggurat exponential");
  expect_moments(xs, 1.0, 1.0, "ziggurat exponential");
}

/// Every continuous family, both paths, against its own CDF.
TEST(StatEquiv, FrozenSamplerMatchesDistributionCdfUnderBothBackends) {
  const std::vector<DistributionPtr> families = {
      std::make_shared<Exponential>(223.0),
      std::make_shared<Lognormal>(Lognormal::from_mean_stddev(2213.0, 3034.0)),
      std::make_shared<Weibull>(0.8, 250.0),
      std::make_shared<Uniform>(10.0, 50.0),
  };
  for (const auto& dist : families) {
    std::uint64_t stream = 1;
    for (const Path& path : both_paths(dist)) {
      des::RngStream rng(103, stream++);
      std::vector<double> xs(kDraws);
      for (double& x : xs) x = path.draw(rng);
      const std::string what = dist->describe() + " / " + path.name;
      expect_ks_accepts(xs, [&dist](double x) { return dist->cdf(x); }, what.c_str());
      expect_moments(xs, dist->mean(), dist->variance(), what.c_str());
    }
  }
}

/// Empirical via the Walker alias table: the O(1) sampler replaced the
/// inline quantile search, changing the consumed stream, so it re-proves
/// itself against the interpolated empirical CDF — the distribution both
/// it and the virtual sample()'s quantile path draw from.
/// Distinct order statistics keep the CDF continuous (a KS requirement).
TEST(StatEquiv, EmpiricalAliasTableMatchesInterpolatedCdf) {
  std::vector<double> data;
  des::RngStream seed_rng(211, 1);
  for (int i = 0; i < 64; ++i) {
    // A spread-out, irregular, strictly increasing sample (jittered
    // quadratic gaps) — exercises unequal segment widths in the table.
    data.push_back(10.0 * i + 0.2 * i * i + seed_rng.next_double());
  }
  const auto dist = std::make_shared<Empirical>(data);

  // Mixture moments: the interpolated CDF is a uniform mixture of the
  // n-1 segments, NOT the sample distribution, so derive mean/variance
  // from the segments analytically (segment uniform: m + w^2/12).
  double mix_mean = 0.0;
  double mix_second = 0.0;
  for (std::size_t i = 0; i + 1 < data.size(); ++i) {
    const double mid = 0.5 * (data[i] + data[i + 1]);
    const double width = data[i + 1] - data[i];
    mix_mean += mid;
    mix_second += mid * mid + width * width / 12.0;
  }
  mix_mean /= static_cast<double>(data.size() - 1);
  mix_second /= static_cast<double>(data.size() - 1);
  const double mix_var = mix_second - mix_mean * mix_mean;

  std::uint64_t stream = 2;
  for (const Path& path : both_paths(dist)) {
    des::RngStream rng(211, stream++);
    std::vector<double> xs(kDraws);
    const std::string what = std::string("empirical / ") + path.name;
    for (double& x : xs) x = path.draw(rng);
    expect_ks_accepts(xs, [&dist](double x) { return dist->cdf(x); }, what.c_str());
    expect_moments(xs, mix_mean, mix_var, what.c_str());
  }
}

/// The two paths must agree with each other distributionally: each path
/// against the shared model CDF is covered above; here the sample means
/// must be within joint noise.
TEST(StatEquiv, BackendsAgreeOnSampleMean) {
  const DistributionPtr dist =
      std::make_shared<Lognormal>(Lognormal::from_mean_stddev(2213.0, 3034.0));
  double means[2] = {0.0, 0.0};
  int slot = 0;
  for (const Path& path : both_paths(dist)) {
    des::RngStream rng(107, 5);
    double sum = 0.0;
    for (std::size_t i = 0; i < kDraws; ++i) sum += path.draw(rng);
    means[slot++] = sum / static_cast<double>(kDraws);
  }
  const double se = std::sqrt(2.0 * dist->variance() / static_cast<double>(kDraws));
  EXPECT_NEAR(means[0], means[1], 5.0 * se);
}

}  // namespace
}  // namespace paradyn::stats
