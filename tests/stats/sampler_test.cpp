// Unit tests of FrozenSampler: bit-exact reproduction of historical streams
// under the Reference backend, distributional agreement of the Ziggurat
// backend, and rejection of unknown Distribution subclasses (the retired
// virtual fallback).
#include "stats/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "des/random.hpp"
#include "stats/distributions.hpp"
#include "stats/empirical.hpp"
#include "stats/ks_test.hpp"

namespace paradyn::stats {
namespace {

/// The Table 2 families plus uniform/deterministic.
std::vector<DistributionPtr> known_families() {
  return {
      std::make_shared<Exponential>(223.0),
      std::make_shared<Lognormal>(Lognormal::from_mean_stddev(2213.0, 3034.0)),
      std::make_shared<Weibull>(0.8, 250.0),
      std::make_shared<Uniform>(10.0, 50.0),
      std::make_shared<Deterministic>(7.5),
  };
}

TEST(FrozenSampler, CompileRejectsNull) {
  EXPECT_THROW((void)FrozenSampler::compile(nullptr), std::invalid_argument);
}

TEST(FrozenSampler, DefaultConstructedDrawsZeroWithoutConsumingRandomness) {
  const FrozenSampler sampler;
  des::RngStream rng(1, 1);
  const auto before = rng;
  EXPECT_EQ(sampler(rng), 0.0);
  EXPECT_EQ(rng.next_u64(), des::RngStream(before).next_u64());
}

// The Reference backend exists so --reference-rng replays pre-ziggurat
// experiments exactly: each draw must bit-match the virtual sample().
TEST(FrozenSampler, ReferenceBackendBitMatchesVirtualSample) {
  for (const auto& dist : known_families()) {
    const auto sampler = FrozenSampler::compile(dist, SamplerBackend::Reference);
    des::RngStream rng_frozen(5, 17);
    des::RngStream rng_virtual(5, 17);
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_EQ(sampler(rng_frozen), dist->sample(rng_virtual))
          << dist->describe() << " draw " << i;
    }
  }
}

// The Ziggurat backend draws a different sequence but must still follow
// the compiled distribution.
TEST(FrozenSampler, ZigguratBackendPassesKsAgainstDistributionCdf) {
  for (const auto& dist : known_families()) {
    if (dist->name() == "deterministic") continue;  // cdf is a step function
    const auto sampler = FrozenSampler::compile(dist, SamplerBackend::Ziggurat);
    des::RngStream rng(29, 3);
    std::vector<double> xs(100'000);
    for (double& x : xs) x = sampler(rng);
    const auto result = ks_test(xs, *dist);
    EXPECT_GT(result.p_value, 0.001) << dist->describe() << " D = " << result.statistic;
  }
}

TEST(FrozenSampler, BothBackendsAgreeWithAnalyticMoments) {
  constexpr std::size_t kDraws = 200'000;
  for (const auto& dist : known_families()) {
    for (const auto backend : {SamplerBackend::Ziggurat, SamplerBackend::Reference}) {
      const auto sampler = FrozenSampler::compile(dist, backend);
      des::RngStream rng(31, 7);
      double sum = 0.0;
      for (std::size_t i = 0; i < kDraws; ++i) sum += sampler(rng);
      const double mean = sum / static_cast<double>(kDraws);
      // 5 sigma of the sample-mean estimator.
      const double tol =
          5.0 * std::sqrt(dist->variance() / static_cast<double>(kDraws)) + 1e-12;
      EXPECT_NEAR(mean, dist->mean(), tol) << dist->describe() << " " << to_string(backend);
    }
  }
}

TEST(FrozenSampler, UniformStaysInRange) {
  const auto sampler =
      FrozenSampler::compile(std::make_shared<Uniform>(10.0, 50.0), SamplerBackend::Ziggurat);
  des::RngStream rng(3, 3);
  for (int i = 0; i < 10'000; ++i) {
    const double x = sampler(rng);
    ASSERT_GE(x, 10.0);
    ASSERT_LT(x, 50.0);
  }
}

// Empirical under the Reference backend keeps the historical inline
// inverse-CDF and must bit-match the virtual Distribution::sample() stream
// — the --reference-rng oracle.  (The Ziggurat backend switched to the
// Walker alias table, a different stream; see the tests below and the
// stat_equiv suite.)
TEST(FrozenSampler, EmpiricalReferenceBackendBitMatchesVirtualSample) {
  const std::vector<double> data{1.0, 2.0, 4.0, 8.0, 16.0};
  const DistributionPtr dist = std::make_shared<Empirical>(data);
  const auto sampler = FrozenSampler::compile(dist, SamplerBackend::Reference);
  des::RngStream rng_frozen(9, 9);
  des::RngStream rng_virtual(9, 9);
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_EQ(sampler(rng_frozen), dist->sample(rng_virtual)) << " draw " << i;
  }
}

// The Ziggurat backend's alias table is the same mixture of CDF segments
// as the quantile path: values stay inside the sample's hull and the mean
// agrees with the distribution (full KS gate lives in stat_equiv).
TEST(FrozenSampler, EmpiricalZigguratBackendAliasAgreesWithMoments) {
  const std::vector<double> data{1.0, 2.0, 2.0, 4.0, 8.0, 16.0, 16.0, 31.0};
  const DistributionPtr dist = std::make_shared<Empirical>(data);
  const auto sampler = FrozenSampler::compile(dist, SamplerBackend::Ziggurat);
  des::RngStream rng(9, 9);
  constexpr std::size_t kDraws = 200'000;
  double sum = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double x = sampler(rng);
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 31.0);
    sum += x;
  }
  // The interpolated-CDF distribution both paths sample has mean equal to
  // the average segment midpoint (NOT the sample mean — the extreme order
  // statistics carry half weight).
  double mixture_mean = 0.0;
  for (std::size_t i = 0; i + 1 < data.size(); ++i) mixture_mean += (data[i] + data[i + 1]) / 2.0;
  mixture_mean /= static_cast<double>(data.size() - 1);
  const double tol = 5.0 * std::sqrt(dist->variance() / static_cast<double>(kDraws));
  EXPECT_NEAR(sum / static_cast<double>(kDraws), mixture_mean, tol);
}

// The compiled table is a snapshot: the sampler stays valid after the
// source Distribution is destroyed.
TEST(FrozenSampler, EmpiricalTableOutlivesSourceDistribution) {
  FrozenSampler sampler;
  {
    const std::vector<double> data{3.0, 1.0, 2.0};
    sampler = FrozenSampler::compile(std::make_shared<Empirical>(data));
  }
  des::RngStream rng(11, 4);
  for (int i = 0; i < 100; ++i) {
    const double x = sampler(rng);
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 3.0);
  }
}

// A Distribution subclass outside the known families is a configuration
// error, not something to silently slow-path.
TEST(FrozenSampler, UnknownSubclassIsRejected) {
  class Mystery final : public Distribution {
   public:
    [[nodiscard]] std::string name() const override { return "mystery"; }
    [[nodiscard]] std::string describe() const override { return "mystery()"; }
    [[nodiscard]] double mean() const override { return 0.0; }
    [[nodiscard]] double variance() const override { return 1.0; }
    [[nodiscard]] double pdf(double) const override { return 0.0; }
    [[nodiscard]] double cdf(double) const override { return 0.5; }
    [[nodiscard]] double quantile(double) const override { return 0.0; }
    [[nodiscard]] double sample(des::Pcg32&) const override { return 0.0; }
  };
  for (const auto backend : {SamplerBackend::Ziggurat, SamplerBackend::Reference}) {
    EXPECT_THROW((void)FrozenSampler::compile(std::make_shared<Mystery>(), backend),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace paradyn::stats
