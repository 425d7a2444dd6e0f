// Probability distributions used by the ROCC workload model.
//
// The paper's workload characterization (Section 2.3.2, Tables 1-2) fits
// exponential, lognormal, and Weibull densities to the lengths of resource
// occupancy requests.  Every distribution here supports sampling (by
// inverse-CDF or Box-Muller on our own RNG, for cross-platform determinism),
// pdf/cdf/quantile evaluation, and log-likelihood — everything needed by the
// fitting code and the simulator.  The simulator itself draws through
// stats::FrozenSampler (ziggurat, alias table); sample() is the reference
// path the tests compare it against.
//
// NOTE on lognormal parameters: the paper writes "lognormal(a, b) means a
// lognormal random variable with mean a and variance b", but the values
// quoted (e.g. lognormal(2213, 3034) for application CPU requests) are the
// sample mean and sample *standard deviation* of Table 1.  We therefore
// provide Lognormal::from_mean_stddev and use it wherever Table 2 parameters
// are instantiated.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "des/random.hpp"

namespace paradyn::stats {

/// Abstract interface for a univariate distribution over [0, inf) or R.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Distribution family name, e.g. "exponential".
  [[nodiscard]] virtual std::string name() const = 0;
  /// Human-readable parameterization, e.g. "exponential(mean=223)".
  [[nodiscard]] virtual std::string describe() const = 0;

  [[nodiscard]] virtual double mean() const = 0;
  [[nodiscard]] virtual double variance() const = 0;
  [[nodiscard]] virtual double pdf(double x) const = 0;
  /// log pdf(x), computed in log space.  The default falls back to
  /// log(pdf(x)); families override it so densities too small for a double
  /// (denormal or underflowed pdf on far-tail data) still yield a finite
  /// log instead of collapsing to -inf.
  [[nodiscard]] virtual double log_pdf(double x) const;
  [[nodiscard]] virtual double cdf(double x) const = 0;
  /// Inverse CDF; p in (0, 1).
  [[nodiscard]] virtual double quantile(double p) const = 0;
  /// Draw one variate.
  [[nodiscard]] virtual double sample(des::Pcg32& rng) const = 0;

  /// Sum of log_pdf over the data (for model selection).  Summed in log
  /// space, so large samples with extreme observations cannot hit -inf
  /// unless a point truly has zero density.
  [[nodiscard]] double log_likelihood(std::span<const double> data) const;

  [[nodiscard]] double stddev() const;
};

using DistributionPtr = std::shared_ptr<const Distribution>;

/// Exponential(mean): pdf(x) = (1/mean) exp(-x/mean), x >= 0.
class Exponential final : public Distribution {
 public:
  explicit Exponential(double mean);

  [[nodiscard]] std::string name() const override { return "exponential"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double mean() const override { return mean_; }
  [[nodiscard]] double variance() const override { return mean_ * mean_; }
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double log_pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double sample(des::Pcg32& rng) const override;

 private:
  double mean_;
};

/// Lognormal with underlying normal(mu, sigma): X = exp(N(mu, sigma^2)).
class Lognormal final : public Distribution {
 public:
  /// Construct from the underlying normal parameters.
  Lognormal(double mu, double sigma);

  /// Construct from the target mean and standard deviation of X itself —
  /// the parameterization used in the paper's Table 2.
  [[nodiscard]] static Lognormal from_mean_stddev(double mean, double stddev);

  [[nodiscard]] std::string name() const override { return "lognormal"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double log_pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double sample(des::Pcg32& rng) const override;

  [[nodiscard]] double mu() const { return mu_; }
  [[nodiscard]] double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

/// Weibull(shape k, scale lambda): cdf(x) = 1 - exp(-(x/lambda)^k), x >= 0.
class Weibull final : public Distribution {
 public:
  Weibull(double shape, double scale);

  [[nodiscard]] std::string name() const override { return "weibull"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double log_pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double sample(des::Pcg32& rng) const override;

  [[nodiscard]] double shape() const { return shape_; }
  [[nodiscard]] double scale() const { return scale_; }

 private:
  double shape_;
  double scale_;
};

/// Uniform(lo, hi).
class Uniform final : public Distribution {
 public:
  Uniform(double lo, double hi);

  [[nodiscard]] std::string name() const override { return "uniform"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double mean() const override { return 0.5 * (lo_ + hi_); }
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double log_pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double sample(des::Pcg32& rng) const override;

 private:
  double lo_;
  double hi_;
};

/// Degenerate distribution: always returns `value`.  Useful for replacing a
/// stochastic model input with a fixed value in ablations and tests.
class Deterministic final : public Distribution {
 public:
  explicit Deterministic(double value);

  [[nodiscard]] std::string name() const override { return "deterministic"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double mean() const override { return value_; }
  [[nodiscard]] double variance() const override { return 0.0; }
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double log_pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double sample(des::Pcg32& rng) const override;

 private:
  double value_;
};

/// Draw a standard normal via Box-Muller (deterministic on our RNG).
[[nodiscard]] double sample_standard_normal(des::Pcg32& rng);

}  // namespace paradyn::stats
