#include "stats/fitting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/ks_test.hpp"
#include "stats/summary.hpp"

namespace paradyn::stats {
namespace {

void require_positive_data(std::span<const double> data, const char* who) {
  if (data.empty()) throw std::invalid_argument(std::string(who) + ": empty data");
  for (const double x : data) {
    if (!(x > 0.0)) throw std::invalid_argument(std::string(who) + ": data must be positive");
  }
}

}  // namespace

Exponential fit_exponential(std::span<const double> data) {
  require_positive_data(data, "fit_exponential");
  return Exponential(summarize(data).mean());
}

Lognormal fit_lognormal(std::span<const double> data) {
  require_positive_data(data, "fit_lognormal");
  SummaryStats logs;
  for (const double x : data) logs.add(std::log(x));
  // MLE sigma uses the n-denominator variance.
  const auto n = static_cast<double>(logs.count());
  double sigma2 = logs.variance() * (n - 1.0) / n;
  sigma2 = std::max(sigma2, 1e-12);
  return Lognormal(logs.mean(), std::sqrt(sigma2));
}

Weibull fit_weibull(std::span<const double> data) {
  require_positive_data(data, "fit_weibull");
  const auto n = static_cast<double>(data.size());

  // Precompute log moments for the profile-likelihood equation
  //   1/k = sum(x^k ln x)/sum(x^k) - mean(ln x)
  double mean_log = 0.0;
  for (const double x : data) mean_log += std::log(x);
  mean_log /= n;

  // Newton iteration on g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean_log.
  double k = 1.0;  // exponential start
  for (int iter = 0; iter < 100; ++iter) {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    for (const double x : data) {
      const double lx = std::log(x);
      const double xk = std::pow(x, k);
      s0 += xk;
      s1 += xk * lx;
      s2 += xk * lx * lx;
    }
    const double g = s1 / s0 - 1.0 / k - mean_log;
    const double gprime = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
    const double step = g / gprime;
    k -= step;
    if (!(k > 0.0)) {
      k = 1e-3;  // recover from an overshoot; likelihood is unimodal in k
    }
    if (std::fabs(step) < 1e-10 * std::max(1.0, k)) break;
  }

  double sum_xk = 0.0;
  for (const double x : data) sum_xk += std::pow(x, k);
  const double scale = std::pow(sum_xk / n, 1.0 / k);
  return Weibull(k, scale);
}

double ks_statistic(std::span<const double> data, const Distribution& dist) {
  return ks_test(data, dist).statistic;
}

std::vector<FitResult> fit_candidates(std::span<const double> data) {
  std::vector<FitResult> results;
  const auto add = [&](DistributionPtr dist) {
    FitResult r;
    r.log_likelihood = dist->log_likelihood(data);
    r.ks = ks_statistic(data, *dist);
    r.distribution = std::move(dist);
    results.push_back(std::move(r));
  };
  add(std::make_shared<Exponential>(fit_exponential(data)));
  add(std::make_shared<Lognormal>(fit_lognormal(data)));
  add(std::make_shared<Weibull>(fit_weibull(data)));
  std::sort(results.begin(), results.end(),
            [](const FitResult& a, const FitResult& b) {
              return a.log_likelihood > b.log_likelihood;
            });
  return results;
}

FitResult fit_best(std::span<const double> data) { return fit_candidates(data).front(); }

}  // namespace paradyn::stats
