// Distribution fitting (Section 2.3.2 of the paper).
//
// Maximum-likelihood estimators for the three candidate families the paper
// considers (exponential, lognormal, Weibull), Kolmogorov-Smirnov
// goodness-of-fit, and a model-selection helper that picks the family with
// the highest log-likelihood — the procedure behind Table 2 and Figure 8.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "stats/distributions.hpp"

namespace paradyn::stats {

/// MLE fit of Exponential: mean = sample mean.  Requires positive data.
[[nodiscard]] Exponential fit_exponential(std::span<const double> data);

/// MLE fit of Lognormal: mu/sigma = mean/stddev of log(data).
[[nodiscard]] Lognormal fit_lognormal(std::span<const double> data);

/// MLE fit of Weibull: shape solved by Newton iteration on the profile
/// likelihood, scale in closed form given the shape.
[[nodiscard]] Weibull fit_weibull(std::span<const double> data);

/// Kolmogorov-Smirnov statistic: sup |F_empirical - F_model|.
[[nodiscard]] double ks_statistic(std::span<const double> data, const Distribution& dist);

/// Result of fitting one candidate family.
struct FitResult {
  DistributionPtr distribution;
  double log_likelihood = 0.0;
  double ks = 0.0;
};

/// Fit all three candidate families and return them sorted by descending
/// log-likelihood (best first).  This mirrors the paper's visual comparison
/// of the exponential / Weibull / lognormal pdfs in Figure 8.
[[nodiscard]] std::vector<FitResult> fit_candidates(std::span<const double> data);

/// Convenience: the single best-fitting family by log-likelihood.
[[nodiscard]] FitResult fit_best(std::span<const double> data);

}  // namespace paradyn::stats
