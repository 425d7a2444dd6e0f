// Special functions needed by the distribution / inference code.
//
// Self-contained implementations (no external math library): standard
// normal cdf/quantile, the regularized incomplete beta function, and the
// Student-t distribution functions built on it.
#pragma once

namespace paradyn::stats {

/// Standard normal CDF, accurate over the full double range.
[[nodiscard]] double normal_cdf(double z);

/// Inverse standard normal CDF (Acklam's rational approximation refined by
/// one Halley step; |error| < 1e-12 for p in (0, 1)).
[[nodiscard]] double normal_quantile(double p);

/// Regularized incomplete beta I_x(a, b) via continued fraction.
[[nodiscard]] double regularized_beta(double x, double a, double b);

/// Student-t CDF with `df` degrees of freedom.
[[nodiscard]] double student_t_cdf(double t, double df);

/// Student-t quantile (inverse CDF) with `df` degrees of freedom.
[[nodiscard]] double student_t_quantile(double p, double df);

}  // namespace paradyn::stats
