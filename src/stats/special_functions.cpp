#include "stats/special_functions.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace paradyn::stats {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Lentz continued-fraction evaluation of the incomplete beta.
double beta_cf(double x, double a, double b) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-15;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p must be in (0,1)");
  }
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step against the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * kPi) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double regularized_beta(double x, double a, double b) {
  if (a <= 0.0 || b <= 0.0) throw std::invalid_argument("regularized_beta: a,b must be > 0");
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front =
      std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) + a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(x, a, b) / a;
  }
  return 1.0 - front * beta_cf(1.0 - x, b, a) / b;
}

double student_t_cdf(double t, double df) {
  if (df <= 0.0) throw std::invalid_argument("student_t_cdf: df must be > 0");
  const double x = df / (df + t * t);
  const double p = 0.5 * regularized_beta(x, 0.5 * df, 0.5);
  return (t >= 0.0) ? 1.0 - p : p;
}

double student_t_quantile(double p, double df) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("student_t_quantile: p must be in (0,1)");
  }
  if (df <= 0.0) throw std::invalid_argument("student_t_quantile: df must be > 0");
  if (p == 0.5) return 0.0;

  // Bracket around the normal quantile and bisect on the exact CDF.
  const double z = normal_quantile(p);
  double lo = z - 1.0;
  double hi = z + 1.0;
  if (std::fabs(z) < 1.0) {
    lo = -2.0;
    hi = 2.0;
  }
  while (student_t_cdf(lo, df) > p) lo *= 2.0;
  while (student_t_cdf(hi, df) < p) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (student_t_cdf(mid, df) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + std::fabs(hi))) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace paradyn::stats
