// Streaming summary statistics, histograms, empirical quantiles, and Q-Q
// plot data — the machinery behind the paper's Table 1 and Figure 8.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/distributions.hpp"

namespace paradyn::stats {

/// Welford-style streaming accumulator: count, mean, variance, min, max.
/// Numerically stable; O(1) memory.
class SummaryStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two points.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Compute summary stats of a data span in one pass.
[[nodiscard]] SummaryStats summarize(std::span<const double> data);

/// Fixed-width-bin histogram over [lo, hi); values outside are clamped into
/// the first/last bin so mass is conserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  void add_all(std::span<const double> data) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// Midpoint of bin `i`.
  [[nodiscard]] double bin_center(std::size_t bin) const;
  [[nodiscard]] double bin_width() const noexcept { return width_; }
  /// Relative frequency density of bin `i` (integrates to ~1), comparable to
  /// a pdf — this is the y-axis of Figure 8.
  [[nodiscard]] double density(std::size_t bin) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Empirical quantile of *sorted* data at probability p (linear
/// interpolation, type-7 as in R).
[[nodiscard]] double empirical_quantile(std::span<const double> sorted, double p);

/// One point of a quantile-quantile plot.
struct QQPoint {
  double theoretical = 0.0;
  double observed = 0.0;
};

/// Q-Q plot data for `data` against `dist` at `points` evenly spaced
/// probabilities ((i+0.5)/points).  Data need not be sorted.
[[nodiscard]] std::vector<QQPoint> qq_plot(std::span<const double> data, const Distribution& dist,
                                           std::size_t points = 50);

/// Mean absolute relative deviation of a Q-Q plot from the ideal y=x line —
/// a scalar "straightness" score used in tests of the fitting pipeline.
[[nodiscard]] double qq_deviation(std::span<const QQPoint> points);

}  // namespace paradyn::stats
