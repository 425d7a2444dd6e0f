// Confidence intervals for replicated simulation output.
//
// The paper derives mean metric values "within 90% confidence intervals from
// a sample of fifty values" (Section 4.1).  This module provides the
// Student-t interval used by the replication harness.
#pragma once

#include <span>

#include "stats/summary.hpp"

namespace paradyn::stats {

/// A two-sided confidence interval for a mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;
  double level = 0.0;  // e.g. 0.90

  [[nodiscard]] double lower() const noexcept { return mean - half_width; }
  [[nodiscard]] double upper() const noexcept { return mean + half_width; }
  [[nodiscard]] bool contains(double x) const noexcept {
    return x >= lower() && x <= upper();
  }
};

/// Student-t confidence interval for the mean of `data` at `level`
/// (default 0.90, matching the paper).  Requires at least two points.
[[nodiscard]] ConfidenceInterval mean_confidence_interval(std::span<const double> data,
                                                          double level = 0.90);

/// Same, from already-accumulated summary statistics.
[[nodiscard]] ConfidenceInterval mean_confidence_interval(const SummaryStats& stats,
                                                          double level = 0.90);

}  // namespace paradyn::stats
