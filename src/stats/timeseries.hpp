// Steady-state output analysis for correlated simulation time series.
//
// The replication CIs in confidence.hpp assume independent observations —
// valid across seed-varied runs, but not within one run where successive
// latency or utilization observations are autocorrelated.  This module
// provides the standard machinery (Law & Kelton ch. 9): the autocorrelation
// estimate, and the batch-means method that groups a long correlated
// series into nearly-independent batch averages before applying a
// Student-t interval.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/confidence.hpp"

namespace paradyn::stats {

/// Lag-k autocorrelation estimate r_k of a series (biased, the standard
/// time-series estimator).  Throws if k >= n or the series is constant.
[[nodiscard]] double autocorrelation(std::span<const double> series, std::size_t lag);

/// Batch-means analysis of one long run.
struct BatchMeansResult {
  std::size_t batch_count = 0;
  std::size_t batch_size = 0;
  std::vector<double> batch_means;
  ConfidenceInterval ci;          ///< Student-t interval over the batch means.
  double lag1_of_batch_means = 0; ///< Should be near 0 if batches are big enough.
};

/// Split `series` into `batches` equal batches (dropping the remainder),
/// average each, and compute a confidence interval over the batch means.
/// Requires at least 2 batches with at least 1 observation each.
[[nodiscard]] BatchMeansResult batch_means(std::span<const double> series, std::size_t batches,
                                           double level = 0.90);
}  // namespace paradyn::stats
