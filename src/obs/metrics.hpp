// Metrics registry: periodic time-series probes sampled on a
// simulated-time tick, plus the log-linear Histogram the profiler and
// trace summaries use.
//
// The registry is the numeric companion to the trace recorder: where the
// trace answers "what happened when", the probe time series answers "how
// did queue depths / busy fractions evolve" at a fixed cadence that is
// cheap enough to leave on for long sweeps.  rocc::Simulation wires the
// standard probes (event-queue depth, pipe occupancy, per-class CPU busy
// fraction) via enable_metrics(); anything else can register its own.
//
// Not thread-safe: one registry belongs to one (single-threaded)
// simulation, mirroring the Tracer ownership model.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace paradyn::obs {

/// Streaming histogram over non-negative values with HDR-style log-linear
/// buckets: each power-of-two range [2^(i-1), 2^i) is split into 16 equal
/// linear sub-buckets (the range [0, 1) is 16 linear sub-buckets too), so
/// percentile estimates are good to ~1/16 relative error instead of the
/// old factor-of-~1.4 power-of-two midpoint.  Still O(1) memory (fixed
/// 64 x 16 bucket array) plus exact count/sum/min/max.
class Histogram {
 public:
  static constexpr int kExpBuckets = 64;
  static constexpr int kSubBuckets = 16;
  static constexpr int kBuckets = kExpBuckets * kSubBuckets;

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  /// Estimated p-quantile (p in [0, 1]): midpoint of the log-linear
  /// sub-bucket holding the p-th observation, clamped to the observed
  /// min/max.  Relative error is bounded by the sub-bucket width (~6%).
  [[nodiscard]] double percentile(double p) const noexcept;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The probe time series: named probes in registration order, one row of
/// their values per sample() tick.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register a callback probe evaluated at every sample() tick.
  void add_probe(std::string name, std::function<double()> probe);

  /// Record one time-series row at simulated time `t_us`: every probe in
  /// registration order.
  void sample(double t_us);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& column_names() const noexcept { return columns_; }
  /// Row `i` as (time, values aligned with column_names()).
  [[nodiscard]] std::pair<double, const std::vector<double>*> row(std::size_t i) const {
    return {row_times_.at(i), &rows_.at(i)};
  }

  /// The probe time series as CSV: "time_us,<col>,..." then one row per
  /// tick.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::function<double()>> probes_;
  std::vector<std::string> columns_;
  std::vector<double> row_times_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace paradyn::obs
