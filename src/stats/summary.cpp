#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace paradyn::stats {

void SummaryStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double SummaryStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double SummaryStats::stddev() const noexcept { return std::sqrt(variance()); }

SummaryStats summarize(std::span<const double> data) {
  SummaryStats s;
  for (const double x : data) s.add(x);
  return s;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must be > lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
  auto idx = static_cast<long>(std::floor((x - lo_) / width_));
  idx = std::clamp<long>(idx, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::add_all(std::span<const double> data) noexcept {
  for (const double x : data) add(x);
}

double Histogram::bin_center(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_center");
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::density(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / (static_cast<double>(total_) * width_);
}

double empirical_quantile(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("empirical_quantile: empty data");
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument("empirical_quantile: p in [0,1]");
  const double h = (static_cast<double>(sorted.size()) - 1.0) * p;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<QQPoint> qq_plot(std::span<const double> data, const Distribution& dist,
                             std::size_t points) {
  if (data.empty()) throw std::invalid_argument("qq_plot: empty data");
  if (points == 0) throw std::invalid_argument("qq_plot: points must be > 0");
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<QQPoint> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / static_cast<double>(points);
    out.push_back(QQPoint{dist.quantile(p), empirical_quantile(sorted, p)});
  }
  return out;
}

double qq_deviation(std::span<const QQPoint> points) {
  if (points.empty()) throw std::invalid_argument("qq_deviation: empty");
  double acc = 0.0;
  std::size_t used = 0;
  for (const auto& pt : points) {
    const double denom = std::max(std::fabs(pt.theoretical), 1e-12);
    acc += std::fabs(pt.observed - pt.theoretical) / denom;
    ++used;
  }
  return acc / static_cast<double>(used);
}

}  // namespace paradyn::stats
