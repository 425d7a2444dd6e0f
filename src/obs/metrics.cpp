#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

namespace paradyn::obs {

namespace {

// Log-linear bucket index: [0, 1) is 16 linear sub-buckets; each
// [2^(e-1), 2^e) range (e >= 1) is 16 linear sub-buckets of width 2^(e-1)/16.
int bucket_index(double v) noexcept {
  if (v < 1.0) {
    int sub = static_cast<int>(v * Histogram::kSubBuckets);
    if (sub >= Histogram::kSubBuckets) sub = Histogram::kSubBuckets - 1;
    return sub;
  }
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  if (exp >= Histogram::kExpBuckets) return Histogram::kBuckets - 1;
  int sub = static_cast<int>((m * 2.0 - 1.0) * Histogram::kSubBuckets);
  if (sub >= Histogram::kSubBuckets) sub = Histogram::kSubBuckets - 1;
  if (sub < 0) sub = 0;
  return exp * Histogram::kSubBuckets + sub;
}

}  // namespace

void Histogram::observe(double v) noexcept {
  if (!(v >= 0.0) || !std::isfinite(v)) v = 0.0;  // clamp NaN/negatives
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
  sum_ += v;
  ++buckets_[bucket_index(v)];
}

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 1.0) return max_;
  const auto target = static_cast<std::uint64_t>(p * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      // Midpoint of the sub-bucket's value range, clamped to min/max.
      double lo = 0.0;
      double width = 1.0 / kSubBuckets;
      if (i >= kSubBuckets) {
        const int exp = i / kSubBuckets;
        const int sub = i % kSubBuckets;
        const double base = std::ldexp(1.0, exp - 1);
        width = base / kSubBuckets;
        lo = base + sub * width;
      } else {
        lo = i * width;
      }
      double mid = lo + width * 0.5;
      if (mid < min_) mid = min_;
      if (mid > max_) mid = max_;
      return mid;
    }
  }
  return max_;
}

void MetricsRegistry::add_probe(std::string name, std::function<double()> probe) {
  probes_.push_back(std::move(probe));
  columns_.push_back(std::move(name));
}

void MetricsRegistry::sample(double t_us) {
  std::vector<double> row;
  row.reserve(probes_.size());
  for (const auto& probe : probes_) row.push_back(probe());
  row_times_.push_back(t_us);
  rows_.push_back(std::move(row));
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  char buf[512];
  os << "time_us";
  for (const auto& name : columns_) os << ',' << name;
  os << '\n';
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.3f", row_times_[i]);
    os << buf;
    for (const double v : rows_[i]) {
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      os << ',' << buf;
    }
    os << '\n';
  }
}

}  // namespace paradyn::obs
