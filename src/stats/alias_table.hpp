// Walker/Vose alias method over the segments of an empirical CDF.
//
// The PR-6 Empirical sampler reproduced Empirical::quantile(U) inline:
// scale U by (n-1), floor to pick a segment of the sorted order
// statistics, and lerp.  That is one multiply + floor + two loads per
// draw, but the floor/branch chain pipelines poorly.
//
// The inverse-CDF mixture view gives an O(1) branch-light alternative:
// the quantile path is exactly a mixture over the n-1 segments
// [v_i, v_{i+1}], each with weight 1/(n-1), sampled uniformly inside the
// segment (degenerate segments with v_i == v_{i+1} are atoms).  Merging
// consecutive segments with identical endpoints — common when the sample
// has ties — compresses the mixture, and a Walker alias table picks a
// component with one compare regardless of the number of components.
//
// One 64-bit PCG draw per variate: the high 32 bits pick a column via a
// Lemire multiply-shift, the low 32 bits drive both the alias accept test
// and the in-segment interpolation fraction (renormalized with
// precomputed reciprocals — no division on the draw path).
//
// Same distribution as the quantile path, but a *different* draw stream
// (one u64 here vs. the quantile path's one u64 consumed as a double).
// FrozenSampler compiles every Empirical to this table; statistical
// equivalence with Empirical::sample() is gated by the KS harness in
// tests/stats/stat_equiv_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/random.hpp"

namespace paradyn::stats {

class AliasTable {
 public:
  /// Empty table: draws 0.0 (placeholder, like FrozenSampler's default).
  AliasTable() = default;

  /// Build from sorted order statistics (Empirical::values()).  A single
  /// value yields a degenerate table that always returns it.
  [[nodiscard]] static AliasTable from_sorted_values(const std::vector<double>& values);

  /// Draw one variate (one Pcg32::next_u64()).
  [[nodiscard]] double operator()(des::Pcg32& rng) const noexcept {
    if (columns_ <= 1) {
      if (width_.empty()) return lo_.empty() ? 0.0 : lo_[0];
      // Single column: skip the alias test but still consume one u64 so
      // the stream shape is independent of the table's compression.
      const std::uint64_t u = rng.next_u64();
      const double frac = static_cast<double>(u & 0xffffffffULL) * 0x1.0p-32;
      return lo_[0] + frac * width_[0];
    }
    const std::uint64_t u = rng.next_u64();
    // Lemire multiply-shift: hi32 -> column index in [0, columns_).
    const std::uint64_t hi = u >> 32;
    const auto col = static_cast<std::size_t>((hi * columns_) >> 32);
    const double x = static_cast<double>(u & 0xffffffffULL) * 0x1.0p-32;
    std::size_t pick = col;
    double frac;
    if (x < prob_[col]) {
      frac = x * inv_p_[col];
    } else {
      pick = alias_[col];
      frac = (x - prob_[col]) * inv_q_[col];
    }
    if (frac > 1.0) frac = 1.0;  // reciprocal rounding can overshoot by 1 ulp
    return lo_[pick] + frac * width_[pick];
  }

  /// Number of merged mixture components (1 column skips the alias test).
  [[nodiscard]] std::size_t columns() const noexcept {
    return static_cast<std::size_t>(columns_);
  }

  /// True when every draw returns the same value (single-point sample).
  [[nodiscard]] bool degenerate() const noexcept { return width_.empty(); }

 private:
  // Structure-of-arrays column storage, indexed by column id.
  std::vector<double> prob_;     ///< Alias acceptance threshold in [0, 1].
  std::vector<double> inv_p_;    ///< 1 / prob (0 when prob == 0).
  std::vector<double> inv_q_;    ///< 1 / (1 - prob) (0 when prob == 1).
  std::vector<std::uint32_t> alias_;
  std::vector<double> lo_;       ///< Segment low endpoint (or the atom value).
  std::vector<double> width_;    ///< hi - lo; 0 for atoms.
  std::uint64_t columns_ = 0;
};

}  // namespace paradyn::stats
