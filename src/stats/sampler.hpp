// Devirtualized variate sampling for the simulation hot loop.
//
// Every occupancy request in the ROCC model draws from a fitted
// distribution.  Going through the virtual Distribution::sample() costs an
// indirect call per variate and (for the lognormal) a full Box-Muller; on
// paper-scale runs variate generation is the hottest non-queue path.
//
// FrozenSampler is the fast path: a small tagged-union value type compiled
// once from any Distribution.  Sampling is an inline switch over the family
// — no virtual call, no heap, no shared_ptr dereference — with normals and
// exponentials drawn through the ziggurat (see ziggurat.hpp).  The draws
// follow the same distributions as Distribution::sample() but consume the
// RNG differently, so the streams differ; the virtual sample() is the
// reference the tests and bench_microbench compare against.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>

#include "des/random.hpp"
#include "stats/alias_table.hpp"
#include "stats/distributions.hpp"
#include "stats/ziggurat.hpp"

namespace paradyn::stats {

/// A Distribution frozen into an inline-dispatch sampler.  Every family
/// compiles to an inline switch — Empirical becomes a Walker alias table
/// (O(1) per draw); compile() rejects unknown Distribution subclasses
/// rather than fall back to the virtual sample().
class FrozenSampler {
 public:
  /// Default: deterministic 0 (a placeholder that draws nothing).
  FrozenSampler() noexcept = default;

  /// Freeze `dist`.  Throws std::invalid_argument for a Distribution
  /// subclass outside the known families.
  [[nodiscard]] static FrozenSampler compile(const DistributionPtr& dist);

  /// Draw one variate.
  double operator()(des::Pcg32& rng) const {
    switch (kind_) {
      case Kind::kDeterministic:
        return a_;
      case Kind::kUniform:  // a_ = lo, b_ = hi - lo
        return a_ + rng.next_double() * b_;
      case Kind::kExponential:  // a_ = mean
        return a_ * ziggurat_exponential(rng);
      case Kind::kLognormal:  // a_ = mu, b_ = sigma
        return std::exp(a_ + b_ * ziggurat_normal(rng));
      case Kind::kWeibull:  // a_ = scale, b_ = 1 / shape
        return a_ * std::pow(ziggurat_exponential(rng), b_);
      case Kind::kEmpirical:
        return (*alias_)(rng);
    }
    return a_;  // unreachable
  }

 private:
  enum class Kind : std::uint8_t {
    kDeterministic,
    kUniform,
    kExponential,
    kLognormal,
    kWeibull,
    kEmpirical,  ///< Walker alias table.
  };

  Kind kind_ = Kind::kDeterministic;
  double a_ = 0.0;
  double b_ = 0.0;
  /// Shared alias table; only set for kEmpirical.
  std::shared_ptr<const AliasTable> alias_;
};

}  // namespace paradyn::stats
