#include "stats/sampler.hpp"

#include <stdexcept>
#include <vector>

#include "stats/empirical.hpp"

namespace paradyn::stats {

FrozenSampler FrozenSampler::compile(const DistributionPtr& dist) {
  if (!dist) throw std::invalid_argument("FrozenSampler::compile: null distribution");
  FrozenSampler s;

  if (const auto* d = dynamic_cast<const Deterministic*>(dist.get())) {
    s.kind_ = Kind::kDeterministic;
    s.a_ = d->mean();
    return s;
  }
  if (const auto* u = dynamic_cast<const Uniform*>(dist.get())) {
    s.kind_ = Kind::kUniform;
    s.a_ = u->quantile(0.0);
    s.b_ = u->quantile(1.0) - u->quantile(0.0);
    return s;
  }
  if (const auto* e = dynamic_cast<const Exponential*>(dist.get())) {
    s.kind_ = Kind::kExponential;
    s.a_ = e->mean();
    return s;
  }
  if (const auto* l = dynamic_cast<const Lognormal*>(dist.get())) {
    s.kind_ = Kind::kLognormal;
    s.a_ = l->mu();
    s.b_ = l->sigma();
    return s;
  }
  if (const auto* w = dynamic_cast<const Weibull*>(dist.get())) {
    s.kind_ = Kind::kWeibull;
    s.a_ = w->scale();
    s.b_ = 1.0 / w->shape();
    return s;
  }
  if (const auto* e = dynamic_cast<const Empirical*>(dist.get())) {
    // Walker alias table: the same mixture-of-segments distribution as
    // Empirical::quantile, O(1) per draw, but a different stream (KS-gated
    // in the stat_equiv suite).
    const auto values = e->values();
    const std::vector<double> sorted(values.begin(), values.end());
    s.kind_ = Kind::kEmpirical;
    s.alias_ = std::make_shared<const AliasTable>(AliasTable::from_sorted_values(sorted));
    return s;
  }

  throw std::invalid_argument("FrozenSampler::compile: unknown distribution family: " +
                              dist->describe());
}

}  // namespace paradyn::stats
