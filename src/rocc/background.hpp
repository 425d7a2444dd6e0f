// Background load: the PVM daemon and "other user/system processes" of
// Table 2, modeled as open arrival streams of CPU and network occupancy
// requests (they contend for resources but carry no instrumentation data).
#pragma once

#include "des/engine.hpp"
#include "des/random.hpp"
#include "rocc/config.hpp"
#include "rocc/cpu.hpp"
#include "rocc/network.hpp"
#include "stats/sampler.hpp"

namespace paradyn::rocc {

/// An open Poisson-like stream: every `interarrival` draw, submit one
/// occupancy request of `length` to a resource.  Fire-and-forget — requests
/// queue and complete without feedback to the arrival process.
class OpenArrivalStream {
 public:
  /// Exactly one of `cpu` / `network` must be non-null.  Both distributions
  /// are frozen into inline samplers.  `node` tags network requests for the
  /// optional per-node busy accounting.
  OpenArrivalStream(des::Engine& engine, stats::DistributionPtr interarrival,
                    stats::DistributionPtr length, ProcessClass pclass, CpuResource* cpu,
                    NetworkResource* network, des::RngStream rng, std::int32_t node = -1);

  OpenArrivalStream(const OpenArrivalStream&) = delete;
  OpenArrivalStream& operator=(const OpenArrivalStream&) = delete;

  void start();

 private:
  void on_arrival();

  des::Engine& engine_;
  stats::FrozenSampler interarrival_;
  stats::FrozenSampler length_;
  ProcessClass pclass_;
  CpuResource* cpu_;
  NetworkResource* network_;
  des::RngStream rng_;
  std::int32_t node_;
};

}  // namespace paradyn::rocc
