// Serial reference for replicated runs.
//
// One Simulation per replication, seeds seed, seed + 1, ..., run in order
// on the calling thread: the oracle ParallelRunner's determinism tests and
// the replication tests compare against.
#pragma once

#include <cstddef>
#include <vector>

#include "rocc/simulation.hpp"

namespace paradyn::rocc {

/// Run `replications` simulations with seeds seed, seed+1, ... and return
/// all results in seed order.
[[nodiscard]] std::vector<SimulationResult> run_replications(SystemConfig config,
                                                             std::size_t replications);

}  // namespace paradyn::rocc
