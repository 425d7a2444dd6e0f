// PDES partitioning of the ROCC model.
//
// Two pieces the Simulation build needs (every run is a des::ShardSet, one
// shard or many):
//
//  * PartitionPlan — the node -> shard map.  Nodes are cut into contiguous
//    blocks so shard 0 always owns node 0 (and with it the main Paradyn
//    process and, when configured, the dedicated main host CPU).
//
//  * resolve_cascades — build-time resolution of cascade faults.  Cascade
//    propagation is fully plan-determined: no model event ever schedules a
//    cascade event or draws from the cascade stream, so the whole BFS —
//    which neighbors are hit, and when — can be replayed before the run
//    starts by a miniature event loop that reproduces the engine's
//    (time, insertion-seq) execution order of the cascade events exactly,
//    consuming the kCascadeRngTag stream in the same order a runtime BFS
//    inside the fault's start event would.  The build then compiles the
//    precomputed hits into per-shard timed events.
#pragma once

#include <cstdint>
#include <vector>

#include "des/time.hpp"
#include "rocc/faults.hpp"
#include "rocc/types.hpp"

namespace paradyn::rocc {

struct PartitionPlan {
  std::size_t shards = 1;
  std::vector<std::size_t> node_shard;  // node index -> owning shard

  /// Contiguous blocks of ceil/floor(nodes/shards) nodes; the first
  /// `nodes % shards` blocks take the extra node.  Requires
  /// 1 <= shards <= nodes.
  [[nodiscard]] static PartitionPlan build(std::int32_t nodes, std::int32_t shards);

  [[nodiscard]] std::size_t shard_of(std::int32_t node) const {
    return node_shard[static_cast<std::size_t>(node)];
  }
};

/// One precomputed cascade hit: at `at_us` the cascade of plan fault
/// `fault_index` lands on `daemon` (an uplink penalty of
/// plan.faults[fault_index].cascade_factor until the parent window ends).
/// Hits are returned in engine execution order — the order of the induced
/// FaultOutcome rows.
struct CascadeHit {
  SimTime at_us = 0.0;
  std::size_t fault_index = 0;
  std::size_t daemon = 0;
};

/// Replay the cascade BFS of every cascade-bearing fault in `plan` against
/// the forwarding topology, drawing from RngStream(seed, 0, kCascadeRngTag)
/// in runtime BFS order.  Hits at or after the parent window's end are
/// filtered (the runtime check `now >= end`), including their RNG
/// consumption: a filtered hit propagates no further, and its Bernoulli draw
/// already happened at its parent's propagation step.  `horizon_us` is the
/// run length: the engine executes events at times <= horizon (run_until is
/// inclusive), so the replay stops — recording nothing and drawing nothing
/// further — once the next pending event lies strictly beyond it, exactly
/// like events left pending in the queue at the end of the run.
[[nodiscard]] std::vector<CascadeHit> resolve_cascades(const FaultPlan& plan,
                                                       std::size_t daemon_count,
                                                       ForwardingTopology topology,
                                                       std::uint64_t seed, SimTime horizon_us);

}  // namespace paradyn::rocc
