#include "rocc/partition.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "des/random.hpp"

namespace paradyn::rocc {

PartitionPlan PartitionPlan::build(std::int32_t nodes, std::int32_t shards) {
  if (nodes <= 0 || shards <= 0 || shards > nodes) {
    throw std::invalid_argument("PartitionPlan: need 1 <= shards <= nodes");
  }
  PartitionPlan plan;
  plan.shards = static_cast<std::size_t>(shards);
  plan.node_shard.reserve(static_cast<std::size_t>(nodes));
  const std::int32_t base = nodes / shards;
  const std::int32_t extra = nodes % shards;
  for (std::int32_t s = 0; s < shards; ++s) {
    const std::int32_t count = base + (s < extra ? 1 : 0);
    for (std::int32_t i = 0; i < count; ++i) plan.node_shard.push_back(static_cast<std::size_t>(s));
  }
  return plan;
}

namespace {

/// Daemon indices adjacent to `d` under the forwarding topology, ascending:
/// tree = parent + children; direct forwarding has no daemon-to-daemon
/// edges, so the index chain (d-1, d+1) gives cascades a topology.
std::vector<std::size_t> neighbors(std::size_t d, std::size_t daemon_count,
                                   ForwardingTopology topology) {
  std::vector<std::size_t> out;
  if (topology == ForwardingTopology::BinaryTree) {
    if (d > 0) out.push_back((d - 1) / 2);
    if (2 * d + 1 < daemon_count) out.push_back(2 * d + 1);
    if (2 * d + 2 < daemon_count) out.push_back(2 * d + 2);
  } else {
    if (d > 0) out.push_back(d - 1);
    if (d + 1 < daemon_count) out.push_back(d + 1);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct CascadeEvent {
  SimTime time = 0.0;
  std::uint64_t seq = 0;  // engine insertion order within the cascade subset
  enum : std::uint8_t { kApply, kHit } kind = kApply;
  std::size_t fault_index = 0;
  std::size_t daemon = 0;  // origin (kApply) or hit target (kHit)
  std::int32_t hop = 0;
};

struct LaterEvent {
  bool operator()(const CascadeEvent& a, const CascadeEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

std::vector<CascadeHit> resolve_cascades(const FaultPlan& plan, std::size_t daemon_count,
                                         ForwardingTopology topology, std::uint64_t seed,
                                         SimTime horizon_us) {
  std::vector<CascadeHit> hits;
  if (daemon_count == 0) return hits;
  bool any = false;
  for (const FaultSpec& f : plan.faults) any |= f.cascade_p > 0.0;
  if (!any) return hits;

  // The cascade events form a closed subsystem of the real engine's queue:
  // model events neither produce them nor consume the cascade stream, so
  // executing just this subset in (time, insertion-seq) order reproduces
  // both the draw order and the hit times of a runtime BFS.
  des::RngStream rng(seed, 0, kCascadeRngTag);
  std::priority_queue<CascadeEvent, std::vector<CascadeEvent>, LaterEvent> queue;
  std::uint64_t seq = 0;
  // Fault start events are scheduled at run start in plan order — before
  // any hit event exists — so they take the lowest sequence numbers.
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    const FaultSpec& f = plan.faults[i];
    const bool cascading = f.cascade_p > 0.0 && f.target >= 0 &&
                           (f.type == FaultType::DaemonStall || f.type == FaultType::DaemonCrash);
    if (!cascading) continue;
    queue.push(CascadeEvent{f.start_us, seq++, CascadeEvent::kApply, i,
                            static_cast<std::size_t>(f.target), 0});
  }

  std::vector<std::vector<char>> visited(plan.faults.size());
  const auto propagate = [&](std::size_t fault_index, std::size_t from, std::int32_t hop,
                             SimTime now) {
    const FaultSpec& f = plan.faults[fault_index];
    for (const std::size_t nb : neighbors(from, daemon_count, topology)) {
      if (visited[fault_index][nb] != 0) continue;
      visited[fault_index][nb] = 1;
      if (rng.next_double() >= f.cascade_p) continue;
      queue.push(
          CascadeEvent{now + f.cascade_delay_us, seq++, CascadeEvent::kHit, fault_index, nb, hop});
    }
  };

  while (!queue.empty()) {
    const CascadeEvent ev = queue.top();
    // Time-ordered heap: once the next event lies beyond the run length,
    // everything remaining does too — none of it would have executed (or
    // drawn) in a run.
    if (ev.time > horizon_us) break;
    queue.pop();
    const FaultSpec& f = plan.faults[ev.fault_index];
    if (ev.kind == CascadeEvent::kApply) {
      visited[ev.fault_index].assign(daemon_count, 0);
      visited[ev.fault_index][ev.daemon] = 1;
      propagate(ev.fault_index, ev.daemon, 1, ev.time);
      continue;
    }
    if (ev.time >= f.end_us()) continue;  // parent window already lifted
    hits.push_back(CascadeHit{ev.time, ev.fault_index, ev.daemon});
    if (ev.hop < f.cascade_hops) propagate(ev.fault_index, ev.daemon, ev.hop + 1, ev.time);
  }
  return hits;
}

}  // namespace paradyn::rocc
