// Network resource.
//
// Two contention models (Section 2.1 / Section 4):
//  * SharedSingleServer — one FIFO server for the whole system: the shared
//    Ethernet of a NOW or the shared bus of an SMP.  "Network delays are
//    represented by the arrivals to a single server buffer" (Figure 2).
//  * ContentionFree — a high-speed dedicated MPP interconnect: every
//    occupancy request is served immediately (pure delay / infinite-server
//    station), as assumed in Section 4.4.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "des/engine.hpp"
#include "obs/trace.hpp"
#include "rocc/ring.hpp"
#include "rocc/types.hpp"

namespace paradyn::rocc {

/// One network occupancy request.
struct NetRequest {
  SimTime duration = 0.0;
  ProcessClass pclass = ProcessClass::Application;
  /// Originating node, for the optional per-node busy accounting (-1 =
  /// unattributed; only counted when enable_node_accounting() was called).
  std::int32_t node = -1;
  /// Invoked when the occupancy completes (message delivered).  May be
  /// empty for fire-and-forget background traffic.
  SmallCallback on_complete;
};

class NetworkResource {
 public:
  NetworkResource(des::Engine& engine, NetworkContention contention);

  NetworkResource(const NetworkResource&) = delete;
  NetworkResource& operator=(const NetworkResource&) = delete;

  void submit(NetRequest request);

  /// Total network busy time accumulated by a process class.  For the
  /// contention-free model this is the summed occupancy (utilization of an
  /// infinitely wide resource).
  [[nodiscard]] SimTime busy_time(ProcessClass c) const noexcept {
    return busy_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] SimTime busy_time_total() const noexcept;

  /// Zero the per-class busy-time accounting (warm-up deletion).
  void reset_accounting() noexcept {
    busy_.fill(0.0);
    for (auto& per_node : busy_node_) per_node.fill(0.0);
  }

  /// Opt into per-originating-node busy accounting for `nodes` nodes.
  /// Simulation enables it on every shard's network replica and rebuilds
  /// the global per-class totals by summing per-node contributions in node
  /// order — a canonical floating-point order independent of the shard
  /// count.
  void enable_node_accounting(std::int32_t nodes) {
    busy_node_.assign(static_cast<std::size_t>(nodes), {});
  }

  /// Busy time attributed to `node` for class `c` (0 if accounting is off
  /// or the request carried no node).
  [[nodiscard]] SimTime busy_time_node(std::int32_t node, ProcessClass c) const noexcept {
    const auto n = static_cast<std::size_t>(node);
    if (n >= busy_node_.size()) return 0.0;
    return busy_node_[n][static_cast<std::size_t>(c)];
  }

  /// Fault injection: stretch every subsequently submitted occupancy by
  /// `factor` (a degraded link).  In-flight occupancies are unaffected;
  /// restore with factor 1.
  void set_slowdown(double factor) noexcept { slowdown_ = factor; }
  [[nodiscard]] double slowdown() const noexcept { return slowdown_; }

  [[nodiscard]] NetworkContention contention() const noexcept { return contention_; }
  /// Requests waiting or in service (shared mode only; 0 when idle).
  [[nodiscard]] std::size_t backlog() const noexcept {
    return queue_.size() + (server_busy_ ? 1 : 0);
  }

  /// Observability: record every occupancy interval as a span (named by
  /// process class) on `track`.  Spans start at service start, so queueing
  /// delay on the shared server is visible as the gap after submit.
  void set_tracer(obs::Tracer* tracer, std::int32_t track) noexcept {
    tracer_ = tracer;
    track_ = track;
  }

 private:
  void start_next();
  void on_service_done();
  void on_cf_done(std::uint32_t slot);

  des::Engine& engine_;
  NetworkContention contention_;
  bool server_busy_ = false;
  Ring<NetRequest> queue_;
  /// Shared server: completion callback of the request in service (at most
  /// one); the completion event captures only {this}.
  SmallCallback in_service_;
  /// Contention-free (infinite-server): completion callbacks of in-flight
  /// occupancies in reusable slots, so each delay event captures only
  /// {this, slot}.
  std::vector<SmallCallback> inflight_;
  std::vector<std::uint32_t> inflight_free_;
  double slowdown_ = 1.0;
  std::array<SimTime, trace::kNumProcessClasses> busy_{};
  std::vector<std::array<SimTime, trace::kNumProcessClasses>> busy_node_;
  obs::Tracer* tracer_ = nullptr;
  std::int32_t track_ = 0;
};

}  // namespace paradyn::rocc
