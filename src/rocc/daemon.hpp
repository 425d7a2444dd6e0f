// Paradyn daemon (Pd) model.
//
// A serial server that drains samples from the pipes of the application
// processes it instruments.  Per sample it spends *collect* CPU; per
// forwarding operation it spends *forward* CPU followed by a network
// occupancy (a blocking send).  Under CF every sample is forwarded
// immediately (batch size 1); under BF samples accumulate until the batch
// is full (Figure 3).  In the MPP binary-tree configuration a non-leaf
// daemon additionally receives batches from its children, spends *merge*
// CPU per received batch, and forwards the merged unit to its parent
// (Figure 4b, Section 3.3).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "des/engine.hpp"
#include "des/random.hpp"
#include "obs/trace.hpp"
#include "rocc/config.hpp"
#include "rocc/cpu.hpp"
#include "rocc/metrics.hpp"
#include "rocc/network.hpp"
#include "rocc/pipe.hpp"
#include "rocc/ring.hpp"
#include "stats/sampler.hpp"

namespace paradyn::rocc {

class ParadynDaemon {
 public:
  ParadynDaemon(des::Engine& engine, const SystemConfig& config, CpuResource& cpu,
                NetworkResource& network, MetricsCollector& metrics, des::RngStream rng,
                std::int32_t node);

  ParadynDaemon(const ParadynDaemon&) = delete;
  ParadynDaemon& operator=(const ParadynDaemon&) = delete;

  /// Register a pipe this daemon drains (one per instrumented process).
  void attach_pipe(Pipe& pipe);

  /// The daemon's one destination: every completed forward goes to `sink`
  /// inside the event that cleared the network.  Simulation routes it to
  /// the tree parent or the main process, now or one uplink latency later.
  /// The sink takes the batch by value: the daemon moves it out and keeps
  /// nothing of it.  Must be set before start().
  void set_forward_sink(std::function<void(Batch)> sink) {
    forward_sink_ = std::move(sink);
  }

  /// Begin draining pipes.
  void start();

  /// Tree configuration: accept a batch forwarded by a child daemon.
  void receive_from_child(Batch batch);

  /// Fault injection: stop draining/forwarding until `until` (simulated
  /// time).  An in-flight operation completes; new work waits.  The daemon
  /// resumes automatically.  Overlapping stalls extend to the latest
  /// deadline (max), so same-target windows compose order-independently.
  void stall_until(SimTime until);
  [[nodiscard]] bool stalled() const noexcept;

  /// Fault injection: the daemon process dies and restarts at `until`.
  /// Unlike a stall, all in-memory state — the accumulating batch, merged
  /// child samples, and queued child batches — is destroyed (counted into
  /// MetricsCollector::samples_dropped); pipes survive (kernel buffers).
  void crash_until(SimTime until);

  /// Fault repair (restart_daemon): kill and re-warm the process *now* —
  /// buffered in-memory samples are lost exactly as in crash_until, any
  /// pending stall/crash deadline is cleared, and draining resumes
  /// immediately.  Returns the number of buffered samples lost.
  std::uint64_t restart_now();

  /// Cascade fault: multiply this daemon's forwarding network occupancy by
  /// `factor` (1 = nominal).  Models a stalled neighbor degrading this
  /// daemon's uplink without touching the shared interconnect resource.
  void set_net_penalty(double factor) noexcept { net_penalty_ = factor; }
  [[nodiscard]] double net_penalty() const noexcept { return net_penalty_; }

  [[nodiscard]] std::int32_t node() const noexcept { return node_; }
  [[nodiscard]] std::uint64_t samples_collected() const noexcept { return samples_collected_; }
  [[nodiscard]] std::uint64_t batches_forwarded() const noexcept { return batches_forwarded_; }
  [[nodiscard]] std::uint64_t batches_merged() const noexcept { return batches_merged_; }

  /// Observability: collect/merge/forward spans plus pipe-dequeue instants
  /// on `track`, and per-sample lifecycle progress marks.
  void set_tracer(obs::Tracer* tracer, std::int32_t track) noexcept {
    tracer_ = tracer;
    track_ = track;
  }

 private:
  /// Kill the process image: count and discard all buffered in-memory
  /// samples, cancel the flush timer.  Shared by crash_until/restart_now.
  std::uint64_t kill_buffers();
  /// Pick the next piece of work if idle: a due flush of en-route data, a
  /// child batch to merge, else a sample from the pipes (round-robin),
  /// else go idle.
  void try_start();
  /// The flush timer fired: merged child content must not wait longer than
  /// one sampling period for the local batch to fill.
  void on_flush_due();
  void start_collect(const Sample& sample);
  void on_collect_done();
  void start_merge(Batch batch);
  void on_merge_done();
  /// Forward the current local batch (CF: single sample) to the sink.
  void begin_forward_local();
  /// CPU(forward) then network occupancy then delivery.
  void forward_batch(Batch batch);
  void on_forward_cpu_done();
  void on_forward_done();

  des::Engine& engine_;
  const SystemConfig& config_;
  CpuResource& cpu_;
  NetworkResource& network_;
  MetricsCollector& metrics_;
  // Per-sample cost distributions frozen into inline samplers (hot path).
  stats::FrozenSampler collect_cpu_;
  stats::FrozenSampler forward_cpu_;
  stats::FrozenSampler net_occupancy_;
  stats::FrozenSampler merge_cpu_;
  des::RngStream rng_;
  std::int32_t node_;

  std::vector<Pipe*> pipes_;
  std::size_t next_pipe_ = 0;
  Ring<Batch> merge_queue_;
  std::vector<Sample> pending_batch_;
  /// Samples merged from children, waiting to ride the next local forward.
  std::vector<Sample> merged_pending_;
  SimTime merged_pending_earliest_ = 0.0;
  des::EventHandle flush_timer_;
  bool flush_due_ = false;
  bool busy_ = false;
  SimTime stalled_until_ = 0.0;
  double net_penalty_ = 1.0;

  std::function<void(Batch)> forward_sink_;

  std::uint64_t samples_collected_ = 0;
  std::uint64_t batches_forwarded_ = 0;
  std::uint64_t batches_merged_ = 0;

  obs::Tracer* tracer_ = nullptr;
  std::int32_t track_ = 0;
  /// The one in-flight collect, merge or forward (busy_ serializes them):
  /// its start time, its sample or batch, and the service times drawn for
  /// the profiler's hop markers.  Completions capture only `this`.  A
  /// crash or restart leaves these alone; the in-flight operation
  /// completes.  on_forward_done() moves the batch out to the sink.
  SimTime op_started_at_ = 0.0;
  Sample op_sample_;
  Batch op_batch_;
  SimTime last_collect_cpu_us_ = 0.0;
  double last_net_occupancy_us_ = 0.0;
};

}  // namespace paradyn::rocc
