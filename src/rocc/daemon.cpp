#include "rocc/daemon.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace paradyn::rocc {

ParadynDaemon::ParadynDaemon(des::Engine& engine, const SystemConfig& config, CpuResource& cpu,
                             NetworkResource& network, MetricsCollector& metrics,
                             des::RngStream rng, std::int32_t node)
    : engine_(engine),
      config_(config),
      cpu_(cpu),
      network_(network),
      metrics_(metrics),
      collect_cpu_(stats::FrozenSampler::compile(config.pd.collect_cpu)),
      forward_cpu_(stats::FrozenSampler::compile(config.pd.forward_cpu)),
      net_occupancy_(stats::FrozenSampler::compile(config.pd.net_occupancy)),
      merge_cpu_(stats::FrozenSampler::compile(config.pd.merge_cpu)),
      rng_(rng),
      node_(node) {}

void ParadynDaemon::attach_pipe(Pipe& pipe) { pipes_.push_back(&pipe); }

void ParadynDaemon::start() {
  if (!forward_sink_) {
    throw std::logic_error("ParadynDaemon: no forwarding destination configured");
  }
  try_start();
}

void ParadynDaemon::receive_from_child(Batch batch) {
  merge_queue_.push_back(std::move(batch));
  try_start();
}

void ParadynDaemon::stall_until(SimTime until) {
  // Overlapping windows extend, never shrink: a second stall ending before
  // an active one must not wake the daemon early (commutative overlap).
  stalled_until_ = std::max(stalled_until_, until);
  engine_.schedule_at(until, [this] { try_start(); });
}

bool ParadynDaemon::stalled() const noexcept { return engine_.now() < stalled_until_; }

std::uint64_t ParadynDaemon::kill_buffers() {
  std::uint64_t lost = pending_batch_.size() + merged_pending_.size();
  for (std::size_t i = 0; i < merge_queue_.size(); ++i) lost += merge_queue_[i].sample_count();
  metrics_.samples_dropped += lost;
  pending_batch_.clear();
  merged_pending_.clear();
  merge_queue_.clear();
  flush_due_ = false;
  engine_.cancel(flush_timer_);
  return lost;
}

void ParadynDaemon::crash_until(SimTime until) {
  kill_buffers();
  stall_until(until);
}

std::uint64_t ParadynDaemon::restart_now() {
  const std::uint64_t lost = kill_buffers();
  stalled_until_ = engine_.now();
  try_start();  // no-op if an in-flight operation still holds busy_
  return lost;
}

void ParadynDaemon::try_start() {
  if (busy_ || stalled()) return;

  // A due flush outranks new work: en-route samples must not age more than
  // one sampling period per hop waiting for the local batch to fill.
  if (flush_due_ && !(merged_pending_.empty() && pending_batch_.empty())) {
    begin_forward_local();
    return;
  }

  // Merged traffic first: en-route samples have already paid latency.
  if (!merge_queue_.empty()) {
    start_merge(merge_queue_.pop_front());
    return;
  }

  // Round-robin over the pipes of the local application processes.
  for (std::size_t scanned = 0; scanned < pipes_.size(); ++scanned) {
    Pipe& pipe = *pipes_[next_pipe_];
    next_pipe_ = (next_pipe_ + 1) % pipes_.size();
    if (auto sample = pipe.try_get()) {
      if (tracer_ != nullptr) {
        tracer_->instant("pipe", "dequeue", track_, engine_.now(), "depth",
                         static_cast<double>(pipe.size()));
        // Hop boundary for the profiler: the sample left the pipe.
        tracer_->async_instant("sample", "lifecycle", sample->id, track_, engine_.now(), "deq",
                               static_cast<double>(pipe.size()));
      }
      start_collect(*sample);
      return;
    }
  }

  // Nothing to do: sleep until any pipe signals data.
  for (Pipe* pipe : pipes_) {
    pipe->notify_on_data([this] { try_start(); });
  }
}

void ParadynDaemon::start_collect(const Sample& sample) {
  busy_ = true;
  op_started_at_ = engine_.now();
  op_sample_ = sample;
  last_collect_cpu_us_ = collect_cpu_(rng_);
  cpu_.submit(CpuRequest{last_collect_cpu_us_, ProcessClass::ParadynDaemon,
                         [this] { on_collect_done(); }});
}

void ParadynDaemon::on_collect_done() {
  ++samples_collected_;
  if (tracer_ != nullptr) {
    tracer_->complete("daemon", "collect", track_, op_started_at_,
                      engine_.now() - op_started_at_);
    tracer_->async_instant("sample", "lifecycle", op_sample_.id, track_, engine_.now(),
                           "collect", last_collect_cpu_us_);
  }
  pending_batch_.push_back(op_sample_);
  if (static_cast<std::int32_t>(pending_batch_.size()) >= config_.batch_size) {
    begin_forward_local();
  } else {
    busy_ = false;
    try_start();
  }
}

void ParadynDaemon::begin_forward_local() {
  // The outgoing unit carries the local batch plus everything merged from
  // the children since the last forward: tree aggregation keeps every
  // daemon's outgoing unit rate at its own lambda (equation (14)) instead
  // of multiplying units along the path to the root.
  Batch batch;
  batch.forward_started_at = engine_.now();
  batch.origin_node = node_;
  batch.samples = std::move(pending_batch_);
  pending_batch_.clear();
  if (!merged_pending_.empty()) {
    batch.forward_started_at = std::min(batch.forward_started_at, merged_pending_earliest_);
    batch.samples.insert(batch.samples.end(), merged_pending_.begin(), merged_pending_.end());
    merged_pending_.clear();
  }
  flush_due_ = false;
  engine_.cancel(flush_timer_);
  forward_batch(std::move(batch));
}

void ParadynDaemon::start_merge(Batch batch) {
  busy_ = true;
  op_started_at_ = engine_.now();
  op_batch_ = std::move(batch);
  cpu_.submit(CpuRequest{merge_cpu_(rng_), ProcessClass::ParadynDaemon,
                         [this] { on_merge_done(); }});
}

void ParadynDaemon::on_merge_done() {
  ++batches_merged_;
  if (tracer_ != nullptr) {
    tracer_->complete("daemon", "merge", track_, op_started_at_, engine_.now() - op_started_at_,
                      "samples", static_cast<double>(op_batch_.sample_count()));
  }
  // Fold the child's samples into the next local forwarding unit; keep the
  // earliest forwarding start so monitoring latency accumulates across tree
  // hops (equation (16)).
  const bool was_empty = merged_pending_.empty();
  if (was_empty || op_batch_.forward_started_at < merged_pending_earliest_) {
    merged_pending_earliest_ = op_batch_.forward_started_at;
  }
  merged_pending_.insert(merged_pending_.end(), op_batch_.samples.begin(),
                         op_batch_.samples.end());
  op_batch_.samples = {};
  if (was_empty && !flush_timer_.pending() && !flush_due_) {
    flush_timer_ =
        engine_.schedule_after(config_.sampling_period_us, [this] { on_flush_due(); });
  }
  busy_ = false;
  try_start();
}

void ParadynDaemon::forward_batch(Batch batch) {
  busy_ = true;
  op_started_at_ = engine_.now();
  op_batch_ = std::move(batch);
  if (tracer_ != nullptr) {
    // Hop boundary for the profiler: each rider leaves the daemon stage.
    for (const Sample& s : op_batch_.samples) {
      tracer_->async_instant("sample", "lifecycle", s.id, track_, op_started_at_, "fwd",
                             static_cast<double>(op_batch_.sample_count()));
    }
  }
  cpu_.submit(CpuRequest{forward_cpu_(rng_), ProcessClass::ParadynDaemon,
                         [this] { on_forward_cpu_done(); }});
}

void ParadynDaemon::on_forward_cpu_done() {
  // The paper assumes a merged/batched unit occupies the network like a
  // single sample.  net_penalty_ is exactly 1.0 outside cascade windows, so
  // the multiply is bit-neutral for cascade-free runs.
  last_net_occupancy_us_ = net_occupancy_(rng_) * net_penalty_;
  network_.submit(NetRequest{last_net_occupancy_us_, ProcessClass::ParadynDaemon, node_,
                             [this] { on_forward_done(); }});
}

void ParadynDaemon::on_forward_done() {
  ++batches_forwarded_;
  if (tracer_ != nullptr) {
    // Spans CPU(forward) + blocking send.
    tracer_->complete("daemon", "forward", track_, op_started_at_,
                      engine_.now() - op_started_at_, "samples",
                      static_cast<double>(op_batch_.sample_count()));
    // Hop boundary: the batch cleared the network; arg is the batch
    // occupancy the sample rode on.
    for (const Sample& s : op_batch_.samples) {
      tracer_->async_instant("sample", "lifecycle", s.id, track_, engine_.now(), "net",
                             last_net_occupancy_us_);
    }
  }
  forward_sink_(std::move(op_batch_));
  busy_ = false;
  try_start();
}

void ParadynDaemon::on_flush_due() {
  flush_due_ = true;
  try_start();
}

}  // namespace paradyn::rocc
