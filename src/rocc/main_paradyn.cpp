#include "rocc/main_paradyn.hpp"

namespace paradyn::rocc {

MainParadyn::MainParadyn(des::Engine& engine, const SystemConfig& config, CpuResource& host_cpu,
                         MetricsCollector& metrics, des::RngStream rng)
    : engine_(engine),
      config_(config),
      host_cpu_(host_cpu),
      metrics_(metrics),
      main_cpu_(stats::FrozenSampler::compile(config.main_cpu, config.sampler_backend())),
      rng_(rng) {}

void MainParadyn::receive(const Batch& batch) {
  const SimTime latency = engine_.now() - batch.forward_started_at;
  for (std::int32_t i = 0; i < batch.sample_count(); ++i) {
    metrics_.latency_us.add(latency);
    if (metrics_.record_latency_series) metrics_.latency_series_us.push_back(latency);
  }
  ++batches_received_;
  samples_received_ += static_cast<std::uint64_t>(batch.sample_count());
  metrics_.samples_delivered += static_cast<std::uint64_t>(batch.sample_count());
  ++metrics_.batches_delivered;

  if (tracer_ != nullptr) {
    tracer_->instant("main", "deliver", track_, engine_.now(), "samples",
                     static_cast<double>(batch.sample_count()), "latency_us", latency);
    for (const Sample& s : batch.samples) {
      tracer_->async_end("sample", "lifecycle", s.id, track_, engine_.now());
    }
  }

  // Hand the metric values to the Data Manager's consumers (e.g. the
  // Performance Consultant's bottleneck search).
  if (sample_sink_) {
    for (const Sample& s : batch.samples) sample_sink_(s);
  }

  // The Data Manager consumes the unit: one CPU occupancy request on the
  // host node per delivery.  Consumption is serialized — the main process
  // handles one unit at a time, so its CPU occupancy cannot exceed one
  // processor even on an SMP pool.
  ++pending_;
  consume_next();
}

void MainParadyn::consume_next() {
  if (busy_ || pending_ == 0) return;
  busy_ = true;
  --pending_;
  const SimTime t0 = engine_.now();
  host_cpu_.submit(
      CpuRequest{main_cpu_(rng_), ProcessClass::MainParadyn, [this, t0] {
                   if (tracer_ != nullptr) {
                     tracer_->complete("main", "consume", track_, t0, engine_.now() - t0);
                     tracer_->counter("main.backlog", engine_.now(),
                                      static_cast<double>(pending_));
                   }
                   busy_ = false;
                   consume_next();
                 }});
}

}  // namespace paradyn::rocc
