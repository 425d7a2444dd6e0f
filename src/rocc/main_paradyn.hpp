// Main Paradyn process model.
//
// The logically central collection facility: receives forwarding units from
// the daemons, records monitoring latency (time since the forwarding
// operation started — equation (4)'s residence-time view), and spends CPU
// on its host node per received unit (Data Manager / Performance Consultant
// work, Table 1's main-process occupancy statistics).
#pragma once

#include <cstdint>
#include <functional>

#include "des/engine.hpp"
#include "des/random.hpp"
#include "obs/trace.hpp"
#include "rocc/config.hpp"
#include "rocc/cpu.hpp"
#include "rocc/metrics.hpp"
#include "stats/sampler.hpp"

namespace paradyn::rocc {

class MainParadyn {
 public:
  MainParadyn(des::Engine& engine, const SystemConfig& config, CpuResource& host_cpu,
              MetricsCollector& metrics, des::RngStream rng);

  MainParadyn(const MainParadyn&) = delete;
  MainParadyn& operator=(const MainParadyn&) = delete;

  /// Accept a delivered forwarding unit.
  void receive(const Batch& batch);

  /// Register a consumer for every delivered sample (the Data Manager
  /// "distributes performance metrics" to other threads — here to the
  /// Performance Consultant).
  void set_sample_sink(std::function<void(const Sample&)> sink) {
    sample_sink_ = std::move(sink);
  }

  [[nodiscard]] std::uint64_t batches_received() const noexcept { return batches_received_; }
  [[nodiscard]] std::uint64_t samples_received() const noexcept { return samples_received_; }
  /// Units delivered but not yet consumed by the Data Manager.
  [[nodiscard]] std::size_t backlog() const noexcept { return pending_ + (busy_ ? 1u : 0u); }

  /// Observability: delivery instants, per-sample lifecycle ends, consume
  /// spans, and a backlog counter series on `track`.
  void set_tracer(obs::Tracer* tracer, std::int32_t track) noexcept {
    tracer_ = tracer;
    track_ = track;
  }

 private:
  void consume_next();
  void on_consume_done();

  des::Engine& engine_;
  const SystemConfig& config_;
  CpuResource& host_cpu_;
  MetricsCollector& metrics_;
  // Per-unit Data Manager CPU demand frozen into an inline sampler.
  stats::FrozenSampler main_cpu_;
  des::RngStream rng_;
  std::uint64_t batches_received_ = 0;
  std::uint64_t samples_received_ = 0;
  std::function<void(const Sample&)> sample_sink_;
  std::size_t pending_ = 0;
  bool busy_ = false;
  /// Start of the one in-flight consume (busy_ serializes them), so the
  /// completion captures only `this`.
  SimTime consume_started_at_ = 0.0;
  obs::Tracer* tracer_ = nullptr;
  std::int32_t track_ = 0;
};

}  // namespace paradyn::rocc
