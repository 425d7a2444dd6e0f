#include "testbed/experiment.hpp"

#include <poll.h>

#include <atomic>
#include <cerrno>
#include <system_error>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "testbed/channel.hpp"
#include "testbed/cpu_timer.hpp"
#include "testbed/workload.hpp"

namespace paradyn::testbed {
namespace {

/// Application thread: run the kernel, emit samples every period.
void app_main(const TestbedConfig& cfg, int app_id, SampleChannel& to_daemon,
              std::atomic<bool>& stop_flag, double& cpu_out, std::uint64_t& sent_out,
              std::uint64_t& chunks_out) {
  const auto workload = make_workload(cfg.workload);
  const long long period_ns = static_cast<long long>(cfg.sampling_period_ms * 1e6);
  long long next_tick = monotonic_ns() + period_ns;
  std::uint64_t sent = 0;
  double sink = 0.0;

  while (!stop_flag.load(std::memory_order_relaxed)) {
    sink += workload->run_chunk();
    const long long now = monotonic_ns();
    if (now >= next_tick) {
      // Instrumentation fires: one sample per enabled metric, emitted as a
      // single block per sampling interval (as Paradyn's shared-memory
      // sampling does).  The CF/BF choice below is purely about how the
      // *daemon* forwards these samples to the main process.
      std::vector<WireSample> tick(static_cast<std::size_t>(cfg.metrics_per_sample));
      for (int m = 0; m < cfg.metrics_per_sample; ++m) {
        auto& s = tick[static_cast<std::size_t>(m)];
        s.generated_ns = monotonic_ns();
        s.app_id = app_id;
        s.metric_id = m;
        s.value = sink;
      }
      to_daemon.write_batch(tick);
      sent += tick.size();
      next_tick += period_ns;
      if (next_tick < now) next_tick = now + period_ns;  // missed ticks: realign
    }
  }
  chunks_out = workload->chunks_done();
  sent_out = sent;
  cpu_out = thread_cpu_seconds();
  to_daemon.close_write();
}

/// Daemon thread: drain app pipes, forward under CF or BF.
void daemon_main(const TestbedConfig& cfg, std::vector<SampleChannel*> from_apps,
                 SampleChannel& to_collector, double& cpu_out, std::uint64_t& syscalls_out) {
  std::vector<WireSample> batch;
  batch.reserve(static_cast<std::size_t>(cfg.batch_size));
  std::uint64_t forwards = 0;

  const auto flush = [&] {
    if (batch.empty()) return;
    to_collector.write_batch(batch);  // one write(2), CF or BF alike
    ++forwards;
    batch.clear();
  };

  std::vector<pollfd> fds(from_apps.size());
  std::vector<bool> open(from_apps.size(), true);
  std::size_t open_count = from_apps.size();

  while (open_count > 0) {
    for (std::size_t i = 0; i < from_apps.size(); ++i) {
      fds[i].fd = open[i] ? from_apps[i]->read_fd() : -1;
      fds[i].events = POLLIN;
      fds[i].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "poll");
    }
    for (std::size_t i = 0; i < from_apps.size(); ++i) {
      if (!open[i] || (fds[i].revents & (POLLIN | POLLHUP)) == 0) continue;
      // Drain in bulk: the daemon reads whatever the pipe holds (one read
      // system call), as the real Pd does.  The CF/BF difference lies
      // entirely in the number of forwarding writes below.
      const auto samples = from_apps[i]->read_some(64);
      if (samples.empty()) {
        open[i] = false;
        --open_count;
        continue;
      }
      for (const auto& sample : samples) {
        batch.push_back(sample);
        if (static_cast<int>(batch.size()) >= cfg.batch_size) flush();
      }
    }
  }
  flush();  // partial batch at shutdown
  syscalls_out = forwards;
  cpu_out = thread_cpu_seconds();
  to_collector.close_write();
}

/// Collector thread ("main Paradyn"): receive from all daemons, timestamp,
/// aggregate.  The daemon channels carry packets, so each read_some below
/// receives one forward: the CF/BF difference shows up as the number of
/// receives, whichever CPU the kernel wakes this thread on.
void collector_main(std::vector<SampleChannel*> from_daemons, double& cpu_out,
                    std::uint64_t& received_out, std::uint64_t& reads_out,
                    stats::SummaryStats& latency_out) {
  const std::size_t read_max = SampleChannel::min_packet_read();
  std::uint64_t received = 0;
  std::uint64_t reads = 0;
  stats::SummaryStats latency;
  double aggregate = 0.0;

  std::vector<pollfd> fds(from_daemons.size());
  std::vector<bool> open(from_daemons.size(), true);
  std::size_t open_count = from_daemons.size();

  while (open_count > 0) {
    for (std::size_t i = 0; i < from_daemons.size(); ++i) {
      fds[i].fd = open[i] ? from_daemons[i]->read_fd() : -1;
      fds[i].events = POLLIN;
      fds[i].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "poll");
    }
    for (std::size_t i = 0; i < from_daemons.size(); ++i) {
      if (!open[i] || (fds[i].revents & (POLLIN | POLLHUP)) == 0) continue;
      const auto samples = from_daemons[i]->read_some(read_max);
      if (samples.empty()) {
        open[i] = false;
        --open_count;
        continue;
      }
      ++reads;
      const long long now = monotonic_ns();
      for (const auto& s : samples) {
        latency.add(static_cast<double>(now - s.generated_ns) / 1e6);
        aggregate += s.value;  // Data Manager folds samples into time series
        ++received;
      }
    }
  }
  (void)aggregate;
  received_out = received;
  reads_out = reads;
  latency_out = latency;
  cpu_out = thread_cpu_seconds();
}

}  // namespace

void TestbedConfig::validate() const {
  if (workload != "bt" && workload != "is") {
    throw std::invalid_argument("TestbedConfig: workload must be 'bt' or 'is'");
  }
  if (!(duration_sec > 0.0)) throw std::invalid_argument("TestbedConfig: duration_sec > 0");
  if (!(sampling_period_ms > 0.0)) {
    throw std::invalid_argument("TestbedConfig: sampling_period_ms > 0");
  }
  if (metrics_per_sample <= 0) {
    throw std::invalid_argument("TestbedConfig: metrics_per_sample > 0");
  }
  if (batch_size <= 0) throw std::invalid_argument("TestbedConfig: batch_size > 0");
  if (app_threads <= 0) throw std::invalid_argument("TestbedConfig: app_threads > 0");
  if (daemon_threads <= 0 || daemon_threads > app_threads) {
    throw std::invalid_argument("TestbedConfig: daemon_threads must be in [1, app_threads]");
  }
}

double TestbedResult::normalized_daemon_pct() const {
  const double total = total_cpu_sec();
  return total > 0.0 ? 100.0 * daemon_cpu_sec / total : 0.0;
}

double TestbedResult::normalized_collector_pct() const {
  const double total = total_cpu_sec();
  return total > 0.0 ? 100.0 * collector_cpu_sec / total : 0.0;
}

TestbedResult run_testbed(const TestbedConfig& config) {
  config.validate();
  TestbedResult result;

  const auto num_daemons = static_cast<std::size_t>(config.daemon_threads);
  std::vector<std::unique_ptr<SampleChannel>> app_channels;
  for (int i = 0; i < config.app_threads; ++i) {
    app_channels.push_back(std::make_unique<SampleChannel>());
  }
  // Apps are assigned to daemons round-robin (one Pd per node, Figure 29).
  std::vector<std::vector<SampleChannel*>> daemon_inputs(num_daemons);
  for (int i = 0; i < config.app_threads; ++i) {
    daemon_inputs[static_cast<std::size_t>(i) % num_daemons].push_back(
        app_channels[static_cast<std::size_t>(i)].get());
  }
  std::vector<std::unique_ptr<SampleChannel>> daemon_channels;
  std::vector<SampleChannel*> collector_inputs;
  for (std::size_t d = 0; d < num_daemons; ++d) {
    daemon_channels.push_back(
        std::make_unique<SampleChannel>(SampleChannel::Framing::kPacket));
    collector_inputs.push_back(daemon_channels.back().get());
  }

  std::atomic<bool> stop{false};
  std::vector<double> app_cpu(static_cast<std::size_t>(config.app_threads), 0.0);
  std::vector<std::uint64_t> app_sent(static_cast<std::size_t>(config.app_threads), 0);
  std::vector<std::uint64_t> app_chunks(static_cast<std::size_t>(config.app_threads), 0);
  std::vector<double> daemon_cpu(num_daemons, 0.0);
  std::vector<std::uint64_t> daemon_syscalls(num_daemons, 0);

  std::vector<std::thread> apps;
  for (int i = 0; i < config.app_threads; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    apps.emplace_back(app_main, std::cref(config), i, std::ref(*app_channels[idx]),
                      std::ref(stop), std::ref(app_cpu[idx]), std::ref(app_sent[idx]),
                      std::ref(app_chunks[idx]));
  }
  std::vector<std::thread> daemons;
  for (std::size_t d = 0; d < num_daemons; ++d) {
    daemons.emplace_back(daemon_main, std::cref(config), daemon_inputs[d],
                         std::ref(*daemon_channels[d]), std::ref(daemon_cpu[d]),
                         std::ref(daemon_syscalls[d]));
  }
  std::thread collector(collector_main, collector_inputs, std::ref(result.collector_cpu_sec),
                        std::ref(result.samples_received), std::ref(result.collector_reads),
                        std::ref(result.latency_ms));

  std::this_thread::sleep_for(std::chrono::duration<double>(config.duration_sec));
  stop.store(true, std::memory_order_relaxed);

  for (auto& t : apps) t.join();
  for (auto& t : daemons) t.join();
  collector.join();

  for (std::size_t d = 0; d < num_daemons; ++d) {
    result.daemon_cpu_sec += daemon_cpu[d];
    result.forward_syscalls += daemon_syscalls[d];
  }

  for (int i = 0; i < config.app_threads; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    result.app_cpu_sec += app_cpu[idx];
    result.samples_sent += app_sent[idx];
    result.app_chunks += app_chunks[idx];
  }
  return result;
}

}  // namespace paradyn::testbed
