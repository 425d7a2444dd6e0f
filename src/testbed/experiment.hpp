// The testbed experiment driver (Section 5's measurement-based testing).
//
// Wires up a real mini instrumentation system on the host:
//
//   app thread(s)  --pipe-->  daemon thread  --pipe-->  collector thread
//
// The application thread runs a NAS-like kernel (bt or is) and, every
// sampling period, writes `metrics_per_sample` instrumentation samples into
// its pipe (Paradyn samples one value per enabled metric-focus pair).  The
// daemon drains the pipes in bulk and forwards to the collector under CF
// (one write(2) per sample) or BF (one write(2) per batch).  The daemon ->
// collector pipe is in packet mode, so it carries one message per forward
// and the collector receives each with its own read(2): the main process's
// cost follows the number of forwards, as in the paper, and not the CPU the
// kernel happens to wake the collector on.  Per-thread CPU times are
// measured with CLOCK_THREAD_CPUTIME_ID, standing in for the paper's AIX
// trace analysis.
#pragma once

#include <cstdint>
#include <string>

#include "stats/summary.hpp"

namespace paradyn::testbed {

struct TestbedConfig {
  std::string workload = "bt";        ///< "bt" (pvmbt-like) or "is" (pvmis-like).
  double duration_sec = 1.0;          ///< Wall-clock run length.
  double sampling_period_ms = 10.0;   ///< Paper tests 10 and 30 ms.
  int metrics_per_sample = 50;        ///< Samples written per sampling tick.
  int batch_size = 1;                 ///< 1 == CF; >1 == BF.
  int app_threads = 1;
  /// Paradyn daemons; app threads are assigned round-robin (Figure 29: one
  /// Pd per node).  Must not exceed app_threads.
  int daemon_threads = 1;

  void validate() const;
};

struct TestbedResult {
  double app_cpu_sec = 0.0;        ///< Summed over app threads.
  double daemon_cpu_sec = 0.0;     ///< Summed over daemons (Figure 30a's "Pd CPU time").
  double collector_cpu_sec = 0.0;  ///< The "main Paradyn CPU time" of Figure 30b.
  std::uint64_t samples_sent = 0;
  std::uint64_t samples_received = 0;
  std::uint64_t forward_syscalls = 0;  ///< write(2) calls daemon -> collector.
  std::uint64_t collector_reads = 0;   ///< Non-empty reads; one per forward that fits a packet.
  std::uint64_t app_chunks = 0;        ///< Workload progress (perturbation check).
  stats::SummaryStats latency_ms;      ///< Generation -> collector receipt.

  /// Daemon (or collector) CPU time normalized by the total measured CPU
  /// time, as in Figure 31.
  [[nodiscard]] double normalized_daemon_pct() const;
  [[nodiscard]] double normalized_collector_pct() const;
  [[nodiscard]] double total_cpu_sec() const {
    return app_cpu_sec + daemon_cpu_sec + collector_cpu_sec;
  }
};

/// Run one testbed experiment.  Spawns the threads, runs for
/// config.duration_sec, joins, and reports.  Throws on invalid config or
/// system errors.
[[nodiscard]] TestbedResult run_testbed(const TestbedConfig& config);

}  // namespace paradyn::testbed
