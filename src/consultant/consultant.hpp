// Simplified Performance Consultant — the consumer of the IS data stream.
//
// Paradyn's Performance Consultant "controls the automated search for
// performance problems, requesting and receiving performance data from the
// Data Manager" and implements the W3 search (why / where / when) for
// on-the-fly bottleneck location (Section 2 of the paper; Hollingsworth et
// al., SHPCC'94).  This module reproduces the search skeleton the IS
// exists to feed:
//
//   why:   hypotheses — CPUBound, CommunicationBound, SyncWaiting — are
//          tested against thresholds on windowed metric means;
//   where: a confirmed hypothesis is refined along the machine resource
//          hierarchy (whole program -> node -> process) to locate the
//          offending focus;
//   when:  tests run continuously over a sliding window, so conclusions
//          can appear and expire as program phases change.
//
// The consultant consumes rocc::Sample values via MainParadyn's sample
// sink, so everything it sees has paid the full collection/forwarding path
// (including monitoring latency — stale data delays diagnosis, which is
// why the paper treats latency as a first-class IS metric).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "rocc/types.hpp"

namespace paradyn::consultant {

/// The "why" axis of the W3 search.
enum class Hypothesis : std::uint8_t {
  CpuBound,            ///< computation fraction above threshold
  CommunicationBound,  ///< communication fraction above threshold
  SyncWaiting,         ///< neither computing nor communicating (blocked)
};

[[nodiscard]] const char* to_string(Hypothesis h) noexcept;

/// The "where" axis of the resource hierarchy: whole program, one node, or
/// one process on a node (Paradyn refines foci along such hierarchies).
struct Focus {
  bool whole_program = true;
  std::int32_t node = -1;
  std::int32_t process = -1;  ///< -1: node-level focus.

  [[nodiscard]] std::string describe() const;
};

/// A confirmed (hypothesis, focus) pair with its supporting evidence.
struct Finding {
  Hypothesis hypothesis = Hypothesis::CpuBound;
  Focus focus;
  double observed = 0.0;   ///< Windowed metric mean that tripped the test.
  double threshold = 0.0;
  std::size_t samples = 0; ///< Evidence size.
};

struct ConsultantConfig {
  double cpu_bound_threshold = 0.85;
  double comm_bound_threshold = 0.30;
  double sync_waiting_threshold = 0.40;
  /// Sliding-window length per focus, in samples.
  std::size_t window = 32;
  /// Minimum evidence before a test may conclude.
  std::size_t min_samples = 8;
  /// Refine to per-node foci only when the node deviates from the global
  /// mean by at least this much (keeps the search from flagging everyone).
  double refinement_margin = 0.05;
};

/// Streaming W3-style search over delivered samples.
class PerformanceConsultant {
 public:
  explicit PerformanceConsultant(ConsultantConfig config = {});

  /// Feed one delivered sample (wire this to MainParadyn::set_sample_sink).
  void observe(const rocc::Sample& sample);

  /// Run the two-level search on the current windows.  Global findings come
  /// first, then per-node refinements ordered by metric severity.
  [[nodiscard]] std::vector<Finding> search() const;

  /// The "when" axis: a (hypothesis, focus) pair's confirmation episode.
  struct Episode {
    Hypothesis hypothesis = Hypothesis::CpuBound;
    Focus focus;
    rocc::SimTime first_confirmed_us = 0.0;
    rocc::SimTime last_confirmed_us = 0.0;
    std::size_t confirmations = 0;
  };

  /// Run search() and fold the confirmed findings into the episode history,
  /// timestamped with the latest sample time observed.  Call periodically
  /// (e.g. once per delivered batch) to track when conclusions appear.
  std::vector<Finding> search_and_record();

  /// Episode history in first-confirmation order.
  [[nodiscard]] const std::vector<Episode>& history() const noexcept { return history_; }
  /// Latest sample generation time seen.
  [[nodiscard]] rocc::SimTime now() const noexcept { return now_us_; }

  /// Windowed mean of a hypothesis metric for a node (NaN-free; 0 if no
  /// evidence).  Exposed for tests and reporting.
  [[nodiscard]] double node_mean(Hypothesis h, std::int32_t node) const;
  [[nodiscard]] std::uint64_t samples_observed() const noexcept { return observed_; }
  [[nodiscard]] std::vector<std::int32_t> known_nodes() const;

 private:
  struct Window {
    std::vector<double> cpu;   // ring buffers of metric values
    std::vector<double> comm;
    std::size_t next = 0;
    std::size_t filled = 0;

    void push(double cpu_frac, double comm_frac, std::size_t capacity);
    [[nodiscard]] double mean_cpu() const;
    [[nodiscard]] double mean_comm() const;
  };

  [[nodiscard]] double metric_of(const Window& w, Hypothesis h) const;
  [[nodiscard]] double threshold_of(Hypothesis h) const;

  ConsultantConfig config_;
  std::map<std::int32_t, Window> per_node_;
  std::map<std::pair<std::int32_t, std::int32_t>, Window> per_process_;
  Window global_;
  std::uint64_t observed_ = 0;
  rocc::SimTime now_us_ = 0.0;
  std::vector<Episode> history_;
};

}  // namespace paradyn::consultant
