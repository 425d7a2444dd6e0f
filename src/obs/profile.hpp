// Streaming critical-path profiler and W3-style bottleneck attribution.
//
// Consumes a Chrome trace incrementally — either ParsedEvents from
// trace_read::stream_chrome_trace or native TraceEvents straight out of a
// TraceRecorder (the `roccsim --profile` inline path) — and reduces it to:
//
//   * per-hop latency decomposition of the sample lifecycle (app -> pipe
//     -> daemon -> network -> main), queueing vs service per hop, backed
//     by the shared log-linear Histogram;
//   * per-resource utilization timelines with busy-interval merging
//     (gap-coalesced, with an adaptive coalescing floor so interval count
//     stays bounded on pathological traces);
//   * the causal critical path per sampled-value chain: dominant hop,
//     bounded top-N slowest chains, folded flamegraph stacks;
//   * a W3-style hypothesis pass (ExcessiveCPU, ExcessivePipeBackpressure,
//     ExcessiveNetworkDelay, StarvedDaemon) over fixed simulated-time
//     windows, reporting the interval where each hypothesis first held —
//     Paradyn's Performance Consultant turned on our own telemetry.
//
// Memory is O(open chains + windows + tracks), never O(trace): events are
// folded into accumulators as they stream past, and nothing is allocated
// per event once the accumulators have grown to the trace's working set.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/pair_map.hpp"
#include "obs/trace_read.hpp"

namespace paradyn::obs {

struct TraceEvent;
class TraceRecorder;

/// One merged busy interval of a resource timeline.
struct BusyInterval {
  double start = 0.0;
  double end = 0.0;
};

/// Insert [s, e] into `intervals` (sorted by start, disjoint), merging every
/// interval within `gap` of it.  The common case, a span starting at or
/// after the last interval's start, touches only the back of the vector.
void merge_busy_interval(std::vector<BusyInterval>& intervals, double s, double e, double gap);

struct ProfileOptions {
  /// Width of the W3 evaluation windows (simulated microseconds).
  double window_us = 100'000.0;
  /// Slowest chains retained for the report (`--top-paths N`).
  std::size_t top_paths = 5;
  /// Busy intervals closer than this merge (absorbs the 1ns JSON rounding).
  double coalesce_gap_us = 0.002;
  /// Open-chain map cap: chains beyond this are counted unmatched instead
  /// of growing memory without bound on truncated traces.
  std::size_t max_open_chains = 1u << 20;
  /// Per-resource merged-interval cap; exceeding it doubles the coalescing
  /// gap and re-merges, keeping memory bounded on any input.
  std::size_t max_intervals_per_resource = 1u << 16;

  // --- W3 hypothesis thresholds ---
  /// A hop holds Excessive* when its share of all hop time in the window
  /// exceeds this...
  double hop_share_threshold = 0.4;
  /// ...and its mean per-chain wait exceeds this floor (filters noise in
  /// near-idle windows).
  double hop_wait_min_us = 500.0;
  /// ExcessiveCPU: a CPU track's busy fraction in the window exceeds this.
  double cpu_busy_threshold = 0.9;
};

/// One hop row of the decomposition.
struct HopStats {
  std::uint64_t count = 0;  ///< Chains contributing to this hop.
  double queue_total_us = 0.0;
  double service_total_us = 0.0;
  Histogram queue_us;
  Histogram service_us;
};

/// One (pid, track) resource's utilization timeline.
struct ResourceStats {
  std::int64_t pid = 0;
  std::int32_t track = 0;
  std::string label;  ///< Thread-name metadata, or "p<pid>.t<track>".
  std::uint64_t spans = 0;
  double busy_us = 0.0;          ///< Sum of merged busy intervals.
  std::uint64_t intervals = 0;   ///< Merged busy intervals.
  double max_interval_us = 0.0;  ///< Longest merged busy interval.
  double util_fraction = 0.0;    ///< busy / trace span.
};

/// One W3 hypothesis verdict.
struct HypothesisFinding {
  std::string name;    ///< e.g. "ExcessivePipeBackpressure".
  std::string target;  ///< The where-axis: hop or resource label.
  int hop = -1;        ///< Hop index the hypothesis attributes to, -1 if n/a.
  bool held = false;
  double first_held_start_us = 0.0;  ///< First contiguous held interval.
  double first_held_end_us = 0.0;
  double peak = 0.0;  ///< Max tested metric over held windows.
  std::uint64_t windows_held = 0;
};

struct ProfileReport {
  std::uint64_t events = 0;  ///< Non-metadata events consumed.
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t chains_complete = 0;
  std::uint64_t chains_unmatched = 0;  ///< begin-less ends + end-less begins.
  std::uint64_t chains_out_of_order = 0;
  double ts_min_us = 0.0;
  double ts_max_us = 0.0;
  double window_us = 0.0;
  HopStats hops[kHopCount];
  int dominant_hop = 0;  ///< argmax of total hop time; -1 when no chains.
  std::vector<ResourceStats> resources;  ///< Sorted by (pid, track).
  std::vector<ChainRecord> top_chains;   ///< Slowest first.
  std::vector<FoldedAccum::Line> folded;
  std::vector<HypothesisFinding> hypotheses;  ///< Fixed order of the four.

  /// Resolve a (pid, track) to its human label.
  [[nodiscard]] std::string track_label(std::int64_t pid, std::int32_t track) const;
  std::map<std::pair<std::int64_t, std::int32_t>, std::string> labels;
};

/// The streaming analyzer.  Feed events in file order, then finalize once.
class Profiler {
 public:
  explicit Profiler(ProfileOptions options = {});

  /// Stream sink for parsed JSON events (metadata included).
  void feed(const EventView& ev);
  /// Native sink for in-process recorder shards (no JSON round-trip).
  void feed(const TraceEvent& ev, std::int32_t pid);

  /// Label a (pid, track) resource (JSON feeds pick labels up from "M"
  /// thread_name metadata automatically; the native path sets them from
  /// TraceRecorder::track_labels()).
  void set_track_label(std::int64_t pid, std::int32_t track, std::string label);
  /// Recorder totals for the report header (otherData block equivalents).
  void set_totals(std::uint64_t recorded, std::uint64_t dropped);

  /// Close open chains, merge timelines, run the hypothesis pass.
  [[nodiscard]] ProfileReport finalize();

 private:
  struct ResourceAccum {
    std::uint64_t spans = 0;
    double coalesce_gap_us = 0.0;         ///< Doubles when intervals overflow.
    std::vector<BusyInterval> intervals;  ///< Sorted by start, disjoint.
  };
  struct Window {
    double hop_queue_us[kHopCount] = {};
    double hop_service_us[kHopCount] = {};
    std::uint64_t hop_count[kHopCount] = {};
    std::uint64_t enq = 0;        ///< Lifecycle "enq" marks in the window.
    std::uint64_t deq = 0;        ///< Lifecycle "deq" marks in the window.
    std::uint64_t pipe_full = 0;  ///< pipe/"full" instants in the window.
    std::uint64_t chains = 0;     ///< Chains completing in the window.
  };

  void observe_span(std::int64_t pid, std::int32_t track, bool cpu, double ts, double dur);
  void chain_begin(std::int64_t pid, std::uint64_t id, std::int32_t track, double ts);
  /// `mark` is a lifecycle progress mark code (see mark_code in the .cpp).
  void chain_mark(std::int64_t pid, std::uint64_t id, int mark, double ts, double arg);
  void chain_end(std::int64_t pid, std::uint64_t id, double ts);
  void touch_ts(double ts);
  Window& window_at(double ts);

  ProfileOptions options_;
  std::uint64_t events_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  bool have_ts_ = false;
  double ts_min_us_ = 0.0;
  double ts_max_us_ = 0.0;

  PairMap<ChainTimes> open_chains_;  ///< (pid, id) -> marks so far.
  std::uint64_t chains_complete_ = 0;
  std::uint64_t chains_unmatched_ = 0;
  std::uint64_t chains_out_of_order_ = 0;

  HopStats hops_[kHopCount];
  TopPaths top_paths_;
  FoldedAccum folded_;
  std::map<std::pair<std::int64_t, std::int32_t>, ResourceAccum> resources_;
  std::map<std::pair<std::int64_t, std::int32_t>, std::string> labels_;
  std::vector<Window> windows_;
  /// Per-CPU-track busy microseconds per window (ExcessiveCPU's where-axis).
  std::map<std::pair<std::int64_t, std::int32_t>, std::vector<double>> cpu_busy_;
};

/// Stream a trace file through a Profiler (the `roccprof FILE` path).
[[nodiscard]] ProfileReport profile_trace_stream(std::istream& is, ProfileOptions options = {});

/// Profile an in-process recorder (the `roccsim --profile` path).
[[nodiscard]] ProfileReport profile_recorder(const TraceRecorder& recorder,
                                             ProfileOptions options = {});

/// Human-readable report (the body of `roccprof`).  When `hypotheses_only`
/// is set only the W3 section prints.
void print_profile_report(std::ostream& os, const ProfileReport& report,
                          bool hypotheses_only = false);
/// Structured outputs: JSON document, per-hop CSV, flamegraph-folded stacks.
void write_profile_json(std::ostream& os, const ProfileReport& report);
void write_profile_csv(std::ostream& os, const ProfileReport& report);
void write_profile_folded(std::ostream& os, const ProfileReport& report);

}  // namespace paradyn::obs
