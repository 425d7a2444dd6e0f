// Reader for the Chrome trace-event JSON the TraceRecorder emits, plus the
// summary statistics behind the `rocctrace` CLI.
//
// The parser is a small, strict-enough JSON reader for the trace-event
// schema (an object with a "traceEvents" array of flat event objects); it
// is not a general-purpose JSON library, but it accepts any conforming
// trace file, including ones Perfetto or chrome://tracing would load.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace paradyn::obs {

/// One event as read back from JSON.
struct ParsedEvent {
  std::string name;
  std::string cat;
  std::string ph;    ///< Chrome phase letter ("X", "i", "C", "b", "n", "e", "M", ...).
  double ts = 0.0;   ///< Microseconds.
  double dur = 0.0;  ///< Complete events only.
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  std::string id;    ///< Async id (as written, e.g. "0x2a"); empty if absent.
  std::map<std::string, double> num_args;
  std::map<std::string, std::string> str_args;
};

struct NumArg {
  std::string_view key;
  double value = 0.0;
};
struct StrArg {
  std::string_view key;
  std::string_view value;
};

/// One event as the streaming parser decoded it, with the fields of
/// ParsedEvent.  The views point into the parser's read window and are
/// valid only during the sink call.  Arguments keep document order; a key
/// that repeats keeps its last value, as in ParsedEvent's maps.
struct EventView {
  std::string_view name;
  std::string_view cat;
  std::string_view ph;
  double ts = 0.0;
  double dur = 0.0;
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  std::string_view id;
  std::span<const NumArg> num_args;
  std::span<const StrArg> str_args;

  /// An owning copy.
  [[nodiscard]] ParsedEvent to_parsed() const;
};

struct ParsedTrace {
  std::vector<ParsedEvent> events;
  /// From the recorder's "otherData" block (0 when absent).
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
};

/// Parse a trace file.  Throws std::runtime_error with a byte offset on
/// malformed input.
[[nodiscard]] ParsedTrace read_chrome_trace(std::istream& is);

/// Totals reported by the streaming parser once the document is consumed.
struct TraceStreamInfo {
  std::uint64_t recorded = 0;  ///< From "otherData" (0 when absent).
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;  ///< Events delivered to the sink.
};

/// Streaming parse: decode the document incrementally through a bounded
/// read window (never slurps the file) and invoke `sink` once per event,
/// metadata included.  The window holds one whole event, or one token of
/// a top-level value other than the event array, so parser memory is
/// O(largest event or string), not O(trace), and nothing is allocated per
/// event.  Throws std::runtime_error with a byte offset on malformed input.
TraceStreamInfo stream_chrome_trace(std::istream& is,
                                    const std::function<void(const EventView&)>& sink);

/// Aggregate statistics of one (category, name) event type.
struct EventTypeStats {
  std::string cat;
  std::string name;
  std::uint64_t count = 0;
  double total_dur_us = 0.0;  ///< Complete events only.
  double max_dur_us = 0.0;
};

/// Duration percentiles of matched async begin/end chains.
struct AsyncChainStats {
  std::string cat;
  std::string name;
  std::uint64_t complete_chains = 0;
  std::uint64_t unmatched = 0;  ///< begin without end or vice versa.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct TraceSummary {
  std::uint64_t events = 0;  ///< Non-metadata events.
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  double ts_min_us = 0.0;
  double ts_max_us = 0.0;
  std::vector<EventTypeStats> types;    ///< Sorted by total duration, then count.
  std::vector<AsyncChainStats> chains;  ///< One entry per async (cat, name).
};

/// Summarize a trace stream (the `rocctrace` path): memory is O(event
/// types + open chains), not O(trace).
[[nodiscard]] TraceSummary summarize_trace(std::istream& is);

/// Human-readable report of a summary (the body of `rocctrace`).
void print_trace_summary(std::ostream& os, const TraceSummary& summary, std::size_t top_n = 20);

}  // namespace paradyn::obs
