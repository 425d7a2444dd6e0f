// Owning, whole-document view of a Chrome trace for the obs tests.
//
// The shipped reader (obs/trace_read.hpp) streams EventViews that are only
// valid inside the sink call.  Tests that inspect a trace after parsing it
// copy each view into a ParsedEvent here; nothing in the tools needs that.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_read.hpp"

namespace paradyn::obs {

/// One event as read back from JSON.  Arguments live in maps, so a key
/// that repeats keeps its last value, like EventView's spans.
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

struct ParsedTrace {
  std::vector<ParsedEvent> events;
  /// From the recorder's "otherData" block (0 when absent).
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
};

/// An owning copy of one streamed event.
[[nodiscard]] ParsedEvent to_parsed(const EventView& view);

/// Parse a whole trace into memory.  Throws std::runtime_error with a byte
/// offset on malformed input.
[[nodiscard]] ParsedTrace read_chrome_trace(std::istream& is);

}  // namespace paradyn::obs
