// CSV serialization of trace files.
//
// Format (one record per line, header required):
//   timestamp_us,node,pid,process_class,resource,duration_us
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace paradyn::trace {

/// Write records as CSV (with header) to a stream.
void write_csv(std::ostream& os, const std::vector<TraceRecord>& records);

/// Write records as CSV to a file; throws std::runtime_error on I/O failure.
void write_csv_file(const std::string& path, const std::vector<TraceRecord>& records);

/// Parse CSV produced by write_csv; throws std::runtime_error naming the
/// line on malformed input (wrong header, bad field count, unparsable
/// numbers, a negative or non-finite time, a negative id).
[[nodiscard]] std::vector<TraceRecord> read_csv(std::istream& is);

/// Read a CSV trace file; throws std::runtime_error if unreadable.
[[nodiscard]] std::vector<TraceRecord> read_csv_file(const std::string& path);

}  // namespace paradyn::trace
