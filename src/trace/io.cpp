#include "trace/io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace paradyn::trace {
namespace {

constexpr std::string_view kHeader = "timestamp_us,node,pid,process_class,resource,duration_us";

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

[[noreturn]] void bad_line(int line_no, const std::string& why) {
  throw std::runtime_error("trace CSV line " + std::to_string(line_no) + ": " + why);
}

/// A time field (microseconds): finite and >= 0.
double parse_time(std::string_view s, int line_no) {
  double out = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    bad_line(line_no, "bad numeric field '" + std::string(s) + "'");
  }
  if (!std::isfinite(out) || out < 0.0) {
    bad_line(line_no, "time field must be finite and >= 0: '" + std::string(s) + "'");
  }
  return out;
}

/// A node or process id: a whole number >= 0.
std::int32_t parse_id(std::string_view s, int line_no) {
  std::int32_t out = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    bad_line(line_no, "bad integer field '" + std::string(s) + "'");
  }
  if (out < 0) bad_line(line_no, "id field must be >= 0: '" + std::string(s) + "'");
  return out;
}

}  // namespace

void write_csv(std::ostream& os, const std::vector<TraceRecord>& records) {
  os << kHeader << '\n';
  for (const TraceRecord& r : records) {
    os << r.timestamp_us << ',' << r.node << ',' << r.pid << ',' << to_string(r.pclass) << ','
       << to_string(r.resource) << ',' << r.duration_us << '\n';
  }
}

void write_csv_file(const std::string& path, const std::vector<TraceRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file for writing: " + path);
  write_csv(out, records);
  out.flush();
  if (!out) throw std::runtime_error("error writing trace file: " + path);
}

std::vector<TraceRecord> read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) bad_line(1, "missing or wrong header");
  std::vector<TraceRecord> records;
  int line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split_fields(line);
    if (fields.size() != 6) {
      bad_line(line_no, "expected 6 fields, got " + std::to_string(fields.size()));
    }
    TraceRecord r;
    r.timestamp_us = parse_time(fields[0], line_no);
    r.node = parse_id(fields[1], line_no);
    r.pid = parse_id(fields[2], line_no);
    try {
      r.pclass = process_class_from_string(fields[3]);
      r.resource = resource_kind_from_string(fields[4]);
    } catch (const std::invalid_argument& e) {
      bad_line(line_no, e.what());
    }
    r.duration_us = parse_time(fields[5], line_no);
    records.push_back(r);
  }
  return records;
}

std::vector<TraceRecord> read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file for reading: " + path);
  return read_csv(in);
}

}  // namespace paradyn::trace
