// Minimal command-line flag parser shared by the CLI tools.
//
// A value flag takes --name value or --name=value; a switch takes --name
// (or --name=value) and never consumes the next argument, so a value flag
// given last or before another --flag is an error, not the value "true".
// Unknown flags are an error with a "did you mean --X?" suggestion when a
// known flag is close — a mistyped --trce must fail loudly, not silently
// run untraced.  Positional arguments are rejected unless the tool opts in
// via `max_positionals`; every tool prints its own --help.
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace paradyn::tools {

/// get_long bounds of count flags: a flag that fills an int32 field spans
/// the field's range (the field's own validation owns the sign), and no
/// count exceeds kCountMax.
inline constexpr long kInt32Min = std::numeric_limits<std::int32_t>::min();
inline constexpr long kCountMax = std::numeric_limits<std::int32_t>::max();

class CliArgs {
 public:
  /// Parse argv.  `value_flags` and `switches` list the accepted --names
  /// (without the leading dashes); anything else, and a value flag without
  /// a value, throws std::invalid_argument.  A bare switch reads "true".
  /// Up to `max_positionals` non-flag arguments are collected into
  /// positionals() (0, the default, rejects them).
  CliArgs(int argc, const char* const argv[], const std::set<std::string>& value_flags,
          const std::set<std::string>& switches, std::size_t max_positionals = 0);

  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) != 0; }

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  /// An integer flag in [lo, hi]: a malformed, overflowing or out-of-range
  /// value throws std::invalid_argument naming the flag.
  [[nodiscard]] long get_long(const std::string& name, long fallback,
                              long lo = std::numeric_limits<long>::min(),
                              long hi = std::numeric_limits<long>::max()) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

/// Open an output file or throw naming it (a silently unwritable --trace
/// or --json must not discard the run).
[[nodiscard]] std::ofstream open_output(const std::string& path);

}  // namespace paradyn::tools
