// Command-line flags of the CLI tools and the bench harnesses, one row per
// flag: its name, value placeholder (none for a switch), default, integer
// bounds and help lines.  CliArgs checks argv against the rows when it
// parses: an unknown flag fails with a "did you mean --X?" suggestion (a
// mistyped --trce must fail loudly, not silently run untraced), a value
// flag given last or before another --flag has no value, a switch never
// consumes the next argument, and every value must parse as its row's kind
// within its bounds.  Reads of an absent flag return the row's default, and
// print_help() generates --help from the same rows.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace paradyn::tools {

/// Bounds of count flags: a flag that fills an int32 field spans the
/// field's range (the field's own validation owns the sign), and no count
/// exceeds kCountMax.
inline constexpr long kInt32Min = std::numeric_limits<std::int32_t>::min();
inline constexpr long kCountMax = std::numeric_limits<std::int32_t>::max();

/// What a flag's value must parse as.
enum class Kind {
  Switch,   ///< Bare --name reads true; --name=yes|no|true|false|1|0 sets it.
  Text,     ///< Any string.
  Number,   ///< A whole strtod number.
  Integer,  ///< A whole base-10 integer in [lo, hi].
};

/// One flag.  A Switch never takes the next argument, nor does a row whose
/// placeholder is an optional "[=X]": bare, it reads its default.  Every
/// other row takes --name value or --name=value.
struct Flag {
  std::string_view name;      ///< Without the leading dashes.
  Kind kind = Kind::Switch;
  std::string_view value;     ///< Help placeholder: "N", "FILE", "[=X]"; empty for a Switch.
  std::string_view fallback;  ///< What a read of the absent flag returns; empty for none.
  std::string_view help;      ///< Help lines, '\n'-separated.
  long lo = std::numeric_limits<long>::min();  ///< Integer bounds.
  long hi = std::numeric_limits<long>::max();
};

inline constexpr Flag kHelp{"help", Kind::Switch, "", "", "this text"};

/// The trace operand of roccprof and rocctrace.
inline constexpr Flag kTraceFile{"FILE", Kind::Text, "", "",
                                 "trace produced by roccsim --trace (or any\n"
                                 "chrome://tracing-compatible JSON)"};

class CliArgs {
 public:
  /// Parse argv against `flags`; a bad argument throws std::invalid_argument.
  /// A named `operand` (e.g. FILE) admits one positional argument.
  CliArgs(int argc, const char* const argv[], std::vector<Flag> flags, Flag operand = {});

  /// Whether the flag was given.
  [[nodiscard]] bool has(std::string_view name) const { return values_.count(name) != 0; }

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// The given value, else the row's default ("" without one).
  [[nodiscard]] std::string get_string(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;  ///< A Number row.
  [[nodiscard]] long get_long(std::string_view name) const;      ///< An Integer row.
  [[nodiscard]] bool get_bool(std::string_view name) const;      ///< A Switch; false when absent.

  /// Print `about`, then the operand's and each row's spelling, help and default.
  void print_help(std::string_view about) const;

 private:
  [[nodiscard]] const Flag* find(std::string_view name) const;
  /// The text a typed read of `name` parses; throws std::logic_error unless a
  /// row of `kind` names it and, unless a Switch, has a value or a default.
  [[nodiscard]] std::string read(std::string_view name, Kind kind) const;

  std::vector<Flag> flags_;
  Flag operand_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positionals_;
};

/// Open an output file or throw naming it (a silently unwritable --trace
/// or --json must not discard the run).
[[nodiscard]] std::ofstream open_output(const std::string& path);

}  // namespace paradyn::tools
