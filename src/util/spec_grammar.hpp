// Shared clause/position-aware parsing for CLI spec grammars of the form
// TYPE:key=value,...;... (the --fault and --repair payloads).
//
// Both parsers report errors that cite the offending clause, the token's
// character position within the full payload, and — via util/suggest.hpp —
// the nearest known name for misspelled types and keys.  This header owns
// the grammar's shape (the ';' clause splitter, the ',' / '=' key scanner)
// and its value parsers, so each grammar keeps only its type or action
// table and per-key handling.  Every number must be finite.  Header-only so
// rocc and consultant share it without a new link edge.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace paradyn::util {

/// Where a clause sits inside the full spec payload, for error messages
/// that cite the clause and the offending token's position.
struct SpecCtx {
  const char* prefix;       ///< Error prefix, e.g. "FaultPlan".
  const std::string& spec;  ///< The clause text (one TYPE:k=v,... entry).
  std::size_t clause_no;    ///< 1-based clause index within the payload.
  std::size_t base;         ///< Clause offset within the full payload.
};

[[noreturn]] inline void bad_spec(const SpecCtx& c, std::size_t local_pos,
                                  const std::string& why) {
  throw std::invalid_argument(std::string(c.prefix) + ": bad spec \"" + c.spec + "\" (clause " +
                              std::to_string(c.clause_no) + ", char " +
                              std::to_string(c.base + local_pos) + "): " + why);
}

/// Parse every non-empty ';'-separated clause of `payload` with
/// `parse_clause(const SpecCtx&)`, numbering clauses from 1 and citing
/// their offsets in the full payload.  Throws "PREFIX: no WHAT specs in
/// "PAYLOAD"" when no clause is left.
template <class T, class ParseClause>
std::vector<T> parse_clauses(const char* prefix, const char* what, const std::string& payload,
                             ParseClause parse_clause) {
  std::vector<T> out;
  std::size_t at = 0;
  std::size_t clause_no = 0;
  while (at <= payload.size()) {
    const auto semi = payload.find(';', at);
    const std::size_t end = semi == std::string::npos ? payload.size() : semi;
    const std::string one = payload.substr(at, end - at);
    if (!one.empty()) {
      ++clause_no;
      out.push_back(parse_clause(SpecCtx{prefix, one, clause_no, at}));
    }
    if (semi == std::string::npos) break;
    at = semi + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument(std::string(prefix) + ": no " + what + " specs in \"" + payload +
                                "\"");
  }
  return out;
}

/// Call `on_key(key, value, kv_pos, value_pos)` for each ','-separated
/// `key=value` pair of the clause from `from` on, skipping empty pairs; the
/// positions are clause-local, of the pair and of its value.
template <class OnKey>
void scan_keys(const SpecCtx& c, std::size_t from, OnKey on_key) {
  const std::string& spec = c.spec;
  std::size_t pos = from;
  while (pos < spec.size()) {
    const auto comma = spec.find(',', pos);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string kv = spec.substr(pos, end - pos);
    const std::size_t kv_pos = pos;
    pos = end + 1;
    if (kv.empty()) continue;
    const auto eq = kv.find('=');
    if (eq == std::string::npos) bad_spec(c, kv_pos, "expected key=value, got: " + kv);
    on_key(kv.substr(0, eq), kv.substr(eq + 1), kv_pos, kv_pos + eq + 1);
  }
}

/// The finite number `text` spells.  A time takes a us / ms / s suffix and
/// comes back in microseconds (bare numbers are microseconds); anything
/// else must be the number alone.
inline double parse_finite(const SpecCtx& c, std::size_t pos, const std::string& text,
                           bool time) {
  std::size_t parsed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &parsed);
  } catch (const std::exception&) {
    bad_spec(c, pos, "not a number: " + text);
  }
  const std::string rest = text.substr(parsed);
  if (!time) {
    if (!rest.empty()) bad_spec(c, pos + parsed, "trailing characters in: " + text);
  } else if (rest == "ms") {
    value *= 1e3;
  } else if (rest == "s") {
    value *= 1e6;
  } else if (!rest.empty() && rest != "us") {
    bad_spec(c, pos + parsed, "unknown time unit: " + rest);
  }
  if (!std::isfinite(value)) bad_spec(c, pos, "not a finite number: " + text);
  return value;
}

/// "500ms" -> 500'000; "2s" -> 2'000'000; "750" / "750us" -> 750.
inline double parse_time_us(const SpecCtx& c, std::size_t pos, const std::string& text) {
  if (text.empty()) bad_spec(c, pos, "empty time value");
  return parse_finite(c, pos, text, true);
}

inline double parse_number(const SpecCtx& c, std::size_t pos, const std::string& text) {
  return parse_finite(c, pos, text, false);
}

/// True when `v` is a whole number inside the int32 range.
inline bool is_int32(double v) noexcept {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max() && v == std::trunc(v);
}

/// A whole number in the int32 range; its bounds are the caller's.
inline std::int32_t parse_integer(const SpecCtx& c, std::size_t pos, const std::string& text) {
  const double v = parse_number(c, pos, text);
  if (!is_int32(v)) bad_spec(c, pos, "expected an integer: " + text);
  return static_cast<std::int32_t>(v);
}

/// A count: a whole number >= 1 in the int32 range.
inline std::int32_t parse_count(const SpecCtx& c, std::size_t pos, const std::string& text) {
  const double v = parse_number(c, pos, text);
  if (!is_int32(v) || v < 1.0) bad_spec(c, pos, "expected an integer >= 1: " + text);
  return static_cast<std::int32_t>(v);
}

}  // namespace paradyn::util
