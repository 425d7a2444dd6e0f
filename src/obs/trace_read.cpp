#include "obs/trace_read.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace paradyn::obs {

namespace {

/// Thrown when a parse attempt reaches the end of the read window before
/// the end of its value; the reader then reads more and retries.
struct NeedMore {};

/// Nesting limit for skipped values, so a hostile document fails with a
/// message instead of overflowing the stack.
constexpr int kMaxDepth = 1000;

/// The integer a JSON number names; values outside int64 (and NaN) map to
/// INT64_MIN, the value x86 conversion gives them.
std::int64_t to_int64(double d) noexcept {
  if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
    return static_cast<std::int64_t>(d);
  }
  return INT64_MIN;
}

std::uint64_t to_uint64(double d) noexcept {
  return d >= 0.0 && d < 18446744073709551616.0 ? static_cast<std::uint64_t>(d) : 0;
}

bool ascii_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// Characters std::strtod may consume (decimal, hex, inf and nan forms),
/// by byte value.
constexpr auto kStrtodChars = [] {
  std::array<bool, 256> t{};
  for (int c = 0; c < 256; ++c) {
    t[static_cast<std::size_t>(c)] = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                                     (c >= 'A' && c <= 'Z') || c == '.' || c == '+' ||
                                     c == '-' || c == '(' || c == ')' || c == '_';
  }
  return t;
}();

bool strtod_char(char c) noexcept { return kStrtodChars[static_cast<unsigned char>(c)]; }

/// The first '"' or '\\' in [q, end), or end.  Eight bytes per step where
/// they fit: a byte equal to c is a zero byte of w ^ (c * 0x01..01), and the
/// lowest byte the zero-byte test flags is exact (a false flag needs a
/// borrow from a true zero below it).
const char* quote_or_escape(const char* q, const char* end) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t kOnes = 0x0101010101010101;
    constexpr std::uint64_t kHighs = 0x8080808080808080;
    for (; end - q >= 8; q += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, q, 8);
      const std::uint64_t quote = w ^ (kOnes * '"');
      const std::uint64_t escape = w ^ (kOnes * '\\');
      const std::uint64_t hit =
          (((quote - kOnes) & ~quote) | ((escape - kOnes) & ~escape)) & kHighs;
      if (hit != 0) return q + std::countr_zero(hit) / 8;
    }
  }
  while (q < end && *q != '"' && *q != '\\') ++q;
  return q;
}

/// 10^0 .. 10^22, every one exact in a double.
constexpr auto kPowersOfTen = [] {
  std::array<double, 23> t{};
  double p = 1.0;
  for (double& x : t) {
    x = p;
    p *= 10.0;
  }
  return t;
}();

/// Clinger's fast path: the literal [-]digits[.digits] at `p`, with a
/// mantissa m below 10^15 and k <= 22 decimals, is m / 10^k, one correctly
/// rounded division of two exact doubles, so it equals what std::strtod
/// returns.  It must end before `end` at a character strtod cannot consume
/// either.  Returns the end of the literal, or nullptr when the path does
/// not apply.
const char* fast_decimal(const char* p, const char* end, double& out) noexcept {
  constexpr std::uint64_t kMantissaLimit = 1'000'000'000'000'000;
  const bool negative = p < end && *p == '-';
  if (negative) ++p;
  const char* const digits = p;
  std::uint64_t m = 0;
  for (; p < end && ascii_digit(*p); ++p) {
    m = m * 10 + static_cast<std::uint64_t>(*p - '0');
    if (m >= kMantissaLimit) return nullptr;
  }
  if (p == digits) return nullptr;
  std::size_t decimals = 0;
  if (p < end && *p == '.') {
    for (++p; p < end && ascii_digit(*p); ++p, ++decimals) {
      m = m * 10 + static_cast<std::uint64_t>(*p - '0');
      if (m >= kMantissaLimit) return nullptr;
    }
  }
  if (p == end || strtod_char(*p) || decimals >= kPowersOfTen.size()) return nullptr;
  const double v = static_cast<double>(m) / kPowersOfTen[decimals];
  out = negative ? -v : v;
  return p;
}

/// Streaming trace parser.  The input is read into a window that always
/// holds the whole step being parsed: each step (one event, one separator,
/// one token of another top-level value) is an attempt over the window,
/// and an attempt that runs off its end reads more and starts over.  So
/// the scanner needs no per-character refill checks, strings come back as
/// views into the window, and memory is O(largest event or string).
class TraceReader {
 public:
  explicit TraceReader(std::istream& is) : is_(is), buf_(kChunk) {}

  TraceStreamInfo run(const std::function<void(const EventView&)>& sink) {
    TraceStreamInfo info;
    char first = 0;
    attempt([&] { first = peek(); });
    // Either {"traceEvents": [...], ...} or a bare top-level event array.
    if (first == '[') {
      events(info, sink);
      return info;
    }
    bool more = false;
    attempt([&] {
      expect('{');
      more = !consume_if('}');
    });
    std::string key;
    while (more) {
      attempt([&] {
        key = string();
        expect(':');
      });
      if (key == "traceEvents") {
        events(info, sink);
      } else if (key == "otherData") {
        attempt([&] {
          reset_scratch();
          args();
          for (const NumArg& a : num_args_) {
            if (a.key == "recorded") info.recorded = to_uint64(a.value);
            if (a.key == "dropped") info.dropped = to_uint64(a.value);
          }
        });
      } else {
        skip_streamed();
      }
      attempt([&] {
        more = consume_if(',');
        if (!more) expect('}');
      });
    }
    return info;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;

  void events(TraceStreamInfo& info, const std::function<void(const EventView&)>& sink) {
    bool more = false;
    attempt([&] {
      expect('[');
      more = !consume_if(']');
    });
    EventView ev;
    while (more) {
      attempt([&] { event(ev); });
      ++info.events;
      sink(ev);  // the window is untouched until the next attempt
      attempt([&] {
        more = consume_if(',');
        if (!more) expect(']');
      });
    }
  }

  /// Run `step` over the window; on success its cursor becomes the new
  /// start of the window.  A step must have no effect outside the reader
  /// that a retry would repeat.
  template <class Step>
  void attempt(Step&& step) {
    for (;;) {
      p_ = buf_.data() + pos_;
      end_ = buf_.data() + size_;
      try {
        step();
        pos_ = static_cast<std::size_t>(p_ - buf_.data());
        return;
      } catch (const NeedMore&) {
        refill();
      }
    }
  }

  /// Drop the consumed prefix and read at least as much again as is
  /// pending, so a value larger than the window costs O(size) to read.
  void refill() {
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, size_ - pos_);
      consumed_ += pos_;
      size_ -= pos_;
      pos_ = 0;
    }
    const std::size_t want = std::max(kChunk, size_);
    if (buf_.size() < size_ + want) buf_.resize(size_ + want);
    is_.read(buf_.data() + size_, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is_.gcount());
    size_ += got;
    if (got < want) eof_ = true;
  }

  /// The value continues past the window: read more, or fail at the end
  /// of the input.
  void need(const char* what_at_eof) {
    if (eof_) fail(what_at_eof);
    throw NeedMore{};
  }

  [[noreturn]] void fail(const std::string& what) const {
    const auto at = consumed_ + static_cast<std::uint64_t>(p_ - buf_.data());
    throw std::runtime_error("trace JSON parse error at byte " + std::to_string(at) + ": " +
                             what);
  }

  void skip_ws() noexcept {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (p_ == end_) need("unexpected end of input");
    return *p_;
  }

  void expect(char c) {
    if (p_ < end_ && *p_ == c) {  // the exporter writes no space inside events
      ++p_;
      return;
    }
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  [[nodiscard]] bool consume_if(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    skip_ws();
    if (p_ == end_) {
      if (!eof_) throw NeedMore{};
      return false;
    }
    if (*p_ != c) return false;
    ++p_;
    return true;
  }

  /// A string value: a view into the window, or into scratch space when it
  /// holds escapes.
  [[nodiscard]] std::string_view string() {
    expect('"');
    const char* start = p_;
    const char* q = quote_or_escape(start, end_);
    if (q < end_ && *q == '"') {
      p_ = q + 1;
      return {start, static_cast<std::size_t>(q - start)};
    }
    std::string& out = scratch();
    out.assign(start, q);
    p_ = q;
    for (;;) {
      if (p_ == end_) need("unterminated string");
      const char c = *p_++;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == end_) need("unterminated escape");
      const char e = *p_++;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (end_ - p_ < 4) need("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Trace names are ASCII; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  /// A number, as std::strtod reads it.
  [[nodiscard]] double number() {
    skip_ws();
    double v = 0.0;
    if (const char* end = fast_decimal(p_, end_, v)) {
      p_ = end;
      return v;
    }
    // Beyond the fast path, std::from_chars reads strtod's decimal forms
    // with the same rounding.  Its result stands when it ends where strtod
    // would: inside the window, at a character strtod cannot consume
    // either.  A leading '+', hex ("0x"), a literal cut by the window's
    // end, out-of-range values, inf and nan (whose NaN payload may differ)
    // go to strtod.
    const auto [end, ec] = std::from_chars(p_, end_, v);
    if (ec == std::errc{} && end != end_ && !strtod_char(*end) && std::isfinite(v)) {
      p_ = end;
      return v;
    }
    // Hand strtod a terminated copy of every character it could consume,
    // so it stops where the window does.
    const char* q = p_;
    while (q < end_ && strtod_char(*q)) ++q;
    if (q == end_ && !eof_) throw NeedMore{};
    const std::string token(p_, q);
    char* stop = nullptr;
    v = std::strtod(token.c_str(), &stop);
    if (stop == token.c_str()) fail("expected a number");
    p_ += stop - token.c_str();
    return v;
  }

  /// Skip any JSON value (fields we do not care about).
  void skip_value(int depth) {
    if (depth > kMaxDepth) fail("values nested too deeply");
    const char c = peek();
    if (c == '"') {
      (void)string();
    } else if (c == '{') {
      ++p_;
      if (consume_if('}')) return;
      do {
        (void)string();
        expect(':');
        skip_value(depth + 1);
      } while (consume_if(','));
      expect('}');
    } else if (c == '[') {
      ++p_;
      if (consume_if(']')) return;
      do {
        skip_value(depth + 1);
      } while (consume_if(','));
      expect(']');
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (p_ < end_ && std::isalpha(static_cast<unsigned char>(*p_))) ++p_;
      if (p_ == end_ && !eof_) throw NeedMore{};
    } else {
      (void)number();
    }
  }

  /// Skip a top-level value one token per attempt, so the window holds at
  /// most one token of it however large the value is.
  void skip_streamed() {
    std::string closers;  // '}' or ']' for each open container
    bool want_value = true;
    while (want_value || !closers.empty()) {
      attempt([&] {
        reset_scratch();
        if (want_value) {
          const char c = peek();
          if (c != '{' && c != '[') {
            skip_value(0);
            want_value = false;
            return;
          }
          ++p_;
          const char closer = c == '{' ? '}' : ']';
          if (consume_if(closer)) {
            want_value = false;
            return;
          }
          if (closers.size() >= std::size_t{kMaxDepth}) fail("values nested too deeply");
          if (closer == '}') member_key();
          closers.push_back(closer);
        } else if (consume_if(',')) {
          if (closers.back() == '}') member_key();
          want_value = true;
        } else {
          expect(closers.back());
          closers.pop_back();
        }
      });
    }
  }

  void member_key() {
    (void)string();
    expect(':');
  }

  template <class Arg, class Value>
  static void put(std::vector<Arg>& args, std::string_view key, Value value) {
    for (Arg& a : args) {
      if (a.key == key) {
        a.value = value;
        return;
      }
    }
    args.push_back({key, value});
  }

  /// An "args" object: numbers and strings kept, anything else skipped.
  void args() {
    expect('{');
    if (consume_if('}')) return;
    do {
      const std::string_view key = string();
      expect(':');
      const char c = peek();
      if (c == '"') {
        put(str_args_, key, string());
      } else if (c == '{' || c == '[' || c == 't' || c == 'f' || c == 'n') {
        skip_value(1);
      } else {
        put(num_args_, key, number());
      }
    } while (consume_if(','));
    expect('}');
  }

  enum class Key { kOther, kName, kCat, kPh, kTs, kDur, kPid, kTid, kId, kArgs };

  /// The EventView field an event member names: one branch on the key's
  /// length and first character, then one compare.
  static Key event_key(std::string_view k) noexcept {
    if (k.empty()) return Key::kOther;
    const auto is = [k](std::string_view name, Key key) { return k == name ? key : Key::kOther; };
    switch (k.size() << 8 | static_cast<unsigned char>(k[0])) {
      case 2 << 8 | 'p': return is("ph", Key::kPh);
      case 2 << 8 | 't': return is("ts", Key::kTs);
      case 2 << 8 | 'i': return is("id", Key::kId);
      case 3 << 8 | 'c': return is("cat", Key::kCat);
      case 3 << 8 | 'd': return is("dur", Key::kDur);
      case 3 << 8 | 'p': return is("pid", Key::kPid);
      case 3 << 8 | 't': return is("tid", Key::kTid);
      case 4 << 8 | 'n': return is("name", Key::kName);
      case 4 << 8 | 'a': return is("args", Key::kArgs);
      default: return Key::kOther;
    }
  }

  void event(EventView& ev) {
    ev = EventView{};
    reset_scratch();
    expect('{');
    if (!consume_if('}')) {
      do {
        const std::string_view key = string();
        expect(':');
        switch (event_key(key)) {
          case Key::kName: ev.name = string(); break;
          case Key::kCat: ev.cat = string(); break;
          case Key::kPh: ev.ph = string(); break;
          case Key::kTs: ev.ts = number(); break;
          case Key::kDur: ev.dur = number(); break;
          case Key::kPid: ev.pid = to_int64(number()); break;
          case Key::kTid: ev.tid = to_int64(number()); break;
          case Key::kId: ev.id = peek() == '"' ? string() : numeric_id(); break;
          case Key::kArgs: args(); break;
          case Key::kOther: skip_value(0); break;
        }
      } while (consume_if(','));
      expect('}');
    }
    ev.num_args = num_args_;
    ev.str_args = str_args_;
  }

  /// A numeric async id, spelled as std::to_string spells it.
  std::string_view numeric_id() {
    std::string& out = scratch();
    out = std::to_string(number());
    return out;
  }

  /// Scratch string that stays put until the next event.
  std::string& scratch() {
    if (scratch_used_ == scratch_.size()) scratch_.emplace_back();
    return scratch_[scratch_used_++];
  }

  void reset_scratch() noexcept {
    num_args_.clear();
    str_args_.clear();
    scratch_used_ = 0;
  }

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;   ///< Start of the unparsed input in buf_.
  std::size_t size_ = 0;  ///< End of the input read so far in buf_.
  std::uint64_t consumed_ = 0;  ///< Input bytes dropped from the window.
  bool eof_ = false;
  const char* p_ = nullptr;    ///< Cursor of the current attempt.
  const char* end_ = nullptr;  ///< End of the window.

  std::vector<NumArg> num_args_;
  std::vector<StrArg> str_args_;
  std::deque<std::string> scratch_;  ///< deque: strings keep their place.
  std::size_t scratch_used_ = 0;
};

}  // namespace

TraceStreamInfo stream_chrome_trace(std::istream& is,
                                    const std::function<void(const EventView&)>& sink) {
  return TraceReader(is).run(sink);
}

TraceSummary summarize_trace(std::istream& is) {
  TraceSummary out;
  std::unordered_map<std::string, EventTypeStats> types;
  // (cat \x1f name \x1f pid \x1f id) -> begin timestamp.
  std::unordered_map<std::string, double> open_chains;
  struct ChainAccum {
    std::string cat, name;
    Histogram durations;  // shared log-linear histogram, O(1) per chain type
    std::uint64_t unmatched = 0;
  };
  std::unordered_map<std::string, ChainAccum> chains;

  // Lookup keys are built in reused buffers, so only a new event type or a
  // chain begin allocates.
  std::string type_key;
  std::string chain_key;
  bool first_ts = true;
  const TraceStreamInfo info = stream_chrome_trace(is, [&](const EventView& ev) {
    if (ev.ph == "M") return;  // metadata
    ++out.events;
    if (first_ts || ev.ts < out.ts_min_us) out.ts_min_us = ev.ts;
    const double end_ts = ev.ts + (ev.ph == "X" ? ev.dur : 0.0);
    if (first_ts || end_ts > out.ts_max_us) out.ts_max_us = end_ts;
    first_ts = false;

    type_key.assign(ev.cat).append(1, '\x1f').append(ev.name);
    auto type_it = types.find(type_key);
    if (type_it == types.end()) type_it = types.emplace(type_key, EventTypeStats{}).first;
    EventTypeStats& t = type_it->second;
    if (t.count == 0) {
      t.cat = ev.cat;
      t.name = ev.name;
    }
    ++t.count;
    if (ev.ph == "X") {
      t.total_dur_us += ev.dur;
      t.max_dur_us = std::max(t.max_dur_us, ev.dur);
    }

    if (ev.ph == "b" || ev.ph == "e") {
      auto chain_it = chains.find(type_key);
      if (chain_it == chains.end()) chain_it = chains.emplace(type_key, ChainAccum{}).first;
      ChainAccum& chain = chain_it->second;
      if (chain.cat.empty()) {
        chain.cat = ev.cat;
        chain.name = ev.name;
      }
      char pid[24];
      chain_key.assign(type_key).append(1, '\x1f');
      chain_key.append(pid, std::to_chars(pid, pid + sizeof pid, ev.pid).ptr);
      chain_key.append(1, '\x1f').append(ev.id);
      if (ev.ph == "b") {
        if (!open_chains.emplace(chain_key, ev.ts).second) ++chain.unmatched;
      } else {
        const auto it = open_chains.find(chain_key);
        if (it == open_chains.end()) {
          ++chain.unmatched;
        } else {
          chain.durations.observe(ev.ts - it->second);
          open_chains.erase(it);
        }
      }
    }
  });
  out.recorded = info.recorded;
  out.dropped = info.dropped;

  for (auto& [key, t] : types) out.types.push_back(std::move(t));
  std::sort(out.types.begin(), out.types.end(), [](const auto& a, const auto& b) {
    if (a.total_dur_us != b.total_dur_us) return a.total_dur_us > b.total_dur_us;
    if (a.count != b.count) return a.count > b.count;
    return a.name < b.name;
  });

  for (auto& [key, chain] : chains) {
    AsyncChainStats cs;
    cs.cat = chain.cat;
    cs.name = chain.name;
    cs.complete_chains = chain.durations.count();
    cs.unmatched = chain.unmatched;
    if (chain.durations.count() > 0) {
      cs.p50_us = chain.durations.percentile(0.50);
      cs.p90_us = chain.durations.percentile(0.90);
      cs.p99_us = chain.durations.percentile(0.99);
      cs.max_us = chain.durations.max();
    }
    out.chains.push_back(std::move(cs));
  }
  // Count begins that never saw an end.
  for (const auto& [key, ts] : open_chains) {
    const auto sep = key.find('\x1f', key.find('\x1f') + 1);
    const std::string begin_type = key.substr(0, sep);
    if (const auto it = chains.find(begin_type); it != chains.end()) {
      for (auto& cs : out.chains) {
        if (cs.cat == it->second.cat && cs.name == it->second.name) {
          ++cs.unmatched;
          break;
        }
      }
    }
  }
  std::sort(out.chains.begin(), out.chains.end(),
            [](const auto& a, const auto& b) { return a.complete_chains > b.complete_chains; });
  return out;
}

void print_trace_summary(std::ostream& os, const TraceSummary& summary, std::size_t top_n) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "events: %llu  (recorder saw %llu, dropped %llu)\nspan: %.3f ms .. %.3f ms "
                "(%.3f ms)\n\n",
                static_cast<unsigned long long>(summary.events),
                static_cast<unsigned long long>(summary.recorded),
                static_cast<unsigned long long>(summary.dropped), summary.ts_min_us / 1e3,
                summary.ts_max_us / 1e3, (summary.ts_max_us - summary.ts_min_us) / 1e3);
  os << line;

  os << "top event types (by total span time, then count):\n";
  std::snprintf(line, sizeof(line), "  %-12s %-24s %10s %14s %12s %12s\n", "category", "name",
                "count", "total_ms", "mean_us", "max_us");
  os << line;
  std::size_t shown = 0;
  for (const auto& t : summary.types) {
    if (shown++ >= top_n) break;
    const double mean = t.count > 0 ? t.total_dur_us / static_cast<double>(t.count) : 0.0;
    std::snprintf(line, sizeof(line), "  %-12s %-24s %10llu %14.3f %12.2f %12.2f\n",
                  t.cat.c_str(), t.name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_dur_us / 1e3, mean, t.max_dur_us);
    os << line;
  }
  if (summary.types.size() > top_n) {
    os << "  ... " << (summary.types.size() - top_n) << " more type(s)\n";
  }

  if (!summary.chains.empty()) {
    os << "\nasync chains (e.g. sample lifecycle, generation -> delivery):\n";
    std::snprintf(line, sizeof(line), "  %-12s %-16s %10s %10s %10s %10s %10s %10s\n", "category",
                  "name", "complete", "unmatched", "p50_us", "p90_us", "p99_us", "max_us");
    os << line;
    for (const auto& c : summary.chains) {
      std::snprintf(line, sizeof(line),
                    "  %-12s %-16s %10llu %10llu %10.1f %10.1f %10.1f %10.1f\n", c.cat.c_str(),
                    c.name.c_str(), static_cast<unsigned long long>(c.complete_chains),
                    static_cast<unsigned long long>(c.unmatched), c.p50_us, c.p90_us, c.p99_us,
                    c.max_us);
      os << line;
    }
  }
}

}  // namespace paradyn::obs
