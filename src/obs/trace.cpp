#include "obs/trace.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <ostream>
#include <utility>

namespace paradyn::obs {

namespace {

/// Chrome phase letter.
char phase_code(Phase p) noexcept {
  switch (p) {
    case Phase::Complete:
      return 'X';
    case Phase::Instant:
      return 'i';
    case Phase::Counter:
      return 'C';
    case Phase::AsyncBegin:
      return 'b';
    case Phase::AsyncInstant:
      return 'n';
    case Phase::AsyncEnd:
      return 'e';
  }
  return 'i';
}

/// |v| * 1000 rounded to an integer, half to even, from the exact binary
/// value m * 2^k: "%.3f" rounds that way, in glibc and in std::to_chars.
/// m * 1000 is below 2^63, so it is exact in 64 bits; false when the
/// shifted product is not (|v| above ~1.8e16).
bool thousandths(double v, std::uint64_t& out) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<int>(bits >> 52 & 0x7ff);
  std::uint64_t m = bits & ((std::uint64_t{1} << 52) - 1);
  int k = -1074;  // subnormal
  if (biased != 0) {
    m |= std::uint64_t{1} << 52;
    k = biased - 1075;
  }
  const std::uint64_t x = m * 1000;
  if (k >= 0) {
    if (k >= 64 || x > (~std::uint64_t{0} >> k)) return false;
    out = x << k;
    return true;
  }
  const int shift = -k;
  if (shift >= 64) {
    out = 0;  // x / 2^shift < 2^63 / 2^64: below one half
    return true;
  }
  const std::uint64_t q = x >> shift;
  const std::uint64_t rest = x & ((std::uint64_t{1} << shift) - 1);
  const std::uint64_t half = std::uint64_t{1} << (shift - 1);
  out = q + static_cast<std::uint64_t>(rest > half || (rest == half && (q & 1) != 0));
  return true;
}

/// Formats JSON text into a block buffer through a raw cursor and hands
/// full blocks to the stream; nothing is allocated per event once the
/// block exists.  One reserve() per event makes room for its fixed text,
/// integers and fast-path numbers; strings and long numbers reserve their
/// own length.
class JsonOut {
 public:
  explicit JsonOut(std::ostream& os) : os_(os), buf_(kBlock) { p_ = buf_.data(); }

  /// Room for `n` bytes plus the rest of an event (kEventRoom).
  void reserve(std::size_t n = 0) {
    if (static_cast<std::size_t>(buf_.data() + buf_.size() - p_) < n + kEventRoom) {
      make_room(n + kEventRoom);
    }
  }

  /// A string literal's characters.
  template <std::size_t N>
  void text(const char (&s)[N]) {
    std::memcpy(p_, s, N - 1);
    p_ += N - 1;
  }
  void ch(char c) { *p_++ = c; }

  /// A C string as JSON string content.
  void escaped(const char* s) {
    reserve(6 * std::strlen(s));
    for (; *s != '\0'; ++s) {
      const auto c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') {
        *p_++ = '\\';
        *p_++ = *s;
      } else if (c < 0x20) {
        text("\\u00");
        *p_++ = kHexDigits[c >> 4];
        *p_++ = kHexDigits[c & 0xf];
      } else {
        *p_++ = *s;
      }
    }
  }

  /// Three decimals, as "%.3f"; JSON has no NaN/Inf, so those clamp to 0.
  /// The floating-point std::to_chars writes only the magnitudes
  /// thousandths() cannot hold.
  void number(double v) {
    if (!std::isfinite(v)) {
      *p_++ = '0';
      return;
    }
    std::uint64_t n = 0;
    if (!thousandths(v, n)) {
      reserve(kNumberChars);
      p_ = std::to_chars(p_, p_ + kNumberChars, v, std::chars_format::fixed, 3).ptr;
      return;
    }
    if (std::signbit(v)) *p_++ = '-';
    p_ = std::to_chars(p_, p_ + 20, n / 1000).ptr;
    const auto frac = static_cast<unsigned>(n % 1000);
    p_[0] = '.';
    p_[1] = static_cast<char>('0' + frac / 100);
    p_[2] = static_cast<char>('0' + frac / 10 % 10);
    p_[3] = static_cast<char>('0' + frac % 10);
    p_ += 4;
  }
  void integer(std::int64_t v) { p_ = std::to_chars(p_, p_ + 20, v).ptr; }
  void count(std::uint64_t v) { p_ = std::to_chars(p_, p_ + 20, v).ptr; }
  void hex(std::uint64_t v) { p_ = std::to_chars(p_, p_ + 16, v, 16).ptr; }

  void flush() {
    os_.write(buf_.data(), p_ - buf_.data());
    p_ = buf_.data();
  }

 private:
  /// Hands the block over, and grows it if `need` still does not fit.
  void make_room(std::size_t need) {
    flush();
    if (buf_.size() < need) {
      buf_.resize(need);
      p_ = buf_.data();
    }
  }

  static constexpr const char* kHexDigits = "0123456789abcdef";
  /// Longest "%.3f" of a double: sign, 309 integer digits, ".000".
  static constexpr std::size_t kNumberChars = 320;
  /// Upper bound of one event's text besides its strings and long numbers.
  static constexpr std::size_t kEventRoom = 512;
  static constexpr std::size_t kBlock = std::size_t{1} << 16;

  std::ostream& os_;
  std::vector<char> buf_;
  char* p_ = nullptr;
};

void write_event(JsonOut& out, const TraceEvent& e, std::int32_t pid) {
  out.text(R"({"name":")");
  out.escaped(e.name);
  out.text(R"(","cat":")");
  out.escaped(e.category);
  out.text(R"(","ph":")");
  out.ch(phase_code(e.phase));
  out.text(R"(","ts":)");
  out.number(e.ts_us);
  if (e.phase == Phase::Complete) {
    out.text(R"(,"dur":)");
    out.number(e.dur_us);
  }
  out.text(R"(,"pid":)");
  out.integer(pid);
  out.text(R"(,"tid":)");
  out.integer(e.track);
  if (e.phase == Phase::AsyncBegin || e.phase == Phase::AsyncInstant ||
      e.phase == Phase::AsyncEnd) {
    out.text(R"(,"id":"0x)");
    out.hex(e.id);
    out.ch('"');
  }
  if (e.phase == Phase::Instant) out.text(R"(,"s":"t")");
  if (e.phase == Phase::Counter) {
    // Counter value rides in args under a fixed series name.
    out.text(R"(,"args":{"value":)");
    out.number(e.arg0);
    out.text("}}");
    return;
  }
  if (e.arg0_name != nullptr || e.arg1_name != nullptr) {
    out.text(R"(,"args":{)");
    bool first = true;
    for (const auto& [name, value] :
         {std::pair{e.arg0_name, e.arg0}, std::pair{e.arg1_name, e.arg1}}) {
      if (name == nullptr) continue;
      if (!first) out.ch(',');
      first = false;
      out.ch('"');
      out.escaped(name);
      out.text("\":");
      out.number(value);
    }
    out.ch('}');
  }
  out.ch('}');
}

}  // namespace

template <class Fn>
void TraceRecorder::for_each_retained(const Tracer::Shard& shard, Fn&& fn) {
  // After a wrap the oldest retained event sits at `next`.
  const std::size_t n = shard.events.size();
  const std::size_t start = (n == shard.capacity) ? shard.next : 0;
  for (std::size_t i = start; i < n; ++i) fn(shard.events[i]);
  for (std::size_t i = 0; i < start; ++i) fn(shard.events[i]);
}

void Tracer::set_track_name(std::int32_t track, std::string name) {
  if (recorder_ == nullptr) return;
  std::lock_guard<std::mutex> lock(recorder_->mutex_);
  recorder_->track_names_.emplace_back(std::pair{pid_, track}, std::move(name));
}

TraceRecorder::TraceRecorder(std::size_t events_per_tracer)
    : events_per_tracer_(events_per_tracer == 0 ? 1 : events_per_tracer) {}

Tracer TraceRecorder::create_tracer(std::string process_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto pid = static_cast<std::int32_t>(shards_.size());
  shards_.emplace_back(events_per_tracer_);
  shards_.back().pid = pid;
  process_names_.push_back(std::move(process_name));
  return Tracer(this, &shards_.back(), pid);
}

std::uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.recorded;
  return total;
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.dropped;
  return total;
}

void TraceRecorder::for_each_event(
    const std::function<void(const TraceEvent& event, std::int32_t pid)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for_each_retained(shard, [&](const TraceEvent& e) { fn(e, shard.pid); });
  }
}

std::vector<std::pair<std::pair<std::int32_t, std::int32_t>, std::string>>
TraceRecorder::track_labels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return track_names_;
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonOut out(os);
  out.reserve();
  out.text("{\"traceEvents\":[\n");
  bool first = true;
  const auto separate = [&] {
    out.reserve();
    if (!first) out.text(",\n");
    first = false;
  };

  // Metadata: process and thread (track) labels.
  for (std::size_t pid = 0; pid < process_names_.size(); ++pid) {
    if (process_names_[pid].empty()) continue;
    separate();
    out.text(R"({"name":"process_name","ph":"M","pid":)");
    out.integer(static_cast<std::int64_t>(pid));
    out.text(R"(,"tid":0,"args":{"name":")");
    out.escaped(process_names_[pid].c_str());
    out.text("\"}}");
  }
  for (const auto& [key, label] : track_names_) {
    separate();
    out.text(R"({"name":"thread_name","ph":"M","pid":)");
    out.integer(key.first);
    out.text(R"(,"tid":)");
    out.integer(key.second);
    out.text(R"(,"args":{"name":")");
    out.escaped(label.c_str());
    out.text("\"}}");
  }

  // Events in chronological order per shard, so viewers that do not sort
  // still render sanely.
  for (const auto& shard : shards_) {
    for_each_retained(shard, [&](const TraceEvent& e) {
      separate();
      write_event(out, e, shard.pid);
    });
  }
  std::uint64_t total_recorded = 0;
  std::uint64_t total_dropped = 0;
  for (const auto& s : shards_) {
    total_recorded += s.recorded;
    total_dropped += s.dropped;
  }
  out.reserve();
  out.text("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":");
  out.count(total_recorded);
  out.text(",\"dropped\":");
  out.count(total_dropped);
  out.text("}}\n");
  out.flush();
}

}  // namespace paradyn::obs
