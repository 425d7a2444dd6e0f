#include "obs/trace.hpp"

#include <charconv>
#include <cmath>
#include <ostream>
#include <string_view>
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

/// Formats JSON text into a block buffer and hands it to the stream in
/// large writes; nothing is allocated per event once the block exists.
class JsonOut {
 public:
  explicit JsonOut(std::ostream& os) : os_(os) { buf_.reserve(kBlock + kSlack); }

  void text(std::string_view s) { buf_.append(s); }
  void ch(char c) { buf_.push_back(c); }

  /// A C string as JSON string content.
  void escaped(const char* s) {
    for (; *s != '\0'; ++s) {
      const auto c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') {
        buf_.push_back('\\');
        buf_.push_back(*s);
      } else if (c < 0x20) {
        buf_.append("\\u00");
        buf_.push_back(kHexDigits[c >> 4]);
        buf_.push_back(kHexDigits[c & 0xf]);
      } else {
        buf_.push_back(*s);
      }
    }
  }

  /// Three decimals, as "%.3f"; JSON has no NaN/Inf, so those clamp to 0.
  void number(double v) {
    if (!std::isfinite(v)) {
      buf_.push_back('0');
      return;
    }
    format(v, std::chars_format::fixed, 3);
  }
  void integer(std::int64_t v) { format(v); }
  void count(std::uint64_t v) { format(v); }
  void hex(std::uint64_t v) { format(v, 16); }

  /// Hands the block over once it is full.
  void maybe_flush() {
    if (buf_.size() >= kBlock) flush();
  }
  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  /// What std::to_chars writes for `args`; it spells numbers as printf.
  template <class... Args>
  void format(Args... args) {
    char tmp[kNumberChars];
    buf_.append(tmp, std::to_chars(tmp, tmp + sizeof tmp, args...).ptr);
  }

  static constexpr const char* kHexDigits = "0123456789abcdef";
  /// Longest "%.3f" of a double: sign, 309 integer digits, ".000".
  static constexpr std::size_t kNumberChars = 320;
  static constexpr std::size_t kBlock = std::size_t{1} << 16;
  static constexpr std::size_t kSlack = 4096;  ///< Room for the event that crosses kBlock.

  std::ostream& os_;
  std::string buf_;
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

std::vector<std::string> TraceRecorder::process_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return process_names_;
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonOut out(os);
  out.text("{\"traceEvents\":[\n");
  bool first = true;
  const auto separate = [&] {
    out.maybe_flush();
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
  out.text("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":");
  out.count(total_recorded);
  out.text(",\"dropped\":");
  out.count(total_dropped);
  out.text("}}\n");
  out.flush();
}

}  // namespace paradyn::obs
