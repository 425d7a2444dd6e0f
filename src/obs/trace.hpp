// Structured trace recorder for the simulator's own behavior.
//
// The paper measures an instrumentation system; this module gives our
// simulator of it the same treatment: typed events (engine event-execution
// spans, CPU/network occupancy intervals, pipe enqueue/dequeue, sample
// lifecycle) recorded into bounded ring buffers and exported as Chrome
// trace-event JSON, so a run opens directly in Perfetto / chrome://tracing.
//
// Threading model: a TraceRecorder owns one bounded shard per Tracer handle.
// Each simulation (which is single-threaded) gets its own Tracer, so
// concurrent simulations under ParallelRunner write to disjoint shards and
// never contend; only tracer creation and track naming take a lock.  The
// recorder must be exported (write_chrome_json) only after the writers have
// finished.
//
// Zero-cost when disabled: instrumented components hold a `Tracer*` that is
// nullptr by default, and every hook is a single pointer test.  Event names
// and categories must be string literals (the recorder stores the pointers).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace paradyn::obs {

/// Track id used by des::Engine for its event-execution spans; model
/// entities are assigned tracks >= 1 by rocc::Simulation::set_trace_recorder.
inline constexpr std::int32_t kEngineTrack = 0;

/// Chrome trace-event phases the recorder supports.  Complete covers spans
/// ("X"), Instant point events ("i"), Counter time series ("C"), and the
/// Async triple ("b"/"n"/"e") tracks a logical operation — here a sample's
/// life from generation to delivery — across model entities.
enum class Phase : std::uint8_t {
  Complete,
  Instant,
  Counter,
  AsyncBegin,
  AsyncInstant,
  AsyncEnd,
};

/// One recorded event.  Fixed-size POD so the ring buffer never allocates
/// on the hot path; name/category/arg names must be string literals.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  const char* arg0_name = nullptr;  ///< Optional numeric argument, or null.
  const char* arg1_name = nullptr;  ///< Optional second argument, or null.
  double ts_us = 0.0;               ///< Simulated time (microseconds).
  double dur_us = 0.0;              ///< Complete spans only.
  double arg0 = 0.0;
  double arg1 = 0.0;
  std::uint64_t id = 0;             ///< Async phases and Counter series only.
  std::int32_t track = 0;           ///< Rendered as the Chrome "tid".
  Phase phase = Phase::Instant;
};

class TraceRecorder;

/// Lightweight writer handle bound to one shard of a TraceRecorder.  Not
/// thread-safe itself — one Tracer belongs to one (single-threaded)
/// simulation; concurrency safety comes from shard-per-tracer ownership.
class Tracer {
 public:
  Tracer() = default;

  /// A span [ts, ts+dur] on `track`.
  void complete(const char* category, const char* name, std::int32_t track, double ts_us,
                double dur_us, const char* arg0_name = nullptr, double arg0 = 0.0,
                const char* arg1_name = nullptr, double arg1 = 0.0) noexcept {
    emit(TraceEvent{name, category, arg0_name, arg1_name, ts_us, dur_us, arg0, arg1, 0, track,
                    Phase::Complete});
  }

  /// A point event on `track`.
  void instant(const char* category, const char* name, std::int32_t track, double ts_us,
               const char* arg0_name = nullptr, double arg0 = 0.0,
               const char* arg1_name = nullptr, double arg1 = 0.0) noexcept {
    emit(TraceEvent{name, category, arg0_name, arg1_name, ts_us, 0.0, arg0, arg1, 0, track,
                    Phase::Instant});
  }

  /// One point of a counter time series named `name`.
  void counter(const char* name, double ts_us, double value) noexcept {
    emit(TraceEvent{name, "counter", nullptr, nullptr, ts_us, 0.0, value, 0.0, 0, 0,
                    Phase::Counter});
  }

  /// Async operation lifecycle; events with the same (category, name, id)
  /// chain into one labeled span in Perfetto.
  void async_begin(const char* category, const char* name, std::uint64_t id, std::int32_t track,
                   double ts_us) noexcept {
    emit(TraceEvent{name, category, nullptr, nullptr, ts_us, 0.0, 0.0, 0.0, id, track,
                    Phase::AsyncBegin});
  }
  void async_instant(const char* category, const char* name, std::uint64_t id, std::int32_t track,
                     double ts_us, const char* arg0_name = nullptr, double arg0 = 0.0) noexcept {
    emit(TraceEvent{name, category, arg0_name, nullptr, ts_us, 0.0, arg0, 0.0, id, track,
                    Phase::AsyncInstant});
  }
  void async_end(const char* category, const char* name, std::uint64_t id, std::int32_t track,
                 double ts_us, const char* arg0_name = nullptr, double arg0 = 0.0) noexcept {
    emit(TraceEvent{name, category, arg0_name, nullptr, ts_us, 0.0, arg0, 0.0, id, track,
                    Phase::AsyncEnd});
  }

  /// Human-readable label for a track of this tracer's process (shown as the
  /// thread name in Perfetto).  Takes the recorder lock — call at setup, not
  /// from hot paths.
  void set_track_name(std::int32_t track, std::string name);

  /// Chrome "pid" this tracer's events carry (one per tracer, so concurrent
  /// simulations appear as separate processes in the viewer).
  [[nodiscard]] std::int32_t pid() const noexcept { return pid_; }

  [[nodiscard]] bool attached() const noexcept { return shard_ != nullptr; }

 private:
  friend class TraceRecorder;

  struct Shard {
    explicit Shard(std::size_t cap) : capacity(cap) { events.reserve(cap); }
    std::size_t capacity;
    std::vector<TraceEvent> events;  ///< Ring once size == capacity.
    std::size_t next = 0;            ///< Overwrite position after wrap.
    std::uint64_t recorded = 0;      ///< Total emitted (kept + dropped).
    std::uint64_t dropped = 0;       ///< Overwritten (oldest-first) events.
    std::int32_t pid = 0;
  };

  Tracer(TraceRecorder* recorder, Shard* shard, std::int32_t pid)
      : recorder_(recorder), shard_(shard), pid_(pid) {}

  void emit(const TraceEvent& e) noexcept {
    Shard& s = *shard_;
    ++s.recorded;
    if (s.events.size() < s.capacity) {
      s.events.push_back(e);
      return;
    }
    // Ring is full: wrap, overwriting the oldest event (the tail of a run
    // is where stalls show; keep the most recent window).
    ++s.dropped;
    s.events[s.next] = e;
    s.next = (s.next + 1) % s.capacity;
  }

  TraceRecorder* recorder_ = nullptr;
  Shard* shard_ = nullptr;
  std::int32_t pid_ = 0;
};

class TraceRecorder {
 public:
  /// `events_per_tracer` bounds each shard; at ~80 bytes per event the
  /// default caps a shard at ~20 MB.  Oldest events are dropped on overflow
  /// (and counted).
  explicit TraceRecorder(std::size_t events_per_tracer = 1u << 18);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Create a writer handle with its own bounded shard.  Thread-safe.
  /// `process_name` labels the tracer's process in the viewer (e.g.
  /// "rep 3" for the third replication of a parallel set).
  [[nodiscard]] Tracer create_tracer(std::string process_name = "");

  /// Totals across all shards.  Safe to call once writers are quiescent.
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Export everything as Chrome trace-event JSON ({"traceEvents": [...]}).
  /// Callers must ensure no tracer is concurrently writing.
  void write_chrome_json(std::ostream& os) const;

  /// Iterate every retained event — shard by shard in pid order, each shard
  /// in the chronological order write_chrome_json emits — invoking
  /// `fn(event, pid)`.  This is the inline-profiling path (`roccsim
  /// --profile`): no JSON round-trip.  Callers must ensure no tracer is
  /// concurrently writing.
  void for_each_event(
      const std::function<void(const TraceEvent& event, std::int32_t pid)>& fn) const;

  /// Track labels registered via Tracer::set_track_name: ((pid, track), label).
  [[nodiscard]] std::vector<std::pair<std::pair<std::int32_t, std::int32_t>, std::string>>
  track_labels() const;

 private:
  friend class Tracer;

  /// Visit one shard's retained events oldest first.
  template <class Fn>
  static void for_each_retained(const Tracer::Shard& shard, Fn&& fn);

  mutable std::mutex mutex_;
  std::size_t events_per_tracer_;
  std::deque<Tracer::Shard> shards_;  ///< deque: stable addresses.
  std::vector<std::string> process_names_;
  /// (pid, track) -> label, set via Tracer::set_track_name.
  std::vector<std::pair<std::pair<std::int32_t, std::int32_t>, std::string>> track_names_;
};

}  // namespace paradyn::obs
