// Benchmark-side tracing: clocks, and spans recorded around the calls the
// benchmark makes into each library layer.
//
// A span holds a name, host start/end (seconds since the log was created),
// the index of the span that caused it, and the simulation run it belongs
// to (-1 outside any run).  Spans stay in memory and are written out once,
// when the benchmark ends.  Nothing here reaches inside the libraries: every
// boundary is a call the benchmark itself makes.
#pragma once

#include <chrono>
#include <ctime>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic time in seconds.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, all threads) in seconds.
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Span {
  const char* name = nullptr;  ///< String literal.
  double start = 0.0;          ///< Host seconds (now_s()).
  double end = 0.0;
  int parent = -1;  ///< Index of the causing span, -1 for a root.
  int run = -1;     ///< Simulation run id, -1 outside any run.
};

/// Thread-safe, append-only span store.
class SpanLog {
 public:
  SpanLog() : origin_(now_s()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Record a finished span; returns its index.
  int add(const char* name, double start, double end, int parent, int run) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, end, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Open a span at `start`; close it with close().
  int open(const char* name, int parent, int run, double start = now_s()) {
    return add(name, start, start, parent, run);
  }
  void close(int index, double end = now_s()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = end;
  }

  /// A fresh simulation run id.
  int next_run() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_run_++;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// {"provenance": <json>, "spans": [{name, start_s, end_s, parent, run}]}
  /// with times relative to the log's creation.
  void write_json(std::ostream& os, const std::string& provenance_json) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  int next_run_ = 0;
  double origin_;
};

/// RAII span that is a no-op when `log` is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1, int run = -1)
      : log_(log), index_(log ? log->open(name, parent, run) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
