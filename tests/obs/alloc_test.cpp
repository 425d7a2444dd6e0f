// Allocation gate for the trace hot paths: exporting, stream-profiling and
// inline-profiling a trace must allocate nothing per event, and the stream
// reader must not buffer whole top-level members.  This binary replaces the
// global operator new with a counting one, so it stays apart from the other
// obs tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <streambuf>
#include <string>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};  ///< Largest single allocation seen.

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest && !g_largest.compare_exchange_weak(largest, size)) {
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line: inlined into the operator deletes, free() looks to GCC's
// -Wmismatched-new-delete like freeing a pointer from operator new.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every non-aligned form is replaced, so no allocation reaches a runtime's
// own operator new (the sanitizers bring one) and each pairs with free().
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace paradyn::obs {
namespace {

/// Output sink that keeps nothing.
class NullBuf : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
};

/// A recorder holding `chains` sample lifecycles spread over 16 tracks,
/// with the spans, instants and counters around them.
void record(TraceRecorder& recorder, int chains) {
  Tracer t = recorder.create_tracer("rep 0");
  for (int track = 1; track <= 16; ++track) t.set_track_name(track, "node");
  for (int i = 0; i < chains; ++i) {
    const double ts = 250.0 * i;
    const auto id = static_cast<std::uint64_t>(i);
    const int track = 1 + i % 16;
    t.complete("des", "event", 0, ts, 0.0, "pending", 40.0);
    t.async_begin("sample", "lifecycle", id, track, ts);
    t.complete("cpu", "app", track, ts, 30.0 + i % 7, "remaining_us", 1.0, "ready", 2.0);
    t.async_instant("sample", "lifecycle", id, track, ts + 1.0, "enq", 1.0);
    t.instant("pipe", "enqueue", track, ts + 1.0, "depth", 3.0);
    t.async_instant("sample", "lifecycle", id, track, ts + 40.0, "deq", 0.0);
    t.async_instant("sample", "lifecycle", id, track, ts + 55.0, "collect", 15.0);
    t.async_instant("sample", "lifecycle", id, track, ts + 60.0, "fwd", 1.0);
    t.complete("net", "pd", 20, ts + 60.0, 20.0, "queued", 0.0);
    t.async_instant("sample", "lifecycle", id, track, ts + 80.0, "net", 20.0);
    t.async_end("sample", "lifecycle", id, 21, ts + 90.0);
    t.counter("main.backlog", ts + 90.0, 1.0);
  }
}

struct Costs {
  std::uint64_t events = 0;
  std::uint64_t exported = 0;  ///< Allocations made by write_chrome_json.
  std::uint64_t streamed = 0;  ///< ... by profile_trace_stream.
  std::uint64_t native = 0;    ///< ... by profile_recorder.
};

Costs measure(int chains) {
  TraceRecorder recorder(12 * static_cast<std::size_t>(chains) + 16);
  record(recorder, chains);
  Costs c;
  c.events = recorder.recorded();

  NullBuf null;
  std::ostream sink(&null);
  std::uint64_t before = g_allocations.load();
  recorder.write_chrome_json(sink);
  c.exported = g_allocations.load() - before;

  std::stringstream json;
  recorder.write_chrome_json(json);
  const std::string text = json.str();
  std::istringstream is(text);
  before = g_allocations.load();
  const ProfileReport streamed = profile_trace_stream(is);
  c.streamed = g_allocations.load() - before;
  EXPECT_EQ(streamed.chains_complete, static_cast<std::uint64_t>(chains));

  before = g_allocations.load();
  const ProfileReport native = profile_recorder(recorder);
  c.native = g_allocations.load() - before;
  EXPECT_EQ(native.events, streamed.events);
  return c;
}

TEST(TraceAllocations, NoAllocationPerEvent) {
  // 16x the events may cost only the logarithmic growth steps of the
  // accumulators (window vector, per-track busy intervals and busy
  // windows, hash tables): well under one allocation per thousand extra
  // events, where one per event or per chain would be hundreds of times
  // more.
  const Costs small = measure(2'000);
  const Costs large = measure(32'000);
  ASSERT_EQ(large.events, 16 * small.events);
  const std::uint64_t budget = (large.events - small.events) / 1000;
  EXPECT_LE(large.exported, small.exported + budget);
  EXPECT_LE(large.streamed, small.streamed + budget);
  EXPECT_LE(large.native, small.native + budget);
  EXPECT_LE(large.exported, 4u);  // one block buffer
}

TEST(TraceAllocations, StrayTimestampCostsOneWindow) {
  // One lifecycle mark at 10^12 us lands in the last of the profiler's 4M
  // W3 windows.  It must cost that window, not a vector of every window up
  // to it (608 MB of them), and the hypotheses must not move.
  TraceRecorder recorder(12 * 2'000 + 16);
  record(recorder, 2'000);
  std::stringstream json;
  recorder.write_chrome_json(json);
  std::string text = json.str();
  const ProfileReport clean = [&] {
    std::istringstream is(text);
    return profile_trace_stream(is);
  }();
  const std::string stray =
      R"({"name":"lifecycle","cat":"sample","ph":"n","ts":1000000000000.000,"pid":0,)"
      R"("tid":1,"id":"0xffffff","args":{"enq":1.000}},)"
      "\n";
  text.insert(text.find('\n') + 1, stray);
  std::istringstream is(text);
  g_largest = 0;
  const ProfileReport report = profile_trace_stream(is);
  EXPECT_LT(g_largest.load(), std::size_t{1} << 20);  // under 7k dense windows
  EXPECT_EQ(report.events, clean.events + 1);
  ASSERT_EQ(report.hypotheses.size(), clean.hypotheses.size());
  for (std::size_t i = 0; i < clean.hypotheses.size(); ++i) {
    const HypothesisFinding& a = clean.hypotheses[i];
    const HypothesisFinding& b = report.hypotheses[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.target, a.target) << a.name;
    EXPECT_EQ(b.held, a.held) << a.name;
    EXPECT_EQ(b.first_held_start_us, a.first_held_start_us) << a.name;
    EXPECT_EQ(b.first_held_end_us, a.first_held_end_us) << a.name;
    EXPECT_EQ(b.peak, a.peak) << a.name;
    EXPECT_EQ(b.windows_held, a.windows_held) << a.name;
  }
}

TEST(TraceAllocations, LargeMembersBesideTheEventsAreNotBuffered) {
  // 4 MB of numbers under a "metadata" member is skipped a token at a
  // time, so the read window stays near its 64 KiB refill size.
  std::string json = R"({"metadata":{"frames":[)";
  for (int i = 0; i < 500'000; ++i) json += "1234567,";
  json += R"(0]},"traceEvents":[{"name":"x","cat":"c","ph":"i","ts":1,"pid":0,"tid":0}]})";
  std::istringstream is(json);
  g_largest = 0;
  const ProfileReport report = profile_trace_stream(is);
  EXPECT_EQ(report.events, 1u);
  EXPECT_LT(g_largest.load(), std::size_t{1} << 20);
}

}  // namespace
}  // namespace paradyn::obs
