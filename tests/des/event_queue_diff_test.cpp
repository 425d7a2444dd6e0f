// Differential determinism suite: the calendar EventQueue must produce a
// pop sequence bit-identical to the reference binary heap on randomized
// schedule/cancel/pop scripts.  This is the proof obligation for swapping
// the queue implementation under seeded experiments — (time, seq) order is
// the only thing the simulation results depend on, so equality here means
// every seeded run is unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "des/random.hpp"
#include "support/heap_event_queue.hpp"

namespace paradyn::des {
namespace {

struct Popped {
  SimTime time;
  std::uint64_t tag;
  bool operator==(const Popped&) const = default;
};

/// Drives both queues through the same operation script and compares the
/// full pop sequences (time + per-push tag).
class LockstepDriver {
 public:
  /// Push one event at `t` into both queues; returns its tag.
  std::uint64_t push(SimTime t) {
    const std::uint64_t tag = next_tag_++;
    handles_.emplace_back(calendar_.push(t, [this, t, tag] { calendar_out_.push_back({t, tag}); }),
                          heap_.push(t, [this, t, tag] { heap_out_.push_back({t, tag}); }));
    live_.push_back(handles_.size() - 1);
    return tag;
  }

  /// Cancel the k-th (mod live) not-yet-cancelled pushed event in both
  /// queues.  Popped events may be in the list too — cancelling those is a
  /// no-op in both implementations, which is itself worth exercising.
  void cancel(std::size_t k) {
    if (live_.empty()) return;
    const std::size_t idx = live_[k % live_.size()];
    EXPECT_EQ(handles_[idx].first.pending(), handles_[idx].second.pending());
    calendar_.cancel(handles_[idx].first);
    heap_.cancel(handles_[idx].second);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(k % live_.size()));
  }

  /// Pop one event from each queue and fire it.
  void pop_one() {
    auto c = calendar_.pop();
    auto h = heap_.pop();
    ASSERT_EQ(c.has_value(), h.has_value());
    if (!c) return;
    last_pop_time_ = c->time;
    calendar_.fire(*c);
    h->callback();
    ASSERT_EQ(calendar_out_.size(), heap_out_.size());
    ASSERT_EQ(calendar_out_.back(), heap_out_.back());
  }

  void drain() {
    while (calendar_.size() > 0 || heap_.size() > 0) {
      pop_one();
      ASSERT_EQ(calendar_.size(), heap_.size());
    }
  }

  void compare() const {
    ASSERT_EQ(calendar_out_.size(), heap_out_.size());
    EXPECT_EQ(calendar_out_, heap_out_);
    EXPECT_EQ(calendar_.size(), heap_.size());
  }

  [[nodiscard]] SimTime last_pop_time() const noexcept { return last_pop_time_; }
  /// Tag of the last popped event (only after a successful pop).
  [[nodiscard]] std::uint64_t last_pop_tag() const { return calendar_out_.back().tag; }
  [[nodiscard]] std::size_t popped() const noexcept { return calendar_out_.size(); }
  /// Pushed events not yet passed to cancel(); cancel(live() - 1 - j)
  /// cancels the j-th most recent of them.
  [[nodiscard]] std::size_t live() const noexcept { return live_.size(); }

 private:
  EventQueue calendar_;
  HeapEventQueue heap_;
  std::vector<std::pair<EventHandle, HeapEventHandle>> handles_;
  std::vector<std::size_t> live_;
  std::vector<Popped> calendar_out_;
  std::vector<Popped> heap_out_;
  std::uint64_t next_tag_ = 0;
  SimTime last_pop_time_ = 0.0;
};

TEST(EventQueueDiff, RandomizedClusteredScript) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    LockstepDriver d;
    RngStream rng(seed, 17);
    SimTime horizon = 0.0;
    for (int op = 0; op < 20'000; ++op) {
      const double r = rng.next_double();
      if (r < 0.45) {
        // Clustered near-future push, occasionally far future.
        const double spread = rng.next_double() < 0.05 ? 1e6 : 100.0;
        d.push(horizon + rng.next_double() * spread);
      } else if (r < 0.55) {
        d.cancel(static_cast<std::size_t>(rng.next_double() * 1000.0));
      } else {
        d.pop_one();
        horizon = std::max(horizon, d.last_pop_time());
      }
    }
    d.drain();
    d.compare();
  }
}

TEST(EventQueueDiff, SameTimestampBursts) {
  LockstepDriver d;
  RngStream rng(42, 3);
  SimTime now = 0.0;
  for (int round = 0; round < 500; ++round) {
    // A burst of same-instant events — tie-breaking must be insertion order
    // in both queues.
    const SimTime t = now + rng.next_double() * 10.0;
    const int burst = 1 + static_cast<int>(rng.next_double() * 20.0);
    for (int i = 0; i < burst; ++i) d.push(t);
    if (rng.next_double() < 0.3) d.cancel(static_cast<std::size_t>(rng.next_double() * 64.0));
    for (int i = 0; i < burst / 2; ++i) d.pop_one();
    now = std::max(now, d.last_pop_time());
  }
  d.drain();
  d.compare();
}

/// The ROCC sampling pattern: n timers share one period, so they fire on
/// the same instant and each re-arms one period later — a burst of n
/// same-instant pushes into one bucket.  With `jitter` > 0, timer i runs
/// i * jitter behind timer 0 instead.
void synchronized_timers(std::size_t n, SimTime jitter) {
  constexpr SimTime kPeriod = 500.0;
  constexpr SimTime kFirstWindowEnd = 8192.0;  // kNumBuckets one-microsecond buckets
  LockstepDriver d;
  RngStream rng(n, jitter > 0.0 ? 2 : 1);
  // Pacers a microsecond apart size the first window's buckets at 1 us, so
  // it spans [0, 8192): the synchronized bursts at 500, 1000, ... re-arm
  // into that window until the advance at 8500.  The jittered burst is
  // centred on the window's end instead, so the window advances halfway
  // through the first burst.
  for (int i = 0; i < 32; ++i) (void)d.push(static_cast<SimTime>(i));
  const SimTime first =
      jitter > 0.0 ? kFirstWindowEnd - static_cast<SimTime>(n / 2) * jitter : kPeriod;
  std::unordered_set<std::uint64_t> timers;
  for (std::size_t i = 0; i < n; ++i) {
    timers.insert(d.push(first + static_cast<SimTime>(i) * jitter));
  }
  SimTime burst_start = -kPeriod;
  std::size_t bursts = 0;
  for (std::size_t k = 0; k < 21 * n + 64; ++k) {
    d.pop_one();
    if (::testing::Test::HasFatalFailure()) return;
    const SimTime t = d.last_pop_time();
    if (timers.erase(d.last_pop_tag()) == 0) continue;  // pacers and late records fire once
    if (t - burst_start >= kPeriod / 2) {
      burst_start = t;
      // Every fourth burst, a later record already sits in the bucket the
      // burst re-arms into: the re-arms sort before it and walk the bucket.
      if (bursts++ % 4 == 1) (void)d.push(t + kPeriod + 1e-3);
    }
    timers.insert(d.push(t + kPeriod));
    // Cancels inside the burst: a timer still due at this instant or a
    // re-arm already in the next burst's bucket.
    if (rng.next_double() < 0.01) {
      d.cancel(d.live() - 1 -
               static_cast<std::size_t>(rng.next_double() * static_cast<double>(n)));
    }
  }
  d.drain();
  d.compare();
}

TEST(EventQueueDiff, SynchronizedTimerBursts) {
  for (const std::size_t n : {64u, 512u, 4096u}) {
    SCOPED_TRACE(n);
    synchronized_timers(n, 0.0);
  }
}

TEST(EventQueueDiff, NearlySynchronizedBurstAcrossAWindowAdvance) {
  for (const std::size_t n : {64u, 512u, 4096u}) {
    SCOPED_TRACE(n);
    synchronized_timers(n, 1e-3);
  }
}

TEST(EventQueueDiff, CancelRescheduleLoops) {
  // The daemon flush-timer pattern: arm a timer, cancel it, immediately
  // re-arm at a different time; interleave with pops.
  LockstepDriver d;
  RngStream rng(7, 29);
  SimTime now = 0.0;
  for (int round = 0; round < 5'000; ++round) {
    d.push(now + 50.0 + rng.next_double());
    d.cancel(0);  // cancel the oldest live event
    d.push(now + 25.0 + rng.next_double());
    if (rng.next_double() < 0.7) {
      d.pop_one();
      now = std::max(now, d.last_pop_time());
    }
  }
  d.drain();
  d.compare();
}

TEST(EventQueueDiff, UniformHorizonBulkLoad) {
  // Everything pushed up front across a wide horizon (overflow-tier heavy),
  // then drained — exercises sorting and repeated window migration.
  LockstepDriver d;
  RngStream rng(11, 5);
  for (int i = 0; i < 30'000; ++i) d.push(rng.next_double() * 1e6);
  for (int i = 0; i < 300; ++i) d.cancel(static_cast<std::size_t>(rng.next_double() * 30'000.0));
  d.drain();
  d.compare();
  EXPECT_EQ(d.popped(), 30'000u - 300u);
}

}  // namespace
}  // namespace paradyn::des
