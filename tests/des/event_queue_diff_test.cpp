// Differential determinism suite: the calendar EventQueue must produce a
// pop sequence bit-identical to the reference binary heap on randomized
// schedule/cancel/pop scripts.  This is the proof obligation for swapping
// the queue implementation under seeded experiments — (time, seq) order is
// the only thing the simulation results depend on, so equality here means
// every seeded run is unchanged.
#include <gtest/gtest.h>

#include <cstdint>
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
  void push(SimTime t) {
    const std::uint64_t tag = next_tag_++;
    handles_.emplace_back(calendar_.push(t, [this, t, tag] { calendar_out_.push_back({t, tag}); }),
                          heap_.push(t, [this, t, tag] { heap_out_.push_back({t, tag}); }));
    live_.push_back(handles_.size() - 1);
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
  [[nodiscard]] std::size_t popped() const noexcept { return calendar_out_.size(); }

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
