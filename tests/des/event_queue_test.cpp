#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace paradyn::des {
namespace {

/// Pop every remaining event, firing each callback.
void drain(EventQueue& q) {
  while (auto fired = q.pop()) q.fire(*fired);
}

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop_until(1e300, true).has_value());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(3.0, [&] { order.push_back(3); });
  (void)q.push(1.0, [&] { order.push_back(1); });
  (void)q.push(2.0, [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)q.push(5.0, [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PeekReportsEarliestLiveTime) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  (void)q.push(2.0, [] {});
  // The bounded pop sees the earliest live time: nothing before 1.0, and
  // once the 1.0 event is cancelled, nothing before 2.0.
  EXPECT_FALSE(q.pop_until(1.0, false).has_value());
  q.cancel(h);
  EXPECT_FALSE(q.pop_until(1.5, true).has_value());
  EXPECT_FALSE(q.pop_until(2.0, false).has_value());
  const auto head = q.pop_until(2.0, true);
  ASSERT_TRUE(head.has_value());
  EXPECT_DOUBLE_EQ(head->time, 2.0);
  q.fire(*head);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  auto h = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  q.cancel(h);
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeOnDefaultHandle) {
  EventQueue q;
  EventHandle empty;
  q.cancel(empty);  // no-op
  auto h = q.push(1.0, [] {});
  q.cancel(h);
  q.cancel(h);  // second cancel must not corrupt the live count
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, HandleNotPendingAfterPop) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  auto fired = q.pop();
  ASSERT_TRUE(fired.has_value());
  EXPECT_FALSE(h.pending());
  q.fire(*fired);
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  auto h1 = q.push(1.0, [] {});
  (void)q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(h1);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(q.push(static_cast<SimTime>(100 - i), [] {}));
  }
  // Cancel every other event.
  for (std::size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
  EXPECT_EQ(q.size(), 50u);
  SimTime last = -1.0;
  std::size_t popped = 0;
  while (auto fired = q.pop()) {
    EXPECT_GE(fired->time, last);
    last = fired->time;
    ++popped;
    q.fire(*fired);
  }
  EXPECT_EQ(popped, 50u);
}

TEST(EventQueue, FarFutureEventsCrossTheOverflowTier) {
  // Times spanning ten decades force repeated window advances.
  EventQueue q;
  std::vector<double> order;
  for (int decade = 9; decade >= 0; --decade) {
    for (int i = 0; i < 20; ++i) {
      const SimTime t = std::pow(10.0, decade) + i;
      (void)q.push(t, [&order, t] { order.push_back(t); });
    }
  }
  drain(q);
  ASSERT_EQ(order.size(), 200u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LE(order[i - 1], order[i]);
}

TEST(EventQueue, PushBeforeWindowStartStillPopsFirst) {
  EventQueue q;
  std::vector<int> order;
  // Establish a window around t=1000, then push an earlier event.
  for (int i = 0; i < 8; ++i) {
    (void)q.push(1000.0 + i, [&order, i] { order.push_back(i); });
  }
  auto fired = q.pop();  // window now starts at 1000
  ASSERT_TRUE(fired.has_value());
  q.fire(*fired);
  (void)q.push(500.0, [&order] { order.push_back(-1); });
  fired = q.pop();
  ASSERT_TRUE(fired.has_value());
  EXPECT_DOUBLE_EQ(fired->time, 500.0);
  q.fire(*fired);
  EXPECT_EQ(order.back(), -1);
}

TEST(EventQueue, PopUntilRecordAtTheLimit) {
  // Exclusive leaves a record at exactly the limit for the next window;
  // inclusive pops it.
  EventQueue q;
  (void)q.push(10.0, [] {});
  EXPECT_FALSE(q.pop_until(10.0, false).has_value());
  EXPECT_EQ(q.size(), 1u);
  auto fired = q.pop_until(10.0, true);
  ASSERT_TRUE(fired.has_value());
  EXPECT_DOUBLE_EQ(fired->time, 10.0);
  q.fire(*fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopUntilSkipsACancelledHead) {
  EventQueue q;
  bool cancelled_ran = false;
  auto head = q.push(1.0, [&] { cancelled_ran = true; });
  (void)q.push(2.0, [] {});
  (void)q.push(3.0, [] {});
  q.cancel(head);
  auto fired = q.pop_until(2.0, true);
  ASSERT_TRUE(fired.has_value());
  EXPECT_DOUBLE_EQ(fired->time, 2.0);
  q.fire(*fired);
  EXPECT_FALSE(q.pop_until(2.5, true).has_value());
  EXPECT_FALSE(cancelled_ran);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopUntilBelowTheHeadLeavesTheQueueUnchanged) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) (void)q.push(100.0 + i, [&order, i] { order.push_back(i); });
  EXPECT_FALSE(q.pop_until(50.0, true).has_value());
  EXPECT_FALSE(q.pop_until(100.0, false).has_value());
  EXPECT_EQ(q.size(), 4u);
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, PopUntilOnAnEmptyQueue) {
  EventQueue q;
  EXPECT_FALSE(q.pop_until(1e9, true).has_value());
  EXPECT_FALSE(q.pop_until(1e9, false).has_value());
  auto h = q.push(1.0, [] {});
  q.cancel(h);
  EXPECT_FALSE(q.pop_until(1e9, true).has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SlabPoolPlateausUnderChurn) {
  // Steady-state schedule-one-pop-one must recycle a bounded set of slots,
  // not grow the pool per event.
  EventQueue q;
  SimTime t = 0.0;
  for (int i = 0; i < 64; ++i) (void)q.push(t + i, [] {});
  for (int i = 0; i < 100'000; ++i) {
    auto fired = q.pop();
    ASSERT_TRUE(fired.has_value());
    q.fire(*fired);
    t = fired->time;
    (void)q.push(t + 64.0, [] {});
  }
  EXPECT_LE(q.allocated_slots(), 256u);
  drain(q);
}

}  // namespace
}  // namespace paradyn::des
