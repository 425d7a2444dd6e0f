#include "des/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace paradyn::des {
namespace {

TEST(Engine, ClockStartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, RunAdvancesClockToEventTimes) {
  Engine e;
  std::vector<SimTime> seen;
  (void)e.schedule_at(10.0, [&] { seen.push_back(e.now()); });
  (void)e.schedule_at(5.0, [&] { seen.push_back(e.now()); });
  const auto executed = e.run();
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(seen, (std::vector<SimTime>{5.0, 10.0}));
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  SimTime inner_fire_time = -1.0;
  (void)e.schedule_at(100.0, [&] {
    (void)e.schedule_after(50.0, [&] { inner_fire_time = e.now(); });
  });
  (void)e.run();
  EXPECT_DOUBLE_EQ(inner_fire_time, 150.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  (void)e.schedule_at(10.0, [&] {
    EXPECT_THROW((void)e.schedule_at(5.0, [] {}), std::invalid_argument);
  });
  (void)e.run();
}

TEST(Engine, SchedulingAtNaNThrows) {
  // NaN compares false against every time, so it must not slip past the
  // past-time guard into the calendar queue.
  Engine e;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)e.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW((void)e.schedule_after(nan, [] {}), std::invalid_argument);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, RunUntilStopsAtHorizonAndSetsClock) {
  Engine e;
  int fired = 0;
  (void)e.schedule_at(10.0, [&] { ++fired; });
  (void)e.schedule_at(20.0, [&] { ++fired; });
  (void)e.schedule_at(30.0, [&] { ++fired; });
  const auto executed = e.run_until(25.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 25.0);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, RunUntilIncludesEventsAtHorizon) {
  Engine e;
  int fired = 0;
  (void)e.schedule_at(25.0, [&] { ++fired; });
  (void)e.run_until(25.0);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int fired = 0;
  (void)e.schedule_at(1.0, [&] {
    ++fired;
    e.stop();
  });
  (void)e.schedule_at(2.0, [&] { ++fired; });
  (void)e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending_events(), 1u);
  // A subsequent run resumes.
  (void)e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  auto h = e.schedule_at(1.0, [&] { fired = true; });
  e.cancel(h);
  (void)e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, SameTimeSelfSchedulingRunsAfterCurrentCallback) {
  Engine e;
  std::vector<int> order;
  (void)e.schedule_at(1.0, [&] {
    (void)e.schedule_after(0.0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  (void)e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, EventsProcessedAccumulatesAcrossRuns) {
  Engine e;
  (void)e.schedule_at(1.0, [] {});
  (void)e.run();
  (void)e.schedule_at(2.0, [] {});
  (void)e.run();
  EXPECT_EQ(e.events_processed(), 2u);
}

TEST(Engine, RunUntilWithEmptyQueueAdvancesClock) {
  Engine e;
  (void)e.run_until(42.0);
  EXPECT_DOUBLE_EQ(e.now(), 42.0);
}

}  // namespace
}  // namespace paradyn::des
