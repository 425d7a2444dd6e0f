// Slab-pool lifecycle and generation-counter (ABA) coverage, plus unit
// tests for the InlineFunction callback storage.  The pool recycles event
// slots aggressively, so a stale handle whose slot now hosts a different
// event must be inert: pending() false, cancel() a no-op for the new tenant.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "des/inline_function.hpp"

namespace paradyn::des {
namespace {

// --- Generation-counter / ABA ---------------------------------------------

TEST(EventPool, StaleHandleToRecycledSlotIsNotPending) {
  EventQueue q;
  auto stale = q.push(1.0, [] {});
  auto fired = q.pop();
  ASSERT_TRUE(fired.has_value());
  q.fire(*fired);
  ASSERT_FALSE(stale.pending());

  // The single-slot pool guarantees the next push reuses the same slot.
  bool tenant_fired = false;
  auto tenant = q.push(2.0, [&] { tenant_fired = true; });
  EXPECT_TRUE(tenant.pending());
  EXPECT_FALSE(stale.pending()) << "stale handle must not see the new tenant";

  // Cancelling through the stale handle must not evict the new tenant.
  q.cancel(stale);
  EXPECT_TRUE(tenant.pending());
  EXPECT_EQ(q.size(), 1u);
  fired = q.pop();
  ASSERT_TRUE(fired.has_value());
  q.fire(*fired);
  EXPECT_TRUE(tenant_fired);
}

TEST(EventPool, StaleHandleSurvivesManyRecycles) {
  EventQueue q;
  auto stale = q.push(1.0, [] {});
  q.cancel(stale);
  // Recycle slot 0 enough times to wrap small counters if the generation
  // were narrower than intended.
  for (int i = 0; i < 10'000; ++i) {
    auto h = q.push(static_cast<SimTime>(i), [] {});
    auto fired = q.pop();
    ASSERT_TRUE(fired.has_value());
    q.fire(*fired);
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(stale.pending());
  }
  EXPECT_LE(q.allocated_slots(), 2u);
}

TEST(EventPool, HandlesFromDifferentQueuesDoNotCrossTalk) {
  EventQueue a;
  EventQueue b;
  auto ha = a.push(1.0, [] {});
  auto hb = b.push(1.0, [] {});
  // Same slot index and generation in both queues; cancel against the
  // wrong queue must be a no-op.
  b.cancel(ha);
  EXPECT_TRUE(ha.pending());
  EXPECT_EQ(b.size(), 1u);
  a.cancel(ha);
  EXPECT_FALSE(ha.pending());
  EXPECT_TRUE(hb.pending());
}

// --- Lifecycle: pending -> firing -> recycled -----------------------------

TEST(EventLifecycle, NotPendingWhileFiring) {
  EventQueue q;
  EventHandle h;
  bool checked = false;
  h = q.push(1.0, [&] {
    EXPECT_FALSE(h.pending());
    checked = true;
  });
  auto fired = q.pop();
  ASSERT_TRUE(fired.has_value());
  q.fire(*fired);
  EXPECT_TRUE(checked);
}

TEST(EventLifecycle, SelfCancelDuringFiringIsSafeNoOp) {
  // The daemon's flush-timer callback runs while its own handle still
  // refers to the firing slot; cancelling it must not corrupt the pool or
  // affect other events.
  EventQueue q;
  EventHandle h;
  bool other_fired = false;
  h = q.push(1.0, [&] { q.cancel(h); });
  (void)q.push(2.0, [&] { other_fired = true; });
  while (auto fired = q.pop()) q.fire(*fired);
  EXPECT_TRUE(other_fired);
  EXPECT_TRUE(q.empty());
  // The slot recycled normally: a fresh push still works.
  (void)q.push(3.0, [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventLifecycle, CancelOtherPendingEventFromCallback) {
  EventQueue q;
  bool victim_fired = false;
  auto victim = q.push(2.0, [&] { victim_fired = true; });
  (void)q.push(1.0, [&] { q.cancel(victim); });
  while (auto fired = q.pop()) q.fire(*fired);
  EXPECT_FALSE(victim_fired);
}

TEST(EventLifecycle, RescheduleFromCallbackReusesRecycledSlots) {
  // Self-perpetuating timer: each firing schedules the next.  The pool
  // must plateau rather than leak a slot per firing.
  EventQueue q;
  int fires = 0;
  // Callback captures [&q, &fires, &arm]: arm re-pushes via a function
  // object stored outside the queue so recursion is well-defined.
  struct Timer {
    EventQueue& q;
    int& fires;
    SimTime t = 0.0;
    void arm() {
      t += 1.0;
      (void)q.push(t, [this] {
        if (++fires < 1'000) arm();
      });
    }
  } timer{q, fires};
  timer.arm();
  while (auto fired = q.pop()) q.fire(*fired);
  EXPECT_EQ(fires, 1'000);
  EXPECT_LE(q.allocated_slots(), 2u);
}

// --- InlineFunction --------------------------------------------------------

TEST(InlineFunction, DefaultIsEmptyAndResettable) {
  InlineFunction<64> f;
  EXPECT_FALSE(f);
  f = [] {};
  EXPECT_TRUE(f);
  f.reset();
  EXPECT_FALSE(f);
  f = nullptr;
  EXPECT_FALSE(f);
}

TEST(InlineFunction, InvokesStoredCallable) {
  int count = 0;
  InlineFunction<64> f = [&count] { ++count; };
  f();
  f();
  EXPECT_EQ(count, 2);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  int count = 0;
  InlineFunction<64> a = [&count] { ++count; };
  InlineFunction<64> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) — documented postcondition
  EXPECT_TRUE(b);
  b();
  EXPECT_EQ(count, 1);
  a = std::move(b);
  EXPECT_TRUE(a);
  a();
  EXPECT_EQ(count, 2);
}

TEST(InlineFunction, DestroysCapturedState) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    InlineFunction<64> f = [token] { (void)*token; };
    token.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, MoveAssignDestroysPreviousCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineFunction<64> f = [token] {};
  token.reset();
  EXPECT_FALSE(watch.expired());
  f = [] {};
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, CapacityAccountingMatchesEventQueueSlot) {
  // The rocc SmallCallback must fit inside an EventQueue callback slot so
  // zero-duration requests can move the user callback straight into the
  // engine (cpu.cpp / network.cpp rely on this).
  static_assert(sizeof(InlineFunction<16>) <= EventQueue::kCallbackCapacity);
  InlineFunction<EventQueue::kCallbackCapacity> big = InlineFunction<16>([] {});
  EXPECT_TRUE(big);
}

}  // namespace
}  // namespace paradyn::des
