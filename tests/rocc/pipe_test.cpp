#include "rocc/pipe.hpp"

#include <gtest/gtest.h>

namespace paradyn::rocc {
namespace {

Sample make_sample(double t) { return Sample{t, 0, 0}; }

TEST(Pipe, ValidatesCapacity) {
  EXPECT_THROW(Pipe(0), std::invalid_argument);
  EXPECT_THROW(Pipe(-1), std::invalid_argument);
}

TEST(Pipe, FifoOrder) {
  Pipe p(4);
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  EXPECT_TRUE(p.try_put(make_sample(2.0)));
  auto a = p.try_get();
  auto b = p.try_get();
  ASSERT_TRUE(a && b);
  EXPECT_DOUBLE_EQ(a->generated_at, 1.0);
  EXPECT_DOUBLE_EQ(b->generated_at, 2.0);
  EXPECT_FALSE(p.try_get().has_value());
}

TEST(Pipe, RejectsWhenFull) {
  Pipe p(2);
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  EXPECT_TRUE(p.try_put(make_sample(2.0)));
  EXPECT_TRUE(p.full());
  EXPECT_FALSE(p.try_put(make_sample(3.0)));
  EXPECT_EQ(p.total_accepted(), 2u);
  EXPECT_EQ(p.total_rejected(), 1u);
}

TEST(Pipe, DataCallbackFiresOncePerRegistration) {
  Pipe p(4);
  int fired = 0;
  p.notify_on_data([&] { ++fired; });
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(p.try_put(make_sample(2.0)));
  EXPECT_EQ(fired, 1);  // one-shot: not re-registered
}

TEST(Pipe, SpaceCallbackFiresAfterGet) {
  Pipe p(1);
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  int fired = 0;
  p.notify_on_space([&] { ++fired; });
  EXPECT_EQ(fired, 0);
  (void)p.try_get();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(p.try_put(make_sample(2.0)));
  (void)p.try_get();
  EXPECT_EQ(fired, 1);  // one-shot
}

TEST(Pipe, CallbackMayReRegisterItself) {
  Pipe p(4);
  int fired = 0;
  std::function<void()> again = [&] {
    ++fired;
    p.notify_on_data([&again] { again(); });
  };
  p.notify_on_data([&again] { again(); });
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  EXPECT_TRUE(p.try_put(make_sample(2.0)));
  EXPECT_EQ(fired, 2);
}

TEST(Pipe, CallbackMayConsumeTheSample) {
  // A daemon that drains synchronously from the data callback.
  Pipe p(2);
  int got = 0;
  std::function<void()> drain = [&] {
    while (p.try_get()) ++got;
    p.notify_on_data([&drain] { drain(); });
  };
  p.notify_on_data([&drain] { drain(); });
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  EXPECT_TRUE(p.try_put(make_sample(2.0)));
  EXPECT_EQ(got, 2);
  EXPECT_TRUE(p.empty());
}

TEST(Pipe, SizeTracking) {
  Pipe p(3);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.capacity(), 3);
  (void)p.try_put(make_sample(1.0));
  (void)p.try_put(make_sample(2.0));
  EXPECT_EQ(p.size(), 2u);
  (void)p.try_get();
  EXPECT_EQ(p.size(), 1u);
}

TEST(Pipe, BlockedProducerPattern) {
  // The exact sequence the app process uses: fill, block, drain, resume.
  Pipe p(1);
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  EXPECT_FALSE(p.try_put(make_sample(2.0)));  // would block: register
  bool resumed = false;
  p.notify_on_space([&] {
    resumed = true;
    EXPECT_TRUE(p.try_put(make_sample(2.0)));
  });
  const auto s = p.try_get();
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(resumed);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p.try_get()->generated_at, 2.0);
}

TEST(Pipe, CapacityLimitClampsWithoutEvictingBufferedSamples) {
  Pipe p(4);
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  EXPECT_TRUE(p.try_put(make_sample(2.0)));
  EXPECT_TRUE(p.try_put(make_sample(3.0)));

  p.set_capacity_limit(1);
  EXPECT_EQ(p.effective_capacity(), 1);
  EXPECT_EQ(p.size(), 3u);  // already-buffered samples survive
  EXPECT_TRUE(p.full());
  EXPECT_FALSE(p.try_put(make_sample(4.0)));

  // Draining below the clamp still leaves the pipe full at size 1 ...
  (void)p.try_get();
  (void)p.try_get();
  EXPECT_TRUE(p.full());
  // ... and lifting the clamp restores the declared capacity.
  p.clear_capacity_limit();
  EXPECT_EQ(p.effective_capacity(), 4);
  EXPECT_FALSE(p.full());
  EXPECT_TRUE(p.try_put(make_sample(4.0)));
}

TEST(Pipe, LiftingCapacityLimitWakesBlockedProducer) {
  Pipe p(2);
  p.set_capacity_limit(1);
  EXPECT_TRUE(p.try_put(make_sample(1.0)));
  EXPECT_FALSE(p.try_put(make_sample(2.0)));  // clamped full: block
  bool resumed = false;
  p.notify_on_space([&] { resumed = true; });
  p.clear_capacity_limit();  // room appeared without a get
  EXPECT_TRUE(resumed);
}

TEST(Pipe, CapacityLimitRejectsNonPositive) {
  Pipe p(2);
  EXPECT_THROW(p.set_capacity_limit(0), std::invalid_argument);
  EXPECT_THROW(p.set_capacity_limit(-3), std::invalid_argument);
}

}  // namespace
}  // namespace paradyn::rocc
