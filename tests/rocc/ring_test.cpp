#include "rocc/ring.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rocc/pipe.hpp"
#include "rocc/types.hpp"

namespace paradyn::rocc {
namespace {

TEST(Ring, AllocatesOnlyOnFirstPush) {
  Ring<int> r;
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_TRUE(r.empty());
  r.push_back(1);
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Ring, KeepsFifoOrderAcrossGrowthAtEveryHeadOffset) {
  for (int offset = 0; offset < 8; ++offset) {
    SCOPED_TRACE(offset);
    Ring<int> r;
    // Walk the head to `offset` inside the first 8-slot array, then fill
    // it so the live range wraps, and grow twice.
    for (int i = 0; i < offset; ++i) r.push_back(-1);
    for (int i = 0; i < offset; ++i) EXPECT_EQ(r.pop_front(), -1);
    for (int i = 0; i < 20; ++i) r.push_back(i);
    EXPECT_EQ(r.capacity(), 32u);
    for (int i = 0; i < 20; ++i) EXPECT_EQ(r[static_cast<std::size_t>(i)], i);
    for (int i = 0; i < 20; ++i) EXPECT_EQ(r.pop_front(), i);
    EXPECT_TRUE(r.empty());
  }
}

TEST(Ring, RelocatesMoveOnlyCallbacksOnGrowth) {
  struct Job {
    int id = 0;
    SmallCallback done;
  };
  std::vector<int> order;
  Ring<Job> r;
  for (int i = 0; i < 3; ++i) r.push_back(Job{i, [&order, i] { order.push_back(i); }});
  for (int i = 0; i < 3; ++i) r.pop_front().done();
  // Head at 3 of 8: the next 40 pushes wrap, then grow to 16, 32 and 64.
  for (int i = 3; i < 43; ++i) r.push_back(Job{i, [&order, i] { order.push_back(i); }});
  EXPECT_EQ(r.capacity(), 64u);
  while (!r.empty()) {
    Job job = r.pop_front();
    EXPECT_EQ(job.id, static_cast<int>(order.size()));
    job.done();
  }
  ASSERT_EQ(order.size(), 43u);
  for (int i = 0; i < 43; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Ring, ClearDestroysCapturesAndKeepsCapacity) {
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  Ring<SmallCallback> r;
  for (int i = 0; i < 12; ++i) r.push_back([token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  r.clear();
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 16u);
  r.push_back([] {});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.capacity(), 16u);
}

TEST(Ring, DestructorAndPopDestroyCaptures) {
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  {
    Ring<SmallCallback> r;
    r.push_back([token] { (void)*token; });
    r.push_back([token] { (void)*token; });
    token.reset();
    (void)r.pop_front();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(Ring, PipeRefillsInOrderAfterDrain) {
  Pipe p(16);
  for (int i = 0; i < 16; ++i) {
    Sample s;
    s.id = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(p.try_put(s));
  }
  EXPECT_EQ(p.drain(), 16u);
  EXPECT_TRUE(p.empty());
  for (int i = 0; i < 16; ++i) {
    Sample s;
    s.id = static_cast<std::uint64_t>(100 + i);
    ASSERT_TRUE(p.try_put(s));
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(p.try_get()->id, static_cast<std::uint64_t>(100 + i));
  EXPECT_FALSE(p.try_get().has_value());
}

}  // namespace
}  // namespace paradyn::rocc
