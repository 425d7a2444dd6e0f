// Allocation gate for the model's steady state: once every queue has
// reached its peak depth, simulated time must cost no heap allocation —
// uninstrumented, none at all, and instrumented, only the daemon's batch
// vector per forwarding unit.  This binary replaces the global operator
// new with a counting one, so it stays apart from the other rocc tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "rocc/pipe.hpp"
#include "rocc/simulation.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace paradyn::rocc {
namespace {

struct Cost {
  std::uint64_t allocations = 0;  ///< Build, run and result, together.
  std::uint64_t batches = 0;
};

Cost measure(SystemConfig config, double seconds) {
  config.duration_us = seconds * 1e6;
  const std::uint64_t before = g_allocations.load();
  Simulation sim(config);
  const SimulationResult r = sim.run();
  return Cost{g_allocations.load() - before, r.batches_delivered};
}

TEST(ModelAllocations, UninstrumentedRunAllocatesNothingPerSimulatedSecond) {
  // The CPU ready queues and the shared network queue cycle for the whole
  // run; 5 more simulated seconds may cost only a few growth steps.
  auto config = SystemConfig::now(8);
  config.instrumentation_enabled = false;
  const Cost short_run = measure(config, 5.0);
  const Cost long_run = measure(config, 10.0);
  EXPECT_LE(long_run.allocations, short_run.allocations + 8);
}

/// Allocations per delivered batch that 5 more simulated seconds cost.
double per_extra_batch(const SystemConfig& config) {
  const Cost short_run = measure(config, 5.0);
  const Cost long_run = measure(config, 10.0);
  EXPECT_GT(long_run.batches, short_run.batches + 100);
  return static_cast<double>(long_run.allocations - short_run.allocations) /
         static_cast<double>(long_run.batches - short_run.batches);
}

TEST(ModelAllocations, FewAllocationsPerDeliveredBatch) {
  // BF(32): a batch's vector grows in the daemon while it fills (six
  // doublings to 32 samples) and is freed on delivery.  The pipes, CPU and
  // network queues and every continuation allocate nothing.
  auto config = SystemConfig::now(8);
  config.sampling_period_us = 5'000.0;
  config.batch_size = 32;
  EXPECT_LE(per_extra_batch(config), 8.0);
}

TEST(ModelAllocations, UplinkForwardAllocatesNothing) {
  // At L > 0 every forward is a ShardSet message: the engine's own inline
  // callback, injected from a vector that keeps its capacity, so a batch
  // costs what it costs at L = 0 (CF 1.0, BF(32) 6.0).
  for (const std::int32_t batch : {1, 32}) {
    auto config = SystemConfig::now(8);
    config.sampling_period_us = 5'000.0;
    config.batch_size = batch;
    const double direct = per_extra_batch(config);
    for (const double uplink_us : {1'000.0, 10'000.0}) {
      SCOPED_TRACE(testing::Message() << "batch " << batch << ", uplink " << uplink_us << " us");
      config.uplink_latency_us = uplink_us;
      EXPECT_NEAR(per_extra_batch(config), direct, 0.1);
    }
  }
}

TEST(ModelAllocations, PipeKeepsItsBufferAcrossADrain) {
  Pipe p(64);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(p.try_put(Sample{}));
  EXPECT_EQ(p.drain(), 64u);
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(p.try_put(Sample{}));
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(p.try_get().has_value());
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace paradyn::rocc
