// Differential determinism suite for fault schedules.
//
// The fault plan is compiled into ordinary (time, seq) events, so the
// proof obligations are: (1) a faulted replication set is bit-identical
// for every --jobs value, with and without a detection harness attached;
// (2) the fault schedule's event pattern pops identically from the
// calendar EventQueue and the reference binary heap (the template of
// tests/des/event_queue_diff_test.cpp, replayed with fault windows).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "consultant/fault_detector.hpp"
#include "des/event_queue.hpp"
#include "experiments/runner.hpp"
#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"
#include "support/heap_event_queue.hpp"

namespace paradyn::rocc {
namespace {

SystemConfig faulted_config() {
  auto c = SystemConfig::now(4);
  c.duration_us = 1e6;
  c.sampling_period_us = 10'000.0;
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=1,start=200ms,dur=100ms;"
      "link_slow:start=400ms,dur=200ms,factor=4;"
      "sample_drop:node=all,start=600ms,dur=200ms,p=0.3;"
      "pipe_backpressure:daemon=0,start=100ms,dur=700ms,capacity=2");
  return c;
}

void expect_bit_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.samples_generated, b.samples_generated);
  EXPECT_EQ(a.samples_delivered, b.samples_delivered);
  EXPECT_EQ(a.samples_dropped, b.samples_dropped);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_DOUBLE_EQ(a.latency_us.mean(), b.latency_us.mean());
  EXPECT_DOUBLE_EQ(a.latency_us.max(), b.latency_us.max());
  EXPECT_DOUBLE_EQ(a.pd_cpu_time_per_node_us, b.pd_cpu_time_per_node_us);
  EXPECT_DOUBLE_EQ(a.app_cpu_time_per_node_us, b.app_cpu_time_per_node_us);
  EXPECT_DOUBLE_EQ(a.main_cpu_time_us, b.main_cpu_time_us);
}

TEST(FaultDeterminism, ReplicationSetBitIdenticalAcrossJobs) {
  constexpr std::size_t kReps = 4;
  const auto c = faulted_config();
  const experiments::ReplicationSet serial(c, kReps, /*jobs=*/1);
  const experiments::ReplicationSet parallel(c, kReps, /*jobs=*/4);
  ASSERT_EQ(serial.results().size(), kReps);
  ASSERT_EQ(parallel.results().size(), kReps);
  for (std::size_t i = 0; i < kReps; ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(serial.results()[i], parallel.results()[i]);
  }
}

std::vector<SimulationResult> run_with_detection_at_jobs(const SystemConfig& c,
                                                         std::size_t reps, std::size_t jobs) {
  std::vector<std::unique_ptr<consultant::DetectionHarness>> harnesses(reps);
  std::mutex mu;
  const experiments::RunHook hook = [&](Simulation& sim, std::size_t, std::size_t rep) {
    auto h = std::make_unique<consultant::DetectionHarness>(sim);
    const std::lock_guard<std::mutex> lock(mu);
    harnesses[rep] = std::move(h);
  };
  const experiments::ReplicationSet set(c, reps, jobs, hook);
  std::vector<SimulationResult> results = set.results();
  for (std::size_t i = 0; i < reps; ++i) harnesses[i]->finalize(results[i]);
  return results;
}

TEST(FaultDeterminism, DetectionLatenciesBitIdenticalAcrossJobs) {
  constexpr std::size_t kReps = 3;
  auto c = SystemConfig::now(2);
  c.duration_us = 1.5e6;
  c.sampling_period_us = 10'000.0;
  c.faults = FaultPlan::parse("daemon_stall:daemon=0,start=500ms,dur=300ms");

  const auto serial = run_with_detection_at_jobs(c, kReps, 1);
  const auto parallel = run_with_detection_at_jobs(c, kReps, 4);
  for (std::size_t i = 0; i < kReps; ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(serial[i], parallel[i]);
    ASSERT_EQ(serial[i].fault_outcomes.size(), 1u);
    ASSERT_EQ(parallel[i].fault_outcomes.size(), 1u);
    EXPECT_EQ(serial[i].fault_outcomes[0].detected, parallel[i].fault_outcomes[0].detected);
    EXPECT_DOUBLE_EQ(serial[i].fault_outcomes[0].detection_latency_us,
                     parallel[i].fault_outcomes[0].detection_latency_us);
    EXPECT_DOUBLE_EQ(serial[i].fault_outcomes[0].recovery_latency_us,
                     parallel[i].fault_outcomes[0].recovery_latency_us);
  }
}

std::vector<SimulationResult> run_with_repair_at_jobs(const SystemConfig& c,
                                                      const consultant::RepairPolicy& policy,
                                                      std::size_t reps, std::size_t jobs) {
  std::vector<std::unique_ptr<consultant::DetectionHarness>> harnesses(reps);
  std::mutex mu;
  const experiments::RunHook hook = [&](Simulation& sim, std::size_t, std::size_t rep) {
    auto h = std::make_unique<consultant::DetectionHarness>(sim, consultant::DetectorConfig{},
                                                            policy);
    const std::lock_guard<std::mutex> lock(mu);
    harnesses[rep] = std::move(h);
  };
  const experiments::ReplicationSet set(c, reps, jobs, hook);
  std::vector<SimulationResult> results = set.results();
  for (std::size_t i = 0; i < reps; ++i) harnesses[i]->finalize(results[i]);
  return results;
}

TEST(FaultDeterminism, RepairPlansBitIdenticalAcrossJobs) {
  constexpr std::size_t kReps = 3;
  auto c = SystemConfig::now(2);
  c.duration_us = 2e6;
  c.sampling_period_us = 10'000.0;
  c.faults = FaultPlan::parse("daemon_crash:daemon=0,start=500ms,dur=1s");
  const auto policy = consultant::RepairPolicy::parse(
      "restart_daemon:timeout=50ms,max_retries=3,backoff=exp:20ms,jitter=0.3,success_p=0.5");

  const auto serial = run_with_repair_at_jobs(c, policy, kReps, 1);
  const auto parallel = run_with_repair_at_jobs(c, policy, kReps, 4);
  for (std::size_t i = 0; i < kReps; ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(serial[i], parallel[i]);
    ASSERT_EQ(serial[i].fault_outcomes.size(), 1u);
    const auto& a = serial[i].fault_outcomes[0];
    const auto& b = parallel[i].fault_outcomes[0];
    EXPECT_EQ(a.repair_attempts, b.repair_attempts);
    EXPECT_EQ(a.repaired, b.repaired);
    EXPECT_EQ(a.gave_up, b.gave_up);
    EXPECT_DOUBLE_EQ(a.time_to_repair_us, b.time_to_repair_us);
    EXPECT_DOUBLE_EQ(a.repair_backoff_us, b.repair_backoff_us);
  }
}

TEST(FaultDeterminism, StochasticCascadePlansBitIdenticalAcrossJobs) {
  constexpr std::size_t kReps = 3;
  auto c = SystemConfig::now(4);
  c.duration_us = 2e6;
  c.sampling_period_us = 10'000.0;
  c.faults = FaultPlan::parse(
      "daemon_stall:daemon=1,start=uniform:300ms:600ms,dur=exp:400ms,cascade=0.7,"
      "cascade_delay=50ms");

  const auto serial = run_with_detection_at_jobs(c, kReps, 1);
  const auto parallel = run_with_detection_at_jobs(c, kReps, 4);
  for (std::size_t i = 0; i < kReps; ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(serial[i], parallel[i]);
    ASSERT_EQ(serial[i].fault_outcomes.size(), parallel[i].fault_outcomes.size());
    for (std::size_t f = 0; f < serial[i].fault_outcomes.size(); ++f) {
      EXPECT_DOUBLE_EQ(serial[i].fault_outcomes[f].spec.start_us,
                       parallel[i].fault_outcomes[f].spec.start_us);
      EXPECT_EQ(serial[i].fault_outcomes[f].cascaded_from,
                parallel[i].fault_outcomes[f].cascaded_from);
    }
  }
}

TEST(FaultDeterminism, SameConfigTwiceBitIdentical) {
  const auto c = faulted_config();
  const auto a = run_simulation(c);
  const auto b = run_simulation(c);
  expect_bit_identical(a, b);
  ASSERT_EQ(a.fault_outcomes.size(), b.fault_outcomes.size());
  for (std::size_t i = 0; i < a.fault_outcomes.size(); ++i) {
    EXPECT_EQ(a.fault_outcomes[i].injected, b.fault_outcomes[i].injected);
  }
}

// ---- Queue-level differential replay of the fault schedule. ----

struct Popped {
  des::SimTime time = 0.0;
  std::uint64_t tag = 0;
  bool operator==(const Popped&) const = default;
};

/// Pushes the same timestamps into the calendar queue and the reference
/// heap, pops everything, and compares the full (time, tag) sequences.
class LockstepReplay {
 public:
  void push(des::SimTime t) {
    const std::uint64_t tag = next_tag_++;
    (void)calendar_.push(t, [this, t, tag] { calendar_out_.push_back({t, tag}); });
    (void)heap_.push(t, [this, t, tag] { heap_out_.push_back({t, tag}); });
  }

  void drain_and_compare() {
    while (true) {
      auto c = calendar_.pop();
      auto h = heap_.pop();
      ASSERT_EQ(c.has_value(), h.has_value());
      if (!c) break;
      calendar_.fire(*c);
      h->callback();
      ASSERT_EQ(calendar_out_.size(), heap_out_.size());
      ASSERT_EQ(calendar_out_.back(), heap_out_.back());
    }
    EXPECT_EQ(calendar_out_, heap_out_);
  }

 private:
  des::EventQueue calendar_;
  des::HeapEventQueue heap_;
  std::uint64_t next_tag_ = 0;
  std::vector<Popped> calendar_out_;
  std::vector<Popped> heap_out_;
};

TEST(FaultDeterminism, RepairEventPatternPopsIdenticallyFromBothQueues) {
  // The repair engine's event shape: detection fires inside a sampling
  // tick, attempt 1 resolves one timeout later, and each failed attempt
  // reschedules at backoff(k) + timeout — with ties against fault
  // boundaries and other attempts' resolutions.
  const auto plan = FaultPlan::parse(
      "daemon_crash:daemon=0,start=200ms,dur=800ms;"
      "daemon_stall:daemon=1,start=200ms,dur=800ms");

  LockstepReplay replay;
  for (const des::SimTime t : plan.schedule_points()) replay.push(t);
  for (double t = 0.0; t <= 1'000'000.0; t += 10'000.0) replay.push(t);
  // Two interleaved retry chains (timeout = 50 ms, exp backoff base 20 ms),
  // one starting on a tick boundary, one off-grid.
  for (const double detect : {250'000.0, 273'000.0}) {
    double at = detect;
    double backoff = 20'000.0;
    for (int attempt = 1; attempt <= 3; ++attempt) {
      at += 50'000.0;  // timeout window
      replay.push(at);
      at += backoff;
      backoff *= 2.0;
    }
  }
  // A repair completion colliding exactly with a fault boundary.
  replay.push(1'000'000.0);
  replay.drain_and_compare();
}

TEST(FaultDeterminism, SchedulePointsPopIdenticallyFromBothQueues) {
  // The exact event pattern Simulation compiles: every fault boundary,
  // interleaved with a periodic sampling tick — including boundaries that
  // collide with ticks and with each other (FIFO among equal times).
  const auto plan = FaultPlan::parse(
      "daemon_stall:daemon=0,start=200ms,dur=100ms;"
      "daemon_crash:daemon=1,start=200ms,dur=100ms;"  // same window: tie
      "link_slow:start=250ms,dur=250ms,factor=8;"
      "sample_drop:node=all,start=300ms,dur=100ms,p=0.5;"
      "pipe_backpressure:daemon=0,start=0,dur=500ms,capacity=1");

  LockstepReplay replay;
  for (const des::SimTime t : plan.schedule_points()) replay.push(t);
  // Sampling ticks every 10 ms across the horizon; several land exactly on
  // fault boundaries.
  for (double t = 0.0; t <= 500'000.0; t += 10'000.0) replay.push(t);
  // A second copy of the schedule points exercises FIFO among duplicates.
  for (const des::SimTime t : plan.schedule_points()) replay.push(t);
  replay.drain_and_compare();
}

}  // namespace
}  // namespace paradyn::rocc
