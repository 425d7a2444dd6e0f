#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "experiments/parallel.hpp"
#include "obs/trace_read.hpp"
#include "rocc/config.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::obs {
namespace {

ParsedTrace round_trip(const TraceRecorder& recorder) {
  std::stringstream ss;
  recorder.write_chrome_json(ss);
  return read_chrome_trace(ss);
}

/// Non-metadata events only ("M" rows carry process/thread names).
std::vector<const ParsedEvent*> data_events(const ParsedTrace& trace) {
  std::vector<const ParsedEvent*> out;
  for (const auto& e : trace.events) {
    if (e.ph != "M") out.push_back(&e);
  }
  return out;
}

TEST(TraceRecorder, EmptyRecorderWritesValidJson) {
  const TraceRecorder recorder(16);
  const auto trace = round_trip(recorder);
  EXPECT_TRUE(trace.events.empty());
  EXPECT_EQ(trace.recorded, 0u);
  EXPECT_EQ(trace.dropped, 0u);
}

TEST(TraceRecorder, TracerWithNoEventsWritesValidJson) {
  TraceRecorder recorder(16);
  Tracer tracer = recorder.create_tracer("idle");
  ASSERT_TRUE(tracer.attached());
  const auto trace = round_trip(recorder);
  EXPECT_TRUE(data_events(trace).empty());  // only process-name metadata
}

TEST(TraceRecorder, RingWrapsKeepingNewestAndCountsDrops) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kEmitted = 20;
  TraceRecorder recorder(kCapacity);
  Tracer tracer = recorder.create_tracer();
  for (std::size_t i = 0; i < kEmitted; ++i) {
    tracer.instant("test", "tick", 0, static_cast<double>(i));
  }
  EXPECT_EQ(recorder.recorded(), kEmitted);
  EXPECT_EQ(recorder.dropped(), kEmitted - kCapacity);

  const auto trace = round_trip(recorder);
  EXPECT_EQ(trace.recorded, kEmitted);
  EXPECT_EQ(trace.dropped, kEmitted - kCapacity);
  const auto events = data_events(trace);
  ASSERT_EQ(events.size(), kCapacity);
  // The survivors must be exactly the newest kCapacity timestamps.
  std::set<double> ts;
  for (const auto* e : events) ts.insert(e->ts);
  ASSERT_EQ(ts.size(), kCapacity);
  EXPECT_DOUBLE_EQ(*ts.begin(), static_cast<double>(kEmitted - kCapacity));
  EXPECT_DOUBLE_EQ(*ts.rbegin(), static_cast<double>(kEmitted - 1));
}

TEST(TraceRecorder, AllPhasesRoundTripThroughJson) {
  TraceRecorder recorder(64);
  Tracer tracer = recorder.create_tracer("sim");
  tracer.set_track_name(0, "engine");
  tracer.complete("cpu", "app", 0, 10.0, 5.0, "node", 3.0, "len", 2.5);
  tracer.instant("pipe", "enqueue", 1, 11.0, "depth", 4.0);
  tracer.counter("backlog", 12.0, 7.0);
  tracer.async_begin("sample", "lifecycle", 42, 1, 13.0);
  tracer.async_instant("sample", "lifecycle", 42, 2, 14.0);
  tracer.async_end("sample", "lifecycle", 42, 3, 15.0, "latency", 2.0);

  const auto trace = round_trip(recorder);
  const auto events = data_events(trace);
  ASSERT_EQ(events.size(), 6u);

  const auto find = [&](const std::string& ph) -> const ParsedEvent* {
    for (const auto* e : events) {
      if (e->ph == ph) return e;
    }
    return nullptr;
  };
  const ParsedEvent* x = find("X");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->cat, "cpu");
  EXPECT_EQ(x->name, "app");
  EXPECT_DOUBLE_EQ(x->ts, 10.0);
  EXPECT_DOUBLE_EQ(x->dur, 5.0);
  EXPECT_DOUBLE_EQ(x->num_args.at("node"), 3.0);
  EXPECT_DOUBLE_EQ(x->num_args.at("len"), 2.5);

  const ParsedEvent* i = find("i");
  ASSERT_NE(i, nullptr);
  EXPECT_DOUBLE_EQ(i->num_args.at("depth"), 4.0);

  const ParsedEvent* c = find("C");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name, "backlog");
  EXPECT_DOUBLE_EQ(c->num_args.at("value"), 7.0);

  for (const char* ph : {"b", "n", "e"}) {
    const ParsedEvent* a = find(ph);
    ASSERT_NE(a, nullptr) << ph;
    EXPECT_EQ(a->cat, "sample");
    EXPECT_FALSE(a->id.empty());
    EXPECT_EQ(a->id, find("b")->id);
  }

  // Track/process labels arrive as metadata events.
  bool saw_process_name = false;
  bool saw_thread_name = false;
  for (const auto& e : trace.events) {
    if (e.ph != "M") continue;
    if (e.name == "process_name" && e.str_args.count("name") &&
        e.str_args.at("name") == "sim") {
      saw_process_name = true;
    }
    if (e.name == "thread_name" && e.str_args.count("name") &&
        e.str_args.at("name") == "engine") {
      saw_thread_name = true;
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);
}

TEST(TraceRecorder, HugeTraceStaysValidJson) {
  constexpr std::size_t kEvents = 50'000;
  TraceRecorder recorder(kEvents);
  Tracer tracer = recorder.create_tracer();
  for (std::size_t i = 0; i < kEvents; ++i) {
    tracer.complete("cat", "span", static_cast<std::int32_t>(i % 7), static_cast<double>(i), 0.5);
  }
  const auto trace = round_trip(recorder);
  EXPECT_EQ(data_events(trace).size(), kEvents);
  EXPECT_EQ(trace.dropped, 0u);
}

TEST(TraceRecorder, ConcurrentTracersWriteDisjointShards) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5'000;
  TraceRecorder recorder(kPerThread);
  std::vector<Tracer> tracers(kThreads);
  // Handles are created up front (create_tracer is itself thread-safe, but
  // this mirrors how roccsim preallocates the slots).
  for (std::size_t t = 0; t < kThreads; ++t) {
    tracers[t] = recorder.create_tracer("worker " + std::to_string(t));
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracers, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        tracers[t].instant("test", "tick", 0, static_cast<double>(i), "thread",
                           static_cast<double>(t));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(recorder.recorded(), kThreads * kPerThread);
  EXPECT_EQ(recorder.dropped(), 0u);
  const auto trace = round_trip(recorder);
  std::set<std::int64_t> pids;
  std::size_t count = 0;
  for (const auto& e : trace.events) {
    if (e.ph == "M") continue;
    pids.insert(e.pid);
    ++count;
  }
  EXPECT_EQ(count, kThreads * kPerThread);
  EXPECT_EQ(pids.size(), kThreads);  // one Chrome process per tracer
}

TEST(TraceRecorder, ParallelRunnerRepsShareOneRecorderSafely) {
  // The roccsim --reps N --trace path: each replication's hook attaches its
  // own tracer to a shared recorder from a worker thread.
  constexpr std::size_t kReps = 4;
  auto cfg = rocc::SystemConfig::now(2);
  cfg.duration_us = 0.1e6;
  cfg.sampling_period_us = 10'000.0;

  TraceRecorder recorder(1u << 16);
  std::vector<Tracer> tracers(kReps);
  experiments::ParallelRunner runner(kReps);
  runner.set_run_hook([&](rocc::Simulation& sim, std::size_t /*cell*/, std::size_t rep) {
    tracers[rep] = recorder.create_tracer("rep " + std::to_string(rep));
    sim.set_tracer(&tracers[rep]);
  });
  const auto results = runner.replications(cfg, kReps);
  ASSERT_EQ(results.size(), kReps);
  EXPECT_GT(recorder.recorded(), 0u);

  const auto trace = round_trip(recorder);
  std::set<std::int64_t> pids;
  for (const auto& e : trace.events) {
    if (e.ph != "M") pids.insert(e.pid);
  }
  EXPECT_EQ(pids.size(), kReps);
}

TEST(TraceSummary, SimulationTraceHasSpansAndCompleteLifecycles) {
  // The acceptance shape: engine spans, occupancy intervals, and at least
  // one complete sample generation-to-delivery chain.
  auto cfg = rocc::SystemConfig::now(2);
  cfg.duration_us = 0.2e6;
  cfg.sampling_period_us = 10'000.0;

  TraceRecorder recorder(1u << 16);
  Tracer tracer = recorder.create_tracer();
  rocc::Simulation sim(cfg);
  sim.set_tracer(&tracer);
  const auto result = sim.run();
  EXPECT_GT(result.samples_delivered, 0u);

  std::stringstream ss;
  recorder.write_chrome_json(ss);
  const auto summary = summarize_trace(ss);
  EXPECT_GT(summary.events, 0u);
  EXPECT_EQ(summary.recorded, recorder.recorded());

  const auto has_type = [&](const std::string& cat, const std::string& name) {
    for (const auto& t : summary.types) {
      if (t.cat == cat && t.name == name && t.count > 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_type("des", "event"));     // engine execution spans
  EXPECT_TRUE(has_type("cpu", "app"));       // CPU occupancy
  EXPECT_TRUE(has_type("pipe", "enqueue"));
  EXPECT_TRUE(has_type("main", "deliver"));

  ASSERT_FALSE(summary.chains.empty());
  const auto& chain = summary.chains.front();
  EXPECT_EQ(chain.cat, "sample");
  EXPECT_EQ(chain.name, "lifecycle");
  EXPECT_GE(chain.complete_chains, 1u);
  EXPECT_GT(chain.p50_us, 0.0);
  EXPECT_LE(chain.p50_us, chain.p90_us);
  EXPECT_LE(chain.p90_us, chain.p99_us);
  EXPECT_LE(chain.p99_us, chain.max_us);

  std::ostringstream os;
  print_trace_summary(os, summary);
  EXPECT_NE(os.str().find("sample"), std::string::npos);
}

TEST(TraceReader, RejectsMalformedJson) {
  std::stringstream ss("{\"traceEvents\": [ {\"ph\": ");
  EXPECT_THROW((void)read_chrome_trace(ss), std::runtime_error);
}

}  // namespace
}  // namespace paradyn::obs
