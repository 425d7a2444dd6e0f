#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "rocc/config.hpp"
#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::obs {
namespace {

ProfileReport profile_string(const std::string& json, ProfileOptions options = {}) {
  std::istringstream is(json);
  return profile_trace_stream(is, options);
}

const HypothesisFinding* find_hypothesis(const ProfileReport& report, const std::string& name) {
  for (const auto& h : report.hypotheses) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

EventView lifecycle(const char* ph, double ts, const char* id, std::int64_t pid = 1,
                    std::int64_t tid = 3) {
  EventView ev;
  ev.cat = "sample";
  ev.name = "lifecycle";
  ev.ph = ph;
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  ev.id = id;
  return ev;
}

/// A progress mark; the view points at `stage`, which must outlive it.
EventView mark(double ts, const char* id, const NumArg& stage, std::int64_t pid = 1) {
  EventView ev = lifecycle("n", ts, id, pid);
  ev.num_args = {&stage, 1};
  return ev;
}

TEST(Profiler, EmptyTraceYieldsWellFormedReport) {
  const auto report = profile_string("{\"traceEvents\": []}");
  EXPECT_EQ(report.events, 0u);
  EXPECT_EQ(report.chains_complete, 0u);
  EXPECT_EQ(report.chains_unmatched, 0u);
  EXPECT_EQ(report.dominant_hop, -1);
  EXPECT_TRUE(report.resources.empty());
  EXPECT_TRUE(report.top_chains.empty());
  ASSERT_EQ(report.hypotheses.size(), 4u);
  for (const auto& h : report.hypotheses) EXPECT_FALSE(h.held);

  // Every writer must stay well-formed on the empty report.
  std::ostringstream text, json, csv, folded;
  print_profile_report(text, report);
  write_profile_json(json, report);
  write_profile_csv(csv, report);
  write_profile_folded(folded, report);
  EXPECT_NE(text.str().find("0 chains"), std::string::npos);
  EXPECT_NE(json.str().find("\"chains_complete\": 0"), std::string::npos);
  EXPECT_NE(csv.str().find("hop,"), std::string::npos);
}

TEST(Profiler, SyntheticChainDecomposesIntoHops) {
  Profiler profiler;
  profiler.feed(lifecycle("b", 1000.0, "0x2a"));
  profiler.feed(mark(1500.0, "0x2a", {"enq", 1.0}));
  profiler.feed(mark(4000.0, "0x2a", {"deq", 0.0}));
  profiler.feed(mark(5000.0, "0x2a", {"collect", 800.0}));  // daemon service us
  profiler.feed(mark(6000.0, "0x2a", {"fwd", 1.0}));
  profiler.feed(mark(8900.0, "0x2a", {"net", 1200.0}));  // network occupancy us
  profiler.feed(lifecycle("e", 10000.0, "0x2a"));
  const auto report = profiler.finalize();

  ASSERT_EQ(report.chains_complete, 1u);
  EXPECT_EQ(report.chains_unmatched, 0u);
  EXPECT_EQ(report.chains_out_of_order, 0u);

  // gen=1000 enq=1500 deq=4000 fwd=6000 net=8900 end=10000.  The gen->enq
  // blocked wait folds into the pipe hop, so app is always zero here.
  const auto& app = report.hops[static_cast<int>(Hop::App)];
  const auto& pipe = report.hops[static_cast<int>(Hop::Pipe)];
  const auto& daemon = report.hops[static_cast<int>(Hop::Daemon)];
  const auto& net = report.hops[static_cast<int>(Hop::Network)];
  const auto& main_hop = report.hops[static_cast<int>(Hop::Main)];
  EXPECT_DOUBLE_EQ(app.queue_total_us + app.service_total_us, 0.0);
  EXPECT_DOUBLE_EQ(pipe.queue_total_us, 3000.0);  // 500 blocked + 2500 residence
  EXPECT_DOUBLE_EQ(daemon.queue_total_us, 1200.0);
  EXPECT_DOUBLE_EQ(daemon.service_total_us, 800.0);
  EXPECT_DOUBLE_EQ(net.queue_total_us, 1700.0);
  EXPECT_DOUBLE_EQ(net.service_total_us, 1200.0);
  EXPECT_DOUBLE_EQ(main_hop.queue_total_us, 1100.0);
  EXPECT_EQ(report.dominant_hop, static_cast<int>(Hop::Pipe));

  ASSERT_EQ(report.top_chains.size(), 1u);
  EXPECT_DOUBLE_EQ(report.top_chains.front().latency_us, 9000.0);
  EXPECT_EQ(report.top_chains.front().dominant_hop, static_cast<int>(Hop::Pipe));
}

TEST(Profiler, UnmatchedBeginsAndEndsAreCountedNotCrashed) {
  Profiler profiler;
  profiler.feed(lifecycle("b", 100.0, "0x1"));  // begin without end
  profiler.feed(lifecycle("e", 200.0, "0x2"));  // end without begin
  profiler.feed(mark(150.0, "0x3", {"deq", 0.0}));  // mark for a chain never begun
  const auto report = profiler.finalize();
  EXPECT_EQ(report.chains_complete, 0u);
  EXPECT_EQ(report.chains_unmatched, 2u);
  EXPECT_EQ(report.dominant_hop, -1);
}

TEST(Profiler, OutOfOrderTimestampsAreClampedAndFlagged) {
  Profiler profiler;
  profiler.feed(lifecycle("b", 5000.0, "0x7"));
  profiler.feed(mark(4000.0, "0x7", {"enq", 1.0}));  // regresses before the begin
  profiler.feed(mark(5500.0, "0x7", {"deq", 0.0}));
  profiler.feed(lifecycle("e", 6000.0, "0x7"));
  const auto report = profiler.finalize();
  ASSERT_EQ(report.chains_complete, 1u);
  EXPECT_EQ(report.chains_out_of_order, 1u);
  double total = 0.0;
  for (const auto& hop : report.hops) {
    EXPECT_GE(hop.queue_total_us, 0.0);  // clamping forbids negative hops
    total += hop.queue_total_us + hop.service_total_us;
  }
  EXPECT_DOUBLE_EQ(total, 1000.0);  // latency survives as end - clamped gen
}

TEST(Profiler, TruncatedShardTailThrowsWithOffset) {
  // A trace cut mid-event (a crashed writer's shard tail) must fail loudly
  // with a byte offset, not silently produce a half-empty report.
  TraceRecorder recorder(1u << 10);
  Tracer tracer = recorder.create_tracer("app");
  for (int i = 0; i < 50; ++i) {
    tracer.complete("cpu", "burst", 0, i * 100.0, 40.0);
  }
  std::ostringstream full;
  recorder.write_chrome_json(full);
  const std::string cut = full.str().substr(0, full.str().size() * 6 / 10);
  try {
    profile_string(cut);
    FAIL() << "truncated trace parsed without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(Profiler, PipeBackpressureFaultIsAttributedToThePipeHop) {
  // The acceptance scenario: two NOW nodes with two app processes each at a
  // 20 ms sampling period.  Healthy, the pipe never fills inside 3 s; with
  // the capacity clamped to 1 over [1s, 2s) the producers block and the
  // profiler must (a) name the pipe hop dominant and (b) hold
  // ExcessivePipeBackpressure first inside the fault window — and nowhere
  // before it.
  auto cfg = rocc::SystemConfig::now(2);
  cfg.app_processes_per_node = 2;
  cfg.sampling_period_us = 20'000.0;
  cfg.batch_size = 1;
  cfg.duration_us = 3.0e6;

  const auto run = [](rocc::SystemConfig config) {
    TraceRecorder recorder(1u << 18);
    Tracer tracer = recorder.create_tracer();
    rocc::Simulation sim(config);
    sim.set_tracer(&tracer);
    const auto result = sim.run();
    EXPECT_GT(result.samples_delivered, 0u);
    return profile_recorder(recorder);
  };

  const auto healthy = run(cfg);
  const auto* calm = find_hypothesis(healthy, "ExcessivePipeBackpressure");
  ASSERT_NE(calm, nullptr);
  EXPECT_FALSE(calm->held);

  cfg.faults =
      rocc::FaultPlan::parse("pipe_backpressure:daemon=all,start=1s,dur=1s,capacity=1");
  const auto faulted = run(cfg);
  EXPECT_EQ(faulted.dominant_hop, static_cast<int>(Hop::Pipe));
  double total = 0.0;
  for (const auto& hop : faulted.hops) total += hop.queue_total_us + hop.service_total_us;
  const auto& pipe = faulted.hops[static_cast<int>(Hop::Pipe)];
  EXPECT_GT(pipe.queue_total_us / total, 0.5);

  const auto* held = find_hypothesis(faulted, "ExcessivePipeBackpressure");
  ASSERT_NE(held, nullptr);
  EXPECT_TRUE(held->held);
  EXPECT_GE(held->first_held_start_us, 1.0e6);  // never before the injection
  EXPECT_LT(held->first_held_start_us, 1.3e6);  // and promptly after it
  EXPECT_LE(held->first_held_end_us, 2.2e6);
  EXPECT_GE(held->windows_held, 3u);
}

TEST(Profiler, StreamingJsonPathMatchesNativeRecorderPath) {
  // roccprof FILE (streaming JSON) and roccsim --profile (native recorder
  // feed) must agree on the same trace: counts exactly, totals to within
  // the JSON writer's timestamp rounding.
  auto cfg = rocc::SystemConfig::now(2);
  cfg.app_processes_per_node = 2;
  cfg.sampling_period_us = 20'000.0;
  cfg.duration_us = 1.0e6;

  TraceRecorder recorder(1u << 18);
  Tracer tracer = recorder.create_tracer();
  rocc::Simulation sim(cfg);
  sim.set_tracer(&tracer);
  (void)sim.run();

  const auto native = profile_recorder(recorder);
  std::stringstream json;
  recorder.write_chrome_json(json);
  const auto streamed = profile_trace_stream(json);

  EXPECT_EQ(streamed.events, native.events);
  EXPECT_EQ(streamed.chains_complete, native.chains_complete);
  EXPECT_EQ(streamed.chains_unmatched, native.chains_unmatched);
  EXPECT_EQ(streamed.dominant_hop, native.dominant_hop);
  for (int h = 0; h < kHopCount; ++h) {
    EXPECT_EQ(streamed.hops[h].count, native.hops[h].count);
    const double tolerance =
        0.01 * static_cast<double>(native.chains_complete) + 1.0;  // ts rounding
    EXPECT_NEAR(streamed.hops[h].queue_total_us, native.hops[h].queue_total_us, tolerance);
    EXPECT_NEAR(streamed.hops[h].service_total_us, native.hops[h].service_total_us, tolerance);
  }
  ASSERT_EQ(streamed.hypotheses.size(), native.hypotheses.size());
  for (std::size_t i = 0; i < native.hypotheses.size(); ++i) {
    EXPECT_EQ(streamed.hypotheses[i].held, native.hypotheses[i].held) << native.hypotheses[i].name;
    EXPECT_EQ(streamed.hypotheses[i].windows_held, native.hypotheses[i].windows_held);
  }
  EXPECT_EQ(streamed.resources.size(), native.resources.size());
}

TEST(Profiler, ReportsAreDeterministicAcrossRuns) {
  auto cfg = rocc::SystemConfig::now(2);
  cfg.sampling_period_us = 20'000.0;
  cfg.duration_us = 1.0e6;
  cfg.faults =
      rocc::FaultPlan::parse("pipe_backpressure:daemon=all,start=200ms,dur=300ms,capacity=1");

  const auto render = [&] {
    TraceRecorder recorder(1u << 18);
    Tracer tracer = recorder.create_tracer();
    rocc::Simulation sim(cfg);
    sim.set_tracer(&tracer);
    (void)sim.run();
    std::ostringstream text, json, folded;
    const auto report = profile_recorder(recorder);
    print_profile_report(text, report);
    write_profile_json(json, report);
    write_profile_folded(folded, report);
    return text.str() + json.str() + folded.str();
  };
  EXPECT_EQ(render(), render());  // byte-identical, rep after rep
}

}  // namespace
}  // namespace paradyn::obs
