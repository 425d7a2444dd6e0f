#include "experiments/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "experiments/runner.hpp"
#include "support/replications.hpp"

namespace paradyn::experiments {
namespace {

rocc::SystemConfig tiny_config() {
  auto c = rocc::SystemConfig::now(2);
  c.duration_us = 0.3e6;
  c.sampling_period_us = 20'000.0;
  return c;
}

// Bit-identical comparison across the fields the experiment layer consumes.
void expect_identical(const rocc::SimulationResult& a, const rocc::SimulationResult& b) {
  EXPECT_EQ(a.duration_us, b.duration_us);
  EXPECT_EQ(a.app_cpu_time_per_node_us, b.app_cpu_time_per_node_us);
  EXPECT_EQ(a.pd_cpu_time_per_node_us, b.pd_cpu_time_per_node_us);
  EXPECT_EQ(a.main_cpu_time_us, b.main_cpu_time_us);
  EXPECT_EQ(a.pd_cpu_util_pct, b.pd_cpu_util_pct);
  EXPECT_EQ(a.app_cpu_util_pct, b.app_cpu_util_pct);
  EXPECT_EQ(a.samples_generated, b.samples_generated);
  EXPECT_EQ(a.samples_delivered, b.samples_delivered);
  EXPECT_EQ(a.batches_delivered, b.batches_delivered);
  EXPECT_EQ(a.throughput_samples_per_sec, b.throughput_samples_per_sec);
  EXPECT_EQ(a.latency_us.count(), b.latency_us.count());
  EXPECT_EQ(a.latency_us.mean(), b.latency_us.mean());
}

TEST(ParallelRunner, ReplicationsMatchSerialPathExactly) {
  const auto cfg = tiny_config();
  const auto serial = rocc::run_replications(cfg, 3);

  for (const std::size_t jobs : {1u, 2u, 4u, 7u}) {
    ParallelRunner runner(jobs);
    const auto parallel = runner.replications(cfg, 3);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) expect_identical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunner, FactorialDeterminismAnyJobCount) {
  // The acceptance test: a 2^3 r factorial produces identical
  // SimulationResult vectors for the serial path and any --jobs value.
  const std::vector<Factor> factors{
      {"sampling", "40ms", "10ms",
       [](rocc::SystemConfig& c, bool high) { c.sampling_period_us = high ? 10'000.0 : 40'000.0; }},
      {"policy", "CF", "BF",
       [](rocc::SystemConfig& c, bool high) { c.batch_size = high ? 32 : 1; }},
      {"nodes", "2", "4",
       [](rocc::SystemConfig& c, bool high) { c.nodes = high ? 4 : 2; }},
  };
  constexpr std::size_t kReps = 4;

  const FactorialExperiment serial(tiny_config(), factors, kReps, /*jobs=*/1);
  for (const std::size_t jobs : {2u, 5u}) {
    const FactorialExperiment parallel(tiny_config(), factors, kReps, jobs);
    ASSERT_EQ(parallel.cells().size(), serial.cells().size());
    for (std::size_t c = 0; c < serial.cells().size(); ++c) {
      EXPECT_EQ(parallel.cells()[c].mask, serial.cells()[c].mask);
      ASSERT_EQ(parallel.cells()[c].runs.size(), kReps);
      for (std::size_t r = 0; r < kReps; ++r) {
        expect_identical(serial.cells()[c].runs[r], parallel.cells()[c].runs[r]);
      }
    }
  }
}

TEST(ParallelRunner, PropagatesWorkerExceptionsToCaller) {
  // An invalid configuration makes the Simulation constructor throw on the
  // worker thread; the runner must surface it on the caller thread.
  auto bad = tiny_config();
  bad.sampling_period_us = -1.0;
  ParallelRunner runner(4);
  EXPECT_THROW((void)runner.replications(bad, 4), std::invalid_argument);
}

TEST(ParallelRunner, FactorialExperimentPropagatesThrowingFactor) {
  const std::vector<Factor> factors{
      {"poison", "ok", "bad",
       [](rocc::SystemConfig& c, bool high) {
         if (high) c.batch_size = -1;  // fails SystemConfig::validate in run
       }},
  };
  EXPECT_THROW(FactorialExperiment(tiny_config(), factors, 2, /*jobs=*/3),
               std::invalid_argument);
}

TEST(ParallelRunner, ReportAccountsForEveryRun) {
  ParallelRunner runner(2);
  (void)runner.replications(tiny_config(), 3);
  const RunReport& rep = runner.report();
  EXPECT_EQ(rep.jobs, 2u);
  EXPECT_EQ(rep.runs, 3u);
  ASSERT_EQ(rep.cells.size(), 1u);
  EXPECT_EQ(rep.cells[0].replications, 3u);
  EXPECT_GT(rep.wall_sec, 0.0);
  EXPECT_GT(rep.serial_estimate_sec, 0.0);
  EXPECT_GT(rep.speedup_estimate(), 0.0);

  std::ostringstream os;
  rep.print(os, "test");
  EXPECT_NE(os.str().find("jobs=2"), std::string::npos);
  EXPECT_NE(os.str().find("runs=3"), std::string::npos);
}

TEST(ParallelRunner, OneRunRunsInlineAtAnyJobCount) {
  // At most one worker per run: a single run needs no pool, so its hook
  // sees the calling thread, and the report keeps the requested job count.
  std::thread::id hook_thread;
  const ReplicationSet rs(tiny_config(), 1, /*jobs=*/8,
                          [&](rocc::Simulation&, std::size_t, std::size_t) {
                            hook_thread = std::this_thread::get_id();
                          });
  EXPECT_EQ(hook_thread, std::this_thread::get_id());
  EXPECT_EQ(rs.report().jobs, 8u);
  EXPECT_EQ(rs.report().runs, 1u);
}

TEST(ParallelRunner, RunHookSeesEveryRunAndEventsAreAccounted) {
  ParallelRunner runner(2);
  std::mutex mutex;
  std::set<std::pair<std::size_t, std::size_t>> seen;
  runner.set_run_hook([&](rocc::Simulation& /*sim*/, std::size_t cell, std::size_t rep) {
    const std::lock_guard<std::mutex> lock(mutex);
    seen.emplace(cell, rep);
  });
  const auto results = runner.replications(tiny_config(), 3);
  const std::set<std::pair<std::size_t, std::size_t>> want{{0, 0}, {0, 1}, {0, 2}};
  EXPECT_EQ(seen, want);

  std::uint64_t events = 0;
  for (const auto& r : results) events += r.events_processed;
  EXPECT_GT(events, 0u);
  EXPECT_EQ(runner.report().events, events);

  // Hooks must not perturb the simulated results.
  runner.set_run_hook({});
  const auto plain = runner.replications(tiny_config(), 3);
  for (std::size_t i = 0; i < plain.size(); ++i) expect_identical(results[i], plain[i]);
}

TEST(ShardLanes, OneRuleForEveryGrid) {
  for (std::size_t hw = 1; hw <= 9; ++hw) {
    for (std::size_t shards = 1; shards <= 9; ++shards) {
      // One run gets every hardware thread it can use.
      EXPECT_EQ(shard_lanes(1, shards, hw), std::min(shards, hw));
      for (std::size_t workers = 1; workers <= 9; ++workers) {
        SCOPED_TRACE(testing::Message() << "hw " << hw << ", shards " << shards << ", workers "
                                        << workers);
        const std::size_t lanes = shard_lanes(workers, shards, hw);
        EXPECT_GE(lanes, 1u);
        EXPECT_LE(lanes, shards);
        // Shard lanes add threads only while the hardware has room.
        if (lanes > 1) {
          EXPECT_LE(workers * lanes, hw);
        }
        // Never fewer lanes than the per-job clamp a sweep of `jobs` >=
        // workers used to apply.
        for (std::size_t jobs = workers; jobs <= 9; ++jobs) {
          const std::size_t clamp =
              jobs * shards > hw ? std::min(shards, std::max<std::size_t>(1, hw / jobs)) : shards;
          EXPECT_GE(lanes, clamp) << "jobs " << jobs;
        }
      }
    }
  }
}

TEST(ParallelRunner, ShardedGridMatchesSerialPathExactly) {
  // Two sharded runs at once share the grid's lane pool; the executor
  // never changes results.
  auto cfg = rocc::SystemConfig::now(8);
  cfg.duration_us = 0.3e6;
  cfg.sampling_period_us = 10'000.0;
  cfg.uplink_latency_us = 500.0;
  cfg.shards = 4;
  const auto serial = rocc::run_replications(cfg, 3);
  for (const std::size_t jobs : {1u, 2u, 3u}) {
    ParallelRunner runner(jobs);
    const auto parallel = runner.replications(cfg, 3);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], parallel[i]);
      EXPECT_EQ(serial[i].events_processed, parallel[i].events_processed);
    }
  }
}

TEST(DefaultJobs, OverrideAndRestore) {
  set_default_jobs(3);
  EXPECT_EQ(default_jobs(), 3u);
  EXPECT_EQ(ParallelRunner(0).jobs(), 3u);
  EXPECT_EQ(ParallelRunner(5).jobs(), 5u);
  set_default_jobs(0);  // restore: one job per hardware thread
  EXPECT_GE(default_jobs(), 1u);
}

}  // namespace
}  // namespace paradyn::experiments
