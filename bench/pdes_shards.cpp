// PDES shard-scaling benchmark and CI speedup gate.
//
// Runs the same table04-class NOW workload (32 nodes x 4 app processes,
// 1 ms sampling, batch 32) through the partitioned engine at 1 shard
// (serial window loop) and 4 shards (ThreadPool-backed executor), checks
// the two runs are bit-identical — the determinism contract the pdes_tests
// suite gates in depth — and emits:
//
//   pdes_shard1_wall_seconds  serial reference wall time (collapse guard)
//   pdes_shard4_wall_seconds  4-shard pooled wall time (collapse guard)
//   speedup_pdes_shards       shard1 / shard4; CI additionally enforces an
//                             absolute floor of 1.5 via bench_compare
//                             --floor (the acceptance bar for the
//                             partitioned engine on the 4-vCPU runners)
//   pdes_shard4_meps          4-shard throughput in M events/s (info)
//
// Protocol: 7 paired rounds.  Each round runs both flavors back to back,
// alternating which goes first, and yields one shard1 / shard4 ratio, so
// host drift between rounds cancels inside each pair.  The speedup is the
// median ratio (its interquartile range is printed beside it); the wall
// times are the medians of each flavor.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_json_common.hpp"
#include "experiments/shard_executor.hpp"
#include "experiments/thread_pool.hpp"
#include "repro_common.hpp"
#include "rocc/simulation.hpp"
#include "stats/summary.hpp"

namespace {

/// Table04-class workload, scaled so each window carries far more event
/// work than the window barrier costs: a 10 ms lookahead means 1000
/// windows over the run, and 512 app processes at 0.5 ms sampling put
/// hundreds of events into every shard per window.
paradyn::rocc::SystemConfig workload() {
  auto c = paradyn::rocc::SystemConfig::now(128);
  c.app_processes_per_node = 4;
  c.sampling_period_us = 500.0;
  c.batch_size = 32;
  c.duration_us = 10e6;
  c.uplink_latency_us = 10'000.0;  // the cross-shard lookahead
  c.seed = 7;
  return c;
}

struct Run {
  double wall_sec = 0.0;
  paradyn::rocc::SimulationResult result;
};

Run run_once(std::int32_t shards, const paradyn::des::ShardSet::Executor& executor) {
  auto cfg = workload();
  cfg.shards = shards;
  cfg.validate();
  paradyn::rocc::Simulation sim(cfg);
  if (executor) sim.set_shard_executor(executor);
  const paradyn::bench::WallTimer t;
  Run run;
  run.result = sim.run();
  run.wall_sec = t.seconds();
  return run;
}

/// The gate rides on the determinism contract: a speedup bought by
/// diverging results would be a bug, not a win.
void require_identical(const paradyn::rocc::SimulationResult& a,
                       const paradyn::rocc::SimulationResult& b) {
  const bool same = a.samples_generated == b.samples_generated &&
                    a.samples_delivered == b.samples_delivered &&
                    a.events_processed == b.events_processed &&
                    a.pd_cpu_util_pct == b.pd_cpu_util_pct &&
                    a.main_cpu_util_pct == b.main_cpu_util_pct &&
                    a.app_cpu_util_pct == b.app_cpu_util_pct &&
                    a.latency_us.mean() == b.latency_us.mean() &&
                    a.throughput_samples_per_sec == b.throughput_samples_per_sec;
  if (!same) {
    std::fprintf(stderr, "pdes_shards: 4-shard run diverged from the 1-shard run\n");
    std::exit(1);
  }
}

struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

Spread spread(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return {paradyn::stats::empirical_quantile(values, 0.5),
          paradyn::stats::empirical_quantile(values, 0.75) -
              paradyn::stats::empirical_quantile(values, 0.25)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  const std::string json = bench::start("pdes_shards", argc, argv, {bench::kBenchJson});

  const std::size_t lanes =
      std::min<std::size_t>(4, experiments::ThreadPool::hardware_jobs());
  experiments::ThreadPool pool(std::max<std::size_t>(1, lanes - 1));
  const des::ShardSet::Executor pooled =
      experiments::shard_pool_executor(pool, std::max<std::size_t>(1, lanes));

  constexpr int kRounds = 7;
  std::vector<double> walls1;
  std::vector<double> walls4;
  std::vector<double> ratios;
  rocc::SimulationResult r4;
  for (int round = 0; round < kRounds; ++round) {
    Run one;
    Run four;
    if (round % 2 == 0) {
      one = run_once(1, {});
      four = run_once(4, pooled);
    } else {
      four = run_once(4, pooled);
      one = run_once(1, {});
    }
    require_identical(one.result, four.result);
    walls1.push_back(one.wall_sec);
    walls4.push_back(four.wall_sec);
    ratios.push_back(four.wall_sec > 0.0 ? one.wall_sec / four.wall_sec : 0.0);
    r4 = four.result;
  }

  const Spread wall1 = spread(walls1);
  const Spread wall4 = spread(walls4);
  const Spread speedup = spread(ratios);
  const double meps =
      wall4.median > 0.0 ? static_cast<double>(r4.events_processed) / wall4.median / 1e6 : 0.0;
  std::printf("pdes_shards: %llu events, %d paired rounds, medians (IQR): shard1 %.3f s (%.3f), "
              "shard4 %.3f s (%.3f) on %zu lane(s), speedup %.2fx (%.2f)\n",
              static_cast<unsigned long long>(r4.events_processed), kRounds, wall1.median,
              wall1.iqr, wall4.median, wall4.iqr, lanes, speedup.median, speedup.iqr);

  if (!json.empty()) {
    bench::write_bench_json(json, {
                                      {"pdes_shard1_wall_seconds", wall1.median},
                                      {"pdes_shard4_wall_seconds", wall4.median},
                                      {"speedup_pdes_shards", speedup.median},
                                      {"pdes_shard4_meps", meps},
                                  });
  }
  return 0;
}
