// Profiler hot-path benchmark and zero-cost-when-off guard.
//
// Two CI obligations live here:
//
//   profile_off_overhead_pct  zero-cost envelope: a run with profiling off
//                             (null tracer, an armed-but-unfed Profiler in
//                             scope) must cost < 2% versus a plain run.
//                             This trips if the lifecycle hop markers ever
//                             stop being gated on the tracer null check —
//                             e.g. building mark arguments before testing
//                             whether anyone is listening.
//   roccprof_wall_seconds     wall time of the streaming analysis over a
//                             representative trace (parse + reduce), the
//                             `roccprof FILE` path.  Coarse collapse guard
//                             only; the throughput is also reported.
//   trace_export_wall_seconds wall time of write_chrome_json of the same
//                             trace into a string stream, the `--trace
//                             FILE` export.  Coarse collapse guard only.
//
// Both are emitted through --bench-json for tools/bench_compare.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json_common.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "repro_common.hpp"
#include "rocc/simulation.hpp"

namespace {

paradyn::rocc::SystemConfig base_config() {
  auto c = paradyn::rocc::SystemConfig::now(4);
  c.duration_us = 5e6;
  c.sampling_period_us = 5'000.0;
  c.batch_size = 1;
  return c;
}

/// Events per wall second of one untraced run.
double run_eps(const paradyn::rocc::SystemConfig& cfg) {
  const paradyn::bench::WallTimer t;
  const auto r = paradyn::rocc::run_simulation(cfg);
  const double sec = t.seconds();
  return sec > 0.0 ? static_cast<double>(r.events_processed) / sec : 0.0;
}

/// The same run with profiling off: no trace recorder attached and a
/// Profiler constructed but never fed.  Any cost difference to the plain
/// run is exactly the off-path overhead the envelope gates.
double run_profile_off_eps(const paradyn::rocc::SystemConfig& cfg) {
  const paradyn::bench::WallTimer t;
  paradyn::obs::Profiler idle{paradyn::obs::ProfileOptions{}};
  paradyn::rocc::Simulation sim(cfg);
  const auto r = sim.run();
  const double sec = t.seconds();
  return sec > 0.0 ? static_cast<double>(r.events_processed) / sec : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  const std::string json_path = bench::start("profile_overhead", argc, argv, {bench::kBenchJson});
  const bench::WallTimer total;

  const auto cfg = base_config();
  // The overhead contrast uses a 10x longer run than the trace below: each
  // measurement is ~50 ms of wall, long enough that a stray context switch
  // is amortized instead of dominating the sample.
  auto overhead_cfg = cfg;
  overhead_cfg.duration_us = 50e6;
  (void)run_eps(overhead_cfg);  // warm-up: page in code and the event pool

  // The two runs are identical workloads, so the true overhead is zero and
  // the gate is absolute: take the lower quartile of the paired per-round
  // overheads.  Pairing cancels machine-wide drift within a round, and the
  // scheduler's noise is one-sided — a stall only ever slows the side it
  // lands on — so the low end of the distribution is the clean measurement.
  //
  // The estimator must also be SYMMETRIC in run order.  Pooling both
  // orderings into one quartile is not: within-round position bias (the
  // second run sits on warmed caches and settled frequency) makes
  // plain-first rounds read low and off-first rounds read high, and a
  // pooled lower quartile selects almost exclusively from the plain-first
  // set — a built-in negative bias (the old protocol sat at −2.8% on a
  // zero-overhead workload).  Instead: quartile each ordering's rounds
  // separately, then average the two quartiles, so the position bias
  // enters once with each sign and cancels.  A real regression slows every
  // off run regardless of position and still shifts both quartiles.
  constexpr int kRoundsPerOrder = 5;
  double plain_eps = 0.0;
  double off_eps = 0.0;
  std::vector<double> overheads_plain_first;
  std::vector<double> overheads_off_first;
  for (int i = 0; i < 2 * kRoundsPerOrder; ++i) {
    // Interleave the orderings so slow machine-wide drift spreads evenly
    // across both sets.
    double plain;
    double off;
    const bool plain_first = i % 2 == 0;
    if (plain_first) {
      plain = run_eps(overhead_cfg);
      off = run_profile_off_eps(overhead_cfg);
    } else {
      off = run_profile_off_eps(overhead_cfg);
      plain = run_eps(overhead_cfg);
    }
    plain_eps = std::max(plain_eps, plain);
    off_eps = std::max(off_eps, off);
    if (off > 0.0) {
      (plain_first ? overheads_plain_first : overheads_off_first)
          .push_back((plain / off - 1.0) * 100.0);
    }
  }
  const auto lower_quartile = [](std::vector<double>& xs) {
    std::sort(xs.begin(), xs.end());
    return xs.empty() ? 0.0 : xs[xs.size() / 4];
  };
  const double off_overhead_pct =
      0.5 * (lower_quartile(overheads_plain_first) + lower_quartile(overheads_off_first));

  // The export and roccprof paths: record a representative trace once,
  // then time its export to JSON and the streaming parse + reduction of
  // that JSON, best of kRounds each.
  obs::TraceRecorder recorder(1u << 20);
  rocc::Simulation traced(cfg);
  traced.set_trace_recorder(recorder);
  (void)traced.run();
  constexpr int kRounds = 9;
  std::string json;
  double export_sec = 1e30;
  for (int i = 0; i < kRounds; ++i) {
    std::ostringstream os;
    const bench::WallTimer t;
    recorder.write_chrome_json(os);
    export_sec = std::min(export_sec, t.seconds());
    json = os.str();
  }

  double analyze_sec = 1e30;
  std::uint64_t analyzed_events = 0;
  for (int i = 0; i < kRounds; ++i) {
    std::istringstream is(json);
    const bench::WallTimer t;
    const auto report = obs::profile_trace_stream(is);
    analyze_sec = std::min(analyze_sec, t.seconds());
    analyzed_events = report.events;
  }
  const double analyze_meps =
      analyze_sec > 0.0 ? static_cast<double>(analyzed_events) / analyze_sec / 1e6 : 0.0;

  std::printf("=== Profiler hot path (NOW 4 nodes, SP = 5 ms, 5 s run, best of %d) ===\n",
              2 * kRoundsPerOrder);
  std::printf("  %-28s %12.0f ev/s\n", "plain (no tracer)", plain_eps);
  std::printf("  %-28s %12.0f ev/s\n", "profiling off, armed", off_eps);
  std::printf("  %-28s %12.3f %%\n", "profile_off_overhead_pct", off_overhead_pct);
  std::printf("  %-28s %12.3f s  (%.1f MB)\n", "trace_export_wall_seconds", export_sec,
              static_cast<double>(json.size()) / 1e6);
  std::printf("  %-28s %12.3f s  (%zu events, %.1f M ev/s)\n", "roccprof_wall_seconds",
              analyze_sec, static_cast<std::size_t>(analyzed_events), analyze_meps);

  if (!json_path.empty()) {
    bench::write_bench_json(json_path, {
                                           {"profile_plain_eps", plain_eps},
                                           {"profile_off_eps", off_eps},
                                           {"profile_off_overhead_pct", off_overhead_pct},
                                           {"trace_export_wall_seconds", export_sec},
                                           {"roccprof_wall_seconds", analyze_sec},
                                           {"profile_analyze_meps", analyze_meps},
                                       });
  }
  std::printf("  total wall %.2f s\n", total.seconds());
  return 0;
}
