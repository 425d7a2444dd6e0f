#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "experiments/runner.hpp"
#include "experiments/shard_executor.hpp"
#include "experiments/thread_pool.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "rocc/config.hpp"
#include "rocc/simulation.hpp"

namespace perfbench {

namespace des = paradyn::des;
namespace experiments = paradyn::experiments;
namespace obs = paradyn::obs;
namespace rocc = paradyn::rocc;
namespace stats = paradyn::stats;

namespace {

// --- Workload models --------------------------------------------------------

/// The ROADMAP ledger workload: `roccsim --arch now --nodes 128 --apps 4
/// --sampling-ms 0.5 --batch 32 --uplink-ms 10 --seconds 10 [--shards N]`.
rocc::SystemConfig now128_config(std::uint64_t seed, std::int32_t shards) {
  auto c = rocc::SystemConfig::now(128);
  c.app_processes_per_node = 4;
  c.sampling_period_us = 500.0;
  c.batch_size = 32;
  c.uplink_latency_us = 10'000.0;
  c.duration_us = 10e6;
  c.shards = shards;
  c.seed = seed;
  return c;
}

/// `roccsim --arch now --nodes 16 --sampling-ms 5 --batch 1 --seconds 2
/// --trace FILE --profile`, then `roccprof FILE`.
constexpr double kTraceProfileSeconds = 2.0;
/// Ring size per tracer: holds the whole run, so nothing is dropped.
constexpr std::size_t kTraceProfileRing = std::size_t{1} << 21;

rocc::SystemConfig trace_profile_config(std::uint64_t seed) {
  auto c = rocc::SystemConfig::now(16);
  c.sampling_period_us = 5'000.0;
  c.batch_size = 1;
  c.duration_us = kTraceProfileSeconds * 1e6;
  c.seed = seed;
  return c;
}

/// One of the paper's 2^4 r factorials at the repository's own factor
/// levels and replication counts (bench/table0{4,5,6}_*.cpp).
struct Table {
  const char* name;
  rocc::SystemConfig base;
  std::vector<experiments::Factor> factors;
  std::size_t reps;
};

std::vector<Table> paper_tables(std::uint64_t seed) {
  using experiments::Factor;
  using rocc::SystemConfig;
  const Factor period{"sampling period", "5ms", "50ms", [](SystemConfig& c, bool high) {
                        c.sampling_period_us = high ? 50'000.0 : 5'000.0;
                      }};
  const Factor policy{"policy", "CF(1)", "BF(128)",
                      [](SystemConfig& c, bool high) { c.batch_size = high ? 128 : 1; }};
  const Factor app_type{"app type", "compute", "comm", [](SystemConfig& c, bool high) {
                          c.app.net_burst =
                              std::make_shared<stats::Exponential>(high ? 2'000.0 : 200.0);
                        }};

  std::vector<Table> tables;
  auto now = SystemConfig::now(2);
  tables.push_back({"table04_now",
                    now,
                    {{"nodes", "2", "32",
                      [](SystemConfig& c, bool high) { c.nodes = high ? 32 : 2; }},
                     period, policy, app_type},
                    5});
  auto smp = SystemConfig::smp(4, 4, 1);
  tables.push_back({"table05_smp",
                    smp,
                    {{"CPUs (=apps)", "4", "16",
                      [](SystemConfig& c, bool high) {
                        c.cpus_per_node = high ? 16 : 4;
                        c.app_processes_per_node = c.cpus_per_node;
                      }},
                     period, policy, app_type},
                    5});
  auto mpp = SystemConfig::mpp(2);
  tables.push_back({"table06_mpp",
                    mpp,
                    {{"nodes", "2", "64",
                      [](SystemConfig& c, bool high) { c.nodes = high ? 64 : 2; }},
                     period, policy,
                     {"configuration", "direct", "tree",
                      [](SystemConfig& c, bool high) {
                        c.topology = high ? rocc::ForwardingTopology::BinaryTree
                                          : rocc::ForwardingTopology::Direct;
                      }}},
                    3});
  for (Table& t : tables) {
    t.base.duration_us = 15e6;
    t.base.seed = seed;
  }
  return tables;
}

std::size_t factorial_jobs(const Context& ctx) { return std::min<std::size_t>(4, ctx.nproc); }

// --- Output checks ----------------------------------------------------------

/// Empty when the run passes: sample conservation, at least one delivered
/// sample, and finite results.
std::string check_run(const rocc::SimulationResult& r) {
  if (r.samples_delivered + r.samples_dropped > r.samples_generated) {
    return "sample conservation broken: delivered " + std::to_string(r.samples_delivered) +
           " + dropped " + std::to_string(r.samples_dropped) + " > generated " +
           std::to_string(r.samples_generated);
  }
  if (r.samples_delivered == 0) return "no samples delivered";
  const double values[] = {r.app_cpu_time_per_node_us, r.pd_cpu_time_per_node_us,
                           r.pvmd_cpu_time_per_node_us, r.other_cpu_time_per_node_us,
                           r.main_cpu_time_us,          r.app_cpu_util_pct,
                           r.pd_cpu_util_pct,           r.main_cpu_util_pct,
                           r.is_cpu_util_pct,           r.pd_busy_share_pct,
                           r.network_util_pct,          r.throughput_samples_per_sec,
                           r.latency_us.mean(),         r.latency_us.variance()};
  for (const double v : values) {
    if (!std::isfinite(v)) return "non-finite result";
  }
  return {};
}

/// Count one run into `jr`; returns false if it failed its checks.
bool record_run(JobResult& jr, const rocc::SimulationResult& r, const char* what) {
  ++jr.runs;
  const std::string why = check_run(r);
  if (why.empty()) return true;
  ++jr.failed;
  jr.failures.push_back(std::string(what) + ": " + why);
  return false;
}

/// Every field of a result, bit for bit.
std::string fingerprint(const rocc::SimulationResult& r) {
  std::string out;
  char buf[24];
  const auto put = [&](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    std::snprintf(buf, sizeof buf, "%016llx,", static_cast<unsigned long long>(bits));
    out += buf;
  };
  const auto put_u = [&](std::uint64_t u) { put(static_cast<double>(u)); };
  put(r.duration_us);
  put_u(static_cast<std::uint64_t>(r.nodes));
  put_u(static_cast<std::uint64_t>(r.cpus_per_node));
  for (const auto& n : r.per_node) {
    put_u(static_cast<std::uint64_t>(n.node));
    put(n.app_cpu_us);
    put(n.pd_cpu_us);
    put(n.pvmd_cpu_us);
    put(n.other_cpu_us);
    put(n.main_cpu_us);
  }
  for (const double d :
       {r.app_cpu_time_per_node_us, r.pd_cpu_time_per_node_us, r.pvmd_cpu_time_per_node_us,
        r.other_cpu_time_per_node_us, r.main_cpu_time_us, r.app_cpu_util_pct, r.pd_cpu_util_pct,
        r.main_cpu_util_pct, r.is_cpu_util_pct, r.pd_busy_share_pct, r.network_util_pct,
        r.throughput_samples_per_sec, r.latency_us.mean(), r.latency_us.variance(),
        r.latency_us.min(), r.latency_us.max(), r.barrier_wait_us}) {
    put(d);
  }
  for (const std::uint64_t u :
       {static_cast<std::uint64_t>(r.latency_us.count()), r.samples_generated,
        r.samples_delivered, r.batches_delivered, r.samples_dropped, r.events_processed,
        r.barrier_rounds}) {
    put_u(u);
  }
  return out;
}

// --- Jobs -------------------------------------------------------------------

JobResult now128_job(const Context& ctx, std::int32_t shards) {
  JobResult jr;
  SpanLog* log = ctx.log;
  rocc::SimulationResult r;
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  {
    const ScopedSpan job(log, shards > 0 ? "probe.now128_shards4" : "workload.now128_serial");
    const int run = log ? log->next_run() : -1;
    const rocc::SystemConfig cfg = now128_config(ctx.seed, shards);
    ShardTiming timing;
    int run_span = -1;
    const std::size_t lanes =
        shards > 1 ? std::min<std::size_t>(static_cast<std::size_t>(shards), ctx.nproc) : 1;
    std::optional<experiments::ThreadPool> pool;
    if (lanes > 1) pool.emplace(lanes - 1);  // the calling thread is lane 0

    const double b0 = now_s();
    rocc::Simulation sim(cfg);
    const double b1 = now_s();
    if (log) log->add("rocc.build", b0, b1, job.index(), run);
    if (shards > 0) {
      des::ShardSet::Executor exec;
      if (pool) exec = experiments::shard_pool_executor(*pool, lanes);
      if (log) exec = timed_executor(std::move(exec), timing, *log, run_span, run);
      if (exec) sim.set_shard_executor(std::move(exec));
    }
    jr.setup_s = now_s() - t0;

    const double r0 = now_s();
    if (log) run_span = log->open("rocc.run", job.index(), run, r0);
    r = sim.run();
    const double r1 = now_s();
    if (log) log->close(run_span, r1);

    if (log) {
      jr.layer["rocc.build_s"] = b1 - b0;
      jr.layer["rocc.run_s"] = r1 - r0;
      jr.layer["rocc.events"] = static_cast<double>(r.events_processed);
      if (shards > 0) {
        jr.layer["shard.windows"] = static_cast<double>(timing.windows);
        jr.layer["shard.exec_s"] = timing.exec_s;
        jr.layer["shard.outside_s"] = timing.outside_s(r0, r1);
        jr.layer["shard.fanout_join_s"] = timing.fanout_join_s;
        jr.layer["shard.straggler_s"] = timing.straggler_s;
        if (!timing.busy_s.empty()) {
          jr.layer["shard.busy_max_s"] =
              *std::max_element(timing.busy_s.begin(), timing.busy_s.end());
          jr.layer["shard.busy_mean_s"] =
              std::accumulate(timing.busy_s.begin(), timing.busy_s.end(), 0.0) /
              static_cast<double>(timing.busy_s.size());
        }
      }
    }
  }
  jr.wall_s = now_s() - t0;
  jr.cpu_s = cpu_s() - cpu0;
  record_run(jr, r, "now128");
  if (shards > 0) jr.fingerprint = fingerprint(r);
  return jr;
}

JobResult trace_profile_job(const Context& ctx) {
  JobResult jr;
  SpanLog* log = ctx.log;
  const std::string path = ctx.work_dir + "/trace_profile.json";
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  {
    const ScopedSpan job(log, "workload.trace_profile");
    const int run = log ? log->next_run() : -1;
    const rocc::SystemConfig cfg = trace_profile_config(ctx.seed);
    obs::TraceRecorder recorder(kTraceProfileRing);
    const double b0 = now_s();
    rocc::Simulation sim(cfg);
    const double b1 = now_s();
    if (log) log->add("rocc.build", b0, b1, job.index(), run);
    sim.set_trace_recorder(recorder);
    jr.setup_s = now_s() - t0;

    const double r0 = now_s();
    const rocc::SimulationResult r = sim.run();
    const double r1 = now_s();
    if (log) log->add("rocc.run", r0, r1, job.index(), run);
    record_run(jr, r, "trace_profile");

    const double e0 = now_s();
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      recorder.write_chrome_json(os);
      os.close();
      if (!os) throw std::runtime_error("cannot write " + path);
    }
    const double e1 = now_s();
    if (log) log->add("obs.export", e0, e1, job.index(), run);

    obs::ProfileReport streamed;
    {
      std::ifstream is(path, std::ios::binary);
      streamed = obs::profile_trace_stream(is);
    }
    const double a1 = now_s();
    if (log) log->add("obs.analyze", e1, a1, job.index(), run);

    const obs::ProfileReport inline_report = obs::profile_recorder(recorder);
    const double p1 = now_s();
    if (log) log->add("obs.inline_profile", a1, p1, job.index(), run);

    // Export and analysis must see every retained event, and both profiling
    // paths must rebuild complete sample lifecycles.
    const std::uint64_t kept = recorder.recorded() - recorder.dropped();
    if (streamed.events != kept || inline_report.events != kept ||
        streamed.chains_complete == 0 || inline_report.chains_complete == 0) {
      ++jr.failed;
      jr.failures.push_back("trace_profile: exported/analyzed " + std::to_string(streamed.events) +
                            " / inline " + std::to_string(inline_report.events) + " of " +
                            std::to_string(kept) + " events, chains " +
                            std::to_string(streamed.chains_complete) + " / " +
                            std::to_string(inline_report.chains_complete));
      jr.failed = std::min(jr.failed, jr.runs);
    }

    if (log) {
      jr.layer["rocc.build_s"] = b1 - b0;
      jr.layer["rocc.run_s"] = r1 - r0;
      jr.layer["rocc.events"] = static_cast<double>(r.events_processed);
      jr.layer["obs.trace_events"] = static_cast<double>(recorder.recorded());
      jr.layer["obs.dropped"] = static_cast<double>(recorder.dropped());
      jr.layer["obs.export_s"] = e1 - e0;
      jr.layer["obs.export_bytes"] = static_cast<double>(std::filesystem::file_size(path));
      jr.layer["obs.analyze_s"] = a1 - e1;
      jr.layer["obs.analyzed_events"] = static_cast<double>(streamed.events);
      jr.layer["obs.inline_profile_s"] = p1 - a1;
    }
  }
  jr.wall_s = now_s() - t0;
  jr.cpu_s = cpu_s() - cpu0;
  std::filesystem::remove(path);
  return jr;
}

JobResult factorial_job(const Context& ctx) {
  JobResult jr;
  SpanLog* log = ctx.log;
  const std::size_t jobs = factorial_jobs(ctx);
  // Configs of every run, for timing their construction after the job.
  std::vector<std::pair<rocc::SystemConfig, std::size_t>> built;
  std::atomic<bool> first_hook{true};
  std::atomic<double> first_hook_at{0.0};
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  {
    const ScopedSpan job(log, "workload.paper_factorials");
    for (const Table& t : paper_tables(ctx.seed)) {
      const ScopedSpan table(log, t.name, job.index());
      const experiments::RunHook hook = [&](rocc::Simulation&, std::size_t, std::size_t) {
        const double at = now_s();
        if (first_hook.exchange(false)) first_hook_at.store(at);
        if (log) log->add("factorial.run_start", at, at, table.index(), log->next_run());
      };
      const experiments::FactorialExperiment exp(t.base, t.factors, t.reps, jobs, hook);

      std::uint64_t passed = 0;
      for (const auto& cell : exp.cells()) {
        for (const auto& r : cell.runs) passed += record_run(jr, r, t.name) ? 1 : 0;
      }
      if (std::strcmp(t.name, "table04_now") == 0) {
        // Figure 16: sampling period (B) explains most Pd CPU-time
        // variation, the forwarding policy (C) the second most.
        const auto pd = exp.analyze(experiments::pd_cpu_time_sec);
        const double b = 100.0 * pd.effect("B").variation_fraction;
        const double c = 100.0 * pd.effect("C").variation_fraction;
        char note[160];
        std::snprintf(note, sizeof note,
                      "table04 Pd CPU time variation: B %.1f%% (paper 68%%), C %.1f%% (paper 19%%)",
                      b, c);
        jr.notes.emplace_back(note);
        if (pd.effects.size() < 2 || pd.effects[0].label != "B" || pd.effects[1].label != "C") {
          jr.failed += passed;  // the ranking is a property of every table04 run
          jr.failures.push_back(std::string("table04 ranking lost: ") + note);
        }
      }
      if (log) {
        const experiments::RunReport& rep = exp.report();
        jr.layer["runner.runs"] += static_cast<double>(rep.runs);
        jr.layer["runner.serial_estimate_s"] += rep.serial_estimate_sec;
        jr.layer["rocc.events"] += static_cast<double>(rep.events);
        double max_cell = 0.0;
        for (const auto& c : rep.cells) max_cell = std::max(max_cell, c.wall_sec);
        jr.layer["runner.max_cell_s"] = std::max(jr.layer["runner.max_cell_s"], max_cell);
        for (const auto& cell : exp.cells()) built.emplace_back(cell.config, t.reps);
      }
    }
  }
  jr.wall_s = now_s() - t0;
  jr.cpu_s = cpu_s() - cpu0;
  jr.setup_s = first_hook_at.load() - t0;

  if (log) {
    // The runner constructs each Simulation before the RunHook sees it, so
    // the benchmark times the same constructions (same configs and seeds)
    // itself, after the job, and splits the runner's per-run walls into
    // build and run.
    const ScopedSpan rebuild(log, "factorial.rebuild");
    double build_s = 0.0;
    for (const auto& [config, reps] : built) {
      for (std::size_t rep = 0; rep < reps; ++rep) {
        rocc::SystemConfig c = config;
        c.seed = ctx.seed + rep;
        const double b0 = now_s();
        const rocc::Simulation sim(std::move(c));
        const double b1 = now_s();
        log->add("rocc.build", b0, b1, rebuild.index(), -1);
        build_s += b1 - b0;
      }
    }
    jr.layer["rocc.build_s"] = build_s;
    jr.layer["rocc.run_s"] = jr.layer["runner.serial_estimate_s"] - build_s;
    jr.layer["runner.wall_s"] = jr.wall_s;
    jr.layer["runner.jobs"] = static_cast<double>(jobs);
  }
  return jr;
}

/// Mean of the engine.pending_events probe over one registry's rows.
double mean_pending(const obs::MetricsRegistry& registry) {
  const auto& cols = registry.column_names();
  const auto it = std::find(cols.begin(), cols.end(), "engine.pending_events");
  if (it == cols.end() || registry.rows() == 0) return 0.0;
  const auto col = static_cast<std::size_t>(it - cols.begin());
  double sum = 0.0;
  for (std::size_t i = 0; i < registry.rows(); ++i) sum += registry.row(i).second->at(col);
  return sum / static_cast<double>(registry.rows());
}

/// Probe cadence for queue depth: coarse enough to add a negligible number
/// of events, fine enough for a steady mean.
constexpr double kProbeTickUs = 100'000.0;

double single_run_depth(const rocc::SystemConfig& cfg) {
  obs::MetricsRegistry registry;
  rocc::Simulation sim(cfg);
  sim.enable_metrics(registry, kProbeTickUs);
  (void)sim.run();
  return mean_pending(registry);
}

double factorial_depth(const Context& ctx) {
  // One replication per cell, each carrying its own registry.
  double sum = 0.0;
  std::size_t runs = 0;
  for (const Table& t : paper_tables(ctx.seed)) {
    const std::size_t cells = std::size_t{1} << t.factors.size();
    std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
    for (std::size_t i = 0; i < cells; ++i) {
      registries.push_back(std::make_unique<obs::MetricsRegistry>());
    }
    const experiments::RunHook hook = [&](rocc::Simulation& sim, std::size_t cell, std::size_t) {
      sim.enable_metrics(*registries[cell], kProbeTickUs);
    };
    const experiments::FactorialExperiment exp(t.base, t.factors, 1, factorial_jobs(ctx), hook);
    for (const auto& r : registries) sum += mean_pending(*r);
    runs += cells;
  }
  return runs ? sum / static_cast<double>(runs) : 0.0;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w :
       {Workload::PaperFactorials, Workload::Now128Serial, Workload::TraceProfile}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::PaperFactorials:
      return "paper_factorials";
    case Workload::Now128Serial:
      return "now128_serial";
    case Workload::TraceProfile:
      return "trace_profile";
  }
  return "?";
}

JobResult run_job(Workload w, const Context& ctx) {
  switch (w) {
    case Workload::PaperFactorials:
      return factorial_job(ctx);
    case Workload::Now128Serial:
      return now128_job(ctx, 0);
    case Workload::TraceProfile:
      return trace_profile_job(ctx);
  }
  return {};
}

bool invocation_check(Workload w, const Context& ctx, std::string& why) {
  if (w != Workload::Now128Serial) return true;
  const JobResult sharded = now128_job(ctx, 4);
  if (sharded.failed > 0) {
    why = sharded.failures.front();
    return false;
  }
  // Compare against one shard, not the default engine path: the two keep
  // network accounting differently, so network_util_pct differs in the last
  // bits between them.
  const std::string one = fingerprint(rocc::Simulation(now128_config(ctx.seed, 1)).run());
  if (one == sharded.fingerprint) return true;
  why = "now128: 4-shard result differs from the 1-shard run of seed " + std::to_string(ctx.seed);
  return false;
}

std::map<std::string, double> isolated_layers(Workload w, const Context& ctx) {
  std::map<std::string, double> out;
  rocc::SystemConfig model;
  double depth = 0.0;
  switch (w) {
    case Workload::PaperFactorials:
      model = paper_tables(ctx.seed).front().base;
      depth = factorial_depth(ctx);
      break;
    case Workload::Now128Serial: {
      model = now128_config(ctx.seed, 0);
      depth = single_run_depth(model);
      // The des shards layer: the same model and seed on 4 shards with the
      // pooled executor, timed window by window.  On a shared host its wall
      // time is bimodal for minutes at a time, too unsteady for a gated
      // workload of its own (README.md), so it is measured here.
      constexpr int kShardRuns = 3;
      std::map<std::string, double> sums;
      for (int i = 0; i < kShardRuns; ++i) {
        for (const auto& [key, value] : now128_job(ctx, 4).layer) sums[key] += value;
      }
      for (const auto& [key, value] : sums) {
        if (key.rfind("shard.", 0) == 0) out[key] = value / kShardRuns;
      }
      out["shard.run_s"] = sums["rocc.run_s"] / kShardRuns;
      out["shard.events"] = sums["rocc.events"] / kShardRuns;
      break;
    }
    case Workload::TraceProfile: {
      model = trace_profile_config(ctx.seed);
      depth = single_run_depth(model);
      // The same run without a recorder, for the recording overhead.
      std::vector<double> walls;
      for (int i = 0; i < 3; ++i) {
        rocc::Simulation sim(model);
        const double r0 = now_s();
        (void)sim.run();
        walls.push_back(now_s() - r0);
      }
      std::sort(walls.begin(), walls.end());
      out["rocc.run_untraced_s"] = walls[1];
      break;
    }
  }
  out["des.queue_depth_mean"] = depth;
  out["des.hold_ns"] = depth > 0.0 ? des_hold_ns(static_cast<std::size_t>(std::lround(depth)),
                                                 ctx.seed)
                                   : 0.0;
  for (const auto& [family, ns] : stats_draw_ns(model, ctx.seed)) {
    out["stats." + family + "_ns"] = ns;
  }
  return out;
}

}  // namespace perfbench
