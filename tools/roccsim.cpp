// roccsim — run a ROCC instrumentation-system simulation from the shell.
//
//   roccsim --arch now --nodes 8 --sampling-ms 40 --batch 32 --seconds 10
//   roccsim --arch smp --nodes 16 --apps 32 --daemons 2 --batch 1
//   roccsim --arch mpp --nodes 256 --topology tree --batch 32
//
// Prints the paper's metrics for the configuration; --reps N adds 90%
// confidence intervals over seed-varied replications.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "consultant/fault_detector.hpp"
#include "experiments/report_json.hpp"
#include "experiments/runner.hpp"
#include "experiments/table.hpp"
#include "model_flags.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/repro.hpp"
#include "obs/trace.hpp"
#include "rocc/config.hpp"
#include "rocc/simulation.hpp"

namespace {

/// One line per fault: injection window plus measured latencies and — when a
/// repair policy is armed — the repair outcome.
void print_fault_outcomes(const std::vector<paradyn::rocc::FaultOutcome>& outcomes) {
  if (outcomes.empty()) return;
  std::printf("\n  faults:\n");
  for (const auto& o : outcomes) {
    std::string line = "    " + o.spec.describe() + ": ";
    line += o.injected ? "injected" : "not injected";
    if (o.cascaded_from >= 0) {
      line += " (cascaded from fault " + std::to_string(o.cascaded_from) + ")";
    }
    char buf[96];
    if (o.detected) {
      std::snprintf(buf, sizeof(buf), ", detected +%.1f ms", o.detection_latency_us / 1e3);
      line += buf;
      if (o.recovered) {
        std::snprintf(buf, sizeof(buf), ", recovered +%.1f ms", o.recovery_latency_us / 1e3);
        line += buf;
      } else {
        line += ", not recovered";
      }
    } else {
      line += ", not detected";
    }
    if (o.repair_attempted) {
      if (o.repaired) {
        std::snprintf(buf, sizeof(buf), ", repaired +%.1f ms (%u attempt(s)",
                      o.time_to_repair_us / 1e3, o.repair_attempts);
        line += buf;
        if (o.repair_backoff_us > 0.0) {
          std::snprintf(buf, sizeof(buf), ", %.1f ms backoff", o.repair_backoff_us / 1e3);
          line += buf;
        }
        line += ")";
      } else if (o.gave_up) {
        std::snprintf(buf, sizeof(buf), ", repair gave up after %u attempt(s)",
                      o.repair_attempts);
        line += buf;
      } else {
        std::snprintf(buf, sizeof(buf), ", repair abandoned (%u attempt(s), fault lifted)",
                      o.repair_attempts);
        line += buf;
      }
    }
    std::printf("%s\n", line.c_str());
  }
}

/// Per-fault means over the replications, plus MTTD/MTTR when a repair
/// was tried.  Plan faults only: cascade-induced rows are appended per rep
/// and their count can vary with the seed.
void print_fault_means(const std::vector<paradyn::rocc::SimulationResult>& results) {
  using paradyn::tools::FaultTally;
  const std::size_t reps = results.size();
  std::size_t nfaults = results.front().fault_outcomes.size();
  for (const auto& r : results) nfaults = std::min(nfaults, r.fault_outcomes.size());
  std::printf("\n  per-fault detection latency, mean over %zu rep(s) (ms):\n", reps);
  FaultTally all;
  for (std::size_t f = 0; f < nfaults; ++f) {
    FaultTally t;
    for (const auto& r : results) t.add(r.fault_outcomes[f]);
    all += t;
    std::printf("    %s: detected %zu/%zu",
                results.front().fault_outcomes[f].spec.describe().c_str(), t.detected, reps);
    if (t.detected > 0) {
      std::printf(", mean +%.1f ms", FaultTally::mean_ms(t.detection_us, t.detected));
    }
    std::printf(", recovered %zu/%zu", t.recovered, reps);
    if (t.recovered > 0) {
      std::printf(", mean +%.1f ms", FaultTally::mean_ms(t.recovery_us, t.recovered));
    }
    if (t.repaired > 0 || t.gave_up > 0) {
      std::printf(", repaired %zu/%zu", t.repaired, reps);
      if (t.repaired > 0) {
        std::printf(", mean TTR +%.1f ms", FaultTally::mean_ms(t.repair_us, t.repaired));
      }
      if (t.gave_up > 0) std::printf(", gave up %zu/%zu", t.gave_up, reps);
    }
    std::printf("\n");
  }
  if (all.attempted > 0) {
    char mttd[32] = "n/a";
    char mttr[32] = "n/a";
    if (all.detected > 0) {
      std::snprintf(mttd, sizeof(mttd), "%.1f",
                    FaultTally::mean_ms(all.detection_us, all.detected));
    }
    if (all.repaired > 0) {
      std::snprintf(mttr, sizeof(mttr), "%.1f", FaultTally::mean_ms(all.repair_us, all.repaired));
    }
    std::printf("\n  MTTD (ms): %s   MTTR (ms): %s   gave up: %zu\n", mttd, mttr, all.gave_up);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  using tools::Kind;
  try {
    const tools::CliArgs args(argc, argv, tools::model_flags("10", {
        {"barrier-ms", Kind::Number, "X", "0", "application barrier period in ms, 0 = off"},
        {"pipe", Kind::Integer, "N", "64", "pipe capacity in samples", tools::kInt32Min,
         tools::kCountMax},
        {"warmup", Kind::Number, "X", "0", "warm-up seconds excluded from metrics"},
        {"adaptive-budget", Kind::Number, "X", "",
         "regulate the sampling period, global scope (Paradyn's\n"
         "dynamic cost model): one period for all daemons, kept\n"
         "under an IS CPU budget of X% of all CPUs; default off"},
        {"adaptive-sampling", Kind::Number, "[=X]", "5",
         "regulate the sampling period, per-daemon scope: each\n"
         "daemon's period stretches up to 16x while its\n"
         "predicted perturbation (its CPU plus its apps'\n"
         "pipe-blocked time) tops X% of its host's CPUs;\n"
         "exclusive with --adaptive-budget"},
        {"fault", Kind::Text, "SPEC", "",
         "inject perturbations; SPEC is ';'-joined entries like\n"
         "daemon_stall:daemon=0,start=1s,dur=500ms\n"
         "(types: daemon_stall daemon_crash link_slow\n"
         "sample_drop pipe_backpressure; see EXPERIMENTS.md).\n"
         "Detection/recovery latency is measured per fault.\n"
         "Windows may be stochastic (start=exp:2s) and stall /\n"
         "crash faults may cascade (cascade=0.5)"},
        {"repair", Kind::Text, "SPEC", "",
         "close the loop: repair detected faults; SPEC is\n"
         "';'-joined actions like\n"
         "restart_daemon:timeout=500ms,max_retries=3,backoff=exp:200ms\n"
         "(actions: restart_daemon reroute_link reset_pipe;\n"
         "keys: timeout max_retries backoff jitter success_p\n"
         "penalty threshold; see EXPERIMENTS.md).\n"
         "Reports time-to-repair, attempts, and gave_up per fault"},
        {"uninstrumented", Kind::Switch, "", "", "disable the IS (baseline run)"},
        {"dedicated-main", Kind::Switch, "", "", "host main Paradyn on its own workstation"},
        {"trace", Kind::Text, "FILE", "",
         "record a Chrome trace (open in Perfetto /\n"
         "chrome://tracing); with --reps, one process per rep"},
        {"trace-events", Kind::Integer, "N", "262144",
         "per-run trace ring capacity in events\n"
         "(oldest events drop once exceeded)", 0, tools::kCountMax},
        {"metrics", Kind::Text, "FILE", "",
         "probe time-series CSV (queue depths, busy fractions);\n"
         "with --reps, probes attach to the first rep only"},
        tools::kMetricsTickMs,
        {"profile", Kind::Switch, "", "",
         "profile the run inline: per-hop latency decomposition,\n"
         "critical paths, and W3 bottleneck hypotheses (records\n"
         "an in-memory trace when --trace is absent); adds a\n"
         "bottlenecks[] block to --report-json"},
        {"metrics-json", Kind::Text, "FILE", "", "probe time series (columns + rows) as JSON"},
        tools::kHelp,
    }));
    if (args.get_bool("help")) {
      args.print_help("roccsim — Paradyn IS / ROCC model simulator");
      return 0;
    }

    rocc::SystemConfig cfg = tools::model_config(args);
    cfg.barrier_period_us = args.get_double("barrier-ms") * 1'000.0;
    cfg.pipe_capacity = static_cast<std::int32_t>(args.get_long("pipe"));
    cfg.warmup_us = args.get_double("warmup") * 1e6;
    // One sampling regulator, two scopes: global and per-daemon.
    if (args.has("adaptive-budget") && args.has("adaptive-sampling")) {
      throw std::invalid_argument(
          "--adaptive-budget and --adaptive-sampling are exclusive: they pick the global or "
          "the per-daemon scope of one sampling regulator");
    }
    if (args.has("adaptive-budget")) {
      cfg.regulator.scope = rocc::RegulatorScope::Global;
      cfg.regulator.budget_pct = args.get_double("adaptive-budget");
    }
    if (args.has("adaptive-sampling")) {
      cfg.regulator.scope = rocc::RegulatorScope::PerDaemon;
      cfg.regulator.budget_pct = args.get_double("adaptive-sampling");
    }
    if (args.has("fault")) cfg.faults = rocc::FaultPlan::parse(args.get_string("fault"));
    consultant::RepairPolicy repair_policy;
    if (args.has("repair")) {
      repair_policy = consultant::RepairPolicy::parse(args.get_string("repair"));
      if (cfg.faults.empty()) {
        throw std::invalid_argument("--repair requires --fault (nothing to repair)");
      }
    }
    cfg.instrumentation_enabled = !args.get_bool("uninstrumented");
    cfg.main_on_dedicated_host = args.get_bool("dedicated-main");
    cfg.validate();

    const auto reps = static_cast<std::size_t>(args.get_long("reps"));
    const auto jobs = static_cast<std::size_t>(args.get_long("jobs"));

    const std::string trace_file = args.get_string("trace");
    const auto trace_events = static_cast<std::size_t>(args.get_long("trace-events"));
    const std::string metrics_file = args.get_string("metrics");
    const std::string report_file = args.get_string("report-json");
    const bool profile = args.get_bool("profile");
    const std::string metrics_json_file = args.get_string("metrics-json");
    // --metrics-json wants the probes armed even without a CSV destination.
    const bool want_metrics = !metrics_file.empty() || !metrics_json_file.empty();
    // Checked whenever it is given or used, before any output.
    const double metrics_tick_us = args.has("metrics-tick-ms") || want_metrics
                                       ? tools::metrics_tick_us(args, cfg.duration_us)
                                       : 0.0;
    if (cfg.shards > 1 && want_metrics) {
      throw std::invalid_argument(
          "--metrics/--metrics-json need one shard (the probes read cross-shard state "
          "mid-run); drop --shards or the metrics flags");
    }
    if (args.get_bool("progress")) experiments::set_progress_stream(&std::cerr);

    obs::ReproStamp stamp;
    stamp.tool = "roccsim";
    stamp.config = cfg.summary();
    stamp.seed = cfg.seed;
    stamp.has_seed = true;
    stamp.jobs = reps >= 2 ? (jobs == 0 ? experiments::default_jobs() : jobs) : 1;
    std::ostringstream stamp_text;
    stamp.write(stamp_text);
    std::fputs(stamp_text.str().c_str(), stdout);

    std::printf("roccsim: %s, %d node(s), SP=%.1f ms, %s(batch %d), %.1f s simulated, %zu rep(s)\n\n",
                rocc::to_string(cfg.arch), cfg.nodes, cfg.sampling_period_us / 1e3,
                rocc::to_string(cfg.policy()), cfg.batch_size, cfg.duration_us / 1e6, reps);

    // --profile piggybacks on the trace recorder: when no --trace file was
    // asked for, the ring stays in memory and is only fed to the profiler.
    std::optional<obs::TraceRecorder> recorder;
    if (!trace_file.empty() || profile) recorder.emplace(trace_events);
    obs::MetricsRegistry registry;
    std::optional<obs::ProfileReport> profile_report;

    // With several reps the hook runs on worker threads: each rep records
    // into its own tracer, only rep 0 carries the metrics probes (a
    // registry belongs to a single simulation), and each rep gets its own
    // detection harness (a consultant fed by that rep's delivered
    // samples); slots are disjoint so no lock is needed.
    std::vector<std::unique_ptr<consultant::DetectionHarness>> harnesses(reps);
    const experiments::RunHook hook = [&](rocc::Simulation& sim, std::size_t /*cell*/,
                                          std::size_t rep) {
      // Sharded runs name their tracers "shard s", so only rep 0 records,
      // which keeps the shard names unambiguous across replications.
      if (recorder && (cfg.shards <= 1 || rep == 0)) {
        sim.set_trace_recorder(*recorder, reps == 1 ? "" : "rep " + std::to_string(rep));
      }
      if (want_metrics && rep == 0) sim.enable_metrics(registry, metrics_tick_us);
      // No-op when the effective fault plan is empty.
      harnesses[rep] = std::make_unique<consultant::DetectionHarness>(sim, repair_policy);
    };
    // At most one worker per run, so one rep runs on the calling thread.
    const experiments::ReplicationSet rs(cfg, reps, jobs, hook);
    // Detection/recovery latencies live in the harnesses; fold them into
    // a finalized copy of the results for the report and the summary.
    std::vector<rocc::SimulationResult> results = rs.results();
    for (std::size_t rep = 0; rep < reps; ++rep) harnesses[rep]->finalize(results[rep]);

    // One rep prints point values, more reps 90% confidence intervals.
    const auto row = [&](const char* label, const experiments::MetricFn& fn, int digits) {
      if (reps == 1) {
        std::printf("  %-36s %.*f\n", label, digits, fn(results.front()));
        return;
      }
      const auto ci = rs.metric(fn);
      std::printf("  %-36s %s\n", label,
                  experiments::fmt_ci(ci.mean, ci.half_width, digits).c_str());
    };
    const auto& panels = experiments::paper_panels();
    row("Pd CPU time/node (s)", experiments::pd_cpu_time_sec, 4);
    row("Pd CPU utilization/node (%)", panels[experiments::kPdUtil].metric, 3);
    row("main Paradyn CPU utilization (%)", panels[experiments::kMainUtil].metric, 3);
    row("application CPU utilization/node (%)", panels[experiments::kAppUtil].metric, 3);
    row("monitoring latency/sample (ms)", experiments::latency_ms, 3);
    row("throughput (samples/s)", experiments::throughput, 1);
    if (reps == 1) {
      const rocc::SimulationResult& r = results.front();
      std::printf("  %-36s %llu / %llu\n", "samples delivered / generated",
                  static_cast<unsigned long long>(r.samples_delivered),
                  static_cast<unsigned long long>(r.samples_generated));
      if (cfg.regulator.scope == rocc::RegulatorScope::Global) {
        std::printf("  %-36s %.2f\n", "final sampling period (ms)",
                    r.final_sampling_period_us / 1e3);
      }
      if (!r.fault_outcomes.empty()) {
        std::printf("  %-36s %llu\n", "samples dropped by faults",
                    static_cast<unsigned long long>(r.samples_dropped));
      }
      if (cfg.regulator.scope == rocc::RegulatorScope::PerDaemon) {
        std::printf("  %-36s %.2f (%llu adjustment(s))\n", "max sampling throttle factor",
                    r.max_throttle_factor,
                    static_cast<unsigned long long>(r.throttle_adjustments));
      }
      print_fault_outcomes(r.fault_outcomes);
    } else {
      if (!results.front().fault_outcomes.empty()) {
        row("samples dropped by faults",
            [](const rocc::SimulationResult& r) {
              return static_cast<double>(r.samples_dropped);
            },
            1);
        print_fault_means(results);
      }
      if (cfg.regulator.scope == rocc::RegulatorScope::PerDaemon) {
        row("max sampling throttle factor",
            [](const rocc::SimulationResult& r) { return r.max_throttle_factor; }, 2);
      }
      rs.report().print(std::cerr, "roccsim");
    }
    if (profile) profile_report = obs::profile_recorder(*recorder);
    if (!report_file.empty()) {
      auto os = tools::open_output(report_file);
      // The run report only describes replications.
      experiments::write_report_json(os, stamp, results, reps >= 2 ? &rs.report() : nullptr,
                                     profile_report ? &*profile_report : nullptr);
    }

    if (profile_report) {
      std::printf("\n");
      obs::print_profile_report(std::cout, *profile_report);
    }

    if (recorder && !trace_file.empty()) {
      auto os = tools::open_output(trace_file);
      recorder->write_chrome_json(os);
      std::fprintf(stderr, "roccsim: wrote %llu trace event(s) to %s (%llu dropped)\n",
                   static_cast<unsigned long long>(recorder->recorded() - recorder->dropped()),
                   trace_file.c_str(), static_cast<unsigned long long>(recorder->dropped()));
    }
    if (!metrics_file.empty()) {
      auto os = tools::open_output(metrics_file);
      stamp.write(os);
      registry.write_csv(os);
      std::fprintf(stderr, "roccsim: wrote %zu metrics row(s) to %s\n", registry.rows(),
                   metrics_file.c_str());
    }
    if (!metrics_json_file.empty()) {
      auto os = tools::open_output(metrics_json_file);
      experiments::write_metrics_json(os, registry);
      std::fprintf(stderr, "roccsim: wrote %zu metrics row(s) to %s\n", registry.rows(),
                   metrics_json_file.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roccsim: %s\n(try --help)\n", e.what());
    return 1;
  }
}
