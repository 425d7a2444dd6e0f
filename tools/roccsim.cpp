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
#include <fstream>
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
#include "experiments/shard_executor.hpp"
#include "experiments/table.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/repro.hpp"
#include "obs/trace.hpp"
#include "rocc/config.hpp"
#include "rocc/simulation.hpp"

namespace {

void print_help() {
  std::puts(
      "roccsim — Paradyn IS / ROCC model simulator\n"
      "\n"
      "  --arch now|smp|mpp      architecture (default now)\n"
      "  --nodes N               nodes (NOW/MPP) or CPUs (SMP); default 8\n"
      "  --apps N                app processes per node (SMP: total); default 1\n"
      "  --daemons N             Paradyn daemons (SMP only); default 1\n"
      "  --sampling-ms X         sampling period in ms; default 40\n"
      "  --batch N               batch size (1 = CF); default 1\n"
      "  --topology direct|tree  MPP forwarding configuration; default direct\n"
      "  --barrier-ms X          application barrier period in ms; default off\n"
      "  --pipe N                pipe capacity in samples; default 64\n"
      "  --seconds X             simulated seconds; default 10\n"
      "  --warmup X              warm-up seconds excluded from metrics; default 0\n"
      "  --shards N              partition the model into N conservative-window DES\n"
      "                          shards (PDES); results are bit-identical for every N.\n"
      "                          Default 0 = the classic single-engine path\n"
      "  --uplink-ms X           daemon uplink delivery latency in ms — the cross-shard\n"
      "                          lookahead; default 0 (0.5 when --shards is given)\n"
      "  --adaptive-budget X     enable the dynamic cost model with an IS overhead\n"
      "                          budget of X%% of CPU capacity; default off\n"
      "  --fault SPEC            inject perturbations; SPEC is ';'-joined entries like\n"
      "                          daemon_stall:daemon=0,start=1s,dur=500ms\n"
      "                          (types: daemon_stall daemon_crash link_slow\n"
      "                          sample_drop pipe_backpressure; see EXPERIMENTS.md).\n"
      "                          Detection/recovery latency is measured per fault.\n"
      "                          Windows may be stochastic (start=exp:2s) and stall /\n"
      "                          crash faults may cascade (cascade=0.5)\n"
      "  --repair SPEC           close the loop: repair detected faults; SPEC is\n"
      "                          ';'-joined actions like\n"
      "                          restart_daemon:timeout=500ms,max_retries=3,backoff=exp:200ms\n"
      "                          (actions: restart_daemon reroute_link reset_pipe;\n"
      "                          keys: timeout max_retries backoff jitter success_p\n"
      "                          penalty threshold; see EXPERIMENTS.md).\n"
      "                          Reports time-to-repair, attempts, and gave_up per fault\n"
      "  --adaptive-sampling [X] closed-loop per-daemon sampling throttle; optional X\n"
      "                          = predicted-perturbation budget in %% (default 5)\n"
      "  --seed N                RNG seed; default 1\n"
      "  --reference-rng         draw variates with the pre-ziggurat reference\n"
      "                          backend (bit-reproduces pre-PR-5 streams)\n"
      "  --reps N                replications with 90% CIs; default 1\n"
      "  --jobs N                worker threads for the replications; default: all\n"
      "                          hardware threads, 1 = serial (results identical)\n"
      "  --uninstrumented        disable the IS (baseline run)\n"
      "  --dedicated-main        host main Paradyn on its own workstation\n"
      "\n"
      "observability:\n"
      "  --trace FILE            record a Chrome trace (open in Perfetto /\n"
      "                          chrome://tracing); with --reps, one process per rep\n"
      "  --trace-events N        per-run trace ring capacity in events; default 262144\n"
      "                          (oldest events drop once exceeded)\n"
      "  --metrics FILE          probe time-series CSV (queue depths, busy fractions);\n"
      "                          with --reps, probes attach to the first rep only\n"
      "  --metrics-tick-ms X     probe period in simulated ms; default 100\n"
      "  --progress              heartbeat lines on stderr as replications finish\n"
      "  --report-json FILE      full SimulationResult of every run as JSON\n"
      "  --profile               profile the run inline: per-hop latency decomposition,\n"
      "                          critical paths, and W3 bottleneck hypotheses (records\n"
      "                          an in-memory trace when --trace is absent); adds a\n"
      "                          bottlenecks[] block to --report-json\n"
      "  --metrics-json FILE     metrics registry (histograms + probe series) as JSON\n"
      "  --help                  this text\n");
}

/// Open an output file or die with a clear message (a silently unwritable
/// --trace must not discard the run).
std::ofstream open_or_throw(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  return os;
}

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

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  try {
    const tools::CliArgs args(
        argc, argv,
        {"arch", "nodes", "apps", "daemons", "sampling-ms", "batch", "topology", "barrier-ms",
         "pipe", "seconds", "warmup", "shards", "uplink-ms", "seed", "reference-rng", "reps",
         "jobs", "uninstrumented", "dedicated-main",
         "adaptive-budget", "fault", "repair", "adaptive-sampling", "trace", "trace-events",
         "metrics",
         "metrics-tick-ms", "progress", "report-json", "profile", "metrics-json", "help"});
    if (args.get_bool("help")) {
      print_help();
      return 0;
    }

    const std::string arch = args.get_string("arch", "now");
    const auto nodes = static_cast<std::int32_t>(args.get_long("nodes", 8));
    const auto apps = static_cast<std::int32_t>(args.get_long("apps", arch == "smp" ? nodes : 1));
    const auto daemons = static_cast<std::int32_t>(args.get_long("daemons", 1));
    const std::string topology = args.get_string("topology", "direct");

    rocc::SystemConfig cfg = [&] {
      if (arch == "now") return rocc::SystemConfig::now(nodes);
      if (arch == "smp") return rocc::SystemConfig::smp(nodes, apps, daemons);
      if (arch == "mpp") {
        return rocc::SystemConfig::mpp(nodes, topology == "tree"
                                                  ? rocc::ForwardingTopology::BinaryTree
                                                  : rocc::ForwardingTopology::Direct);
      }
      throw std::invalid_argument("unknown --arch: " + arch);
    }();
    if (arch != "smp") cfg.app_processes_per_node = apps;
    cfg.sampling_period_us = args.get_double("sampling-ms", 40.0) * 1'000.0;
    cfg.batch_size = static_cast<std::int32_t>(args.get_long("batch", 1));
    cfg.barrier_period_us = args.get_double("barrier-ms", 0.0) * 1'000.0;
    cfg.pipe_capacity = static_cast<std::int32_t>(args.get_long("pipe", 64));
    cfg.duration_us = args.get_double("seconds", 10.0) * 1e6;
    cfg.warmup_us = args.get_double("warmup", 0.0) * 1e6;
    cfg.shards = static_cast<std::int32_t>(args.get_long("shards", 0));
    // The uplink latency doubles as the cross-shard lookahead, so sharded
    // runs need one; half the default daemon net occupancy is a sensible
    // floor when the user asked for shards but said nothing about uplinks.
    cfg.uplink_latency_us =
        args.get_double("uplink-ms", cfg.shards > 0 ? 0.5 : 0.0) * 1'000.0;
    if (args.has("adaptive-budget")) {
      cfg.adaptive.enabled = true;
      cfg.adaptive.overhead_budget_pct = args.get_double("adaptive-budget", 1.0);
    }
    if (args.has("fault")) cfg.faults = rocc::FaultPlan::parse(args.get_string("fault", ""));
    consultant::RepairPolicy repair_policy;
    if (args.has("repair")) {
      repair_policy = consultant::RepairPolicy::parse(args.get_string("repair", ""));
      if (cfg.faults.empty()) {
        throw std::invalid_argument("--repair requires --fault (nothing to repair)");
      }
    }
    if (args.has("adaptive-sampling")) {
      cfg.adaptive_throttle.enabled = true;
      // Bare switch uses the default budget; --adaptive-sampling=X sets it.
      if (args.get_string("adaptive-sampling", "true") != "true") {
        cfg.adaptive_throttle.perturbation_budget_pct = args.get_double("adaptive-sampling", 5.0);
      }
    }
    cfg.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
    cfg.reference_rng = args.get_bool("reference-rng");
    cfg.instrumentation_enabled = !args.get_bool("uninstrumented");
    cfg.main_on_dedicated_host = args.get_bool("dedicated-main");
    cfg.validate();

    const auto reps = static_cast<std::size_t>(args.get_long("reps", 1));
    const auto jobs = static_cast<std::size_t>(args.get_long("jobs", 0));  // 0 = all hw threads

    const std::string trace_file = args.get_string("trace", "");
    const auto trace_events =
        static_cast<std::size_t>(args.get_long("trace-events", 1L << 18));
    const std::string metrics_file = args.get_string("metrics", "");
    const double metrics_tick_us = args.get_double("metrics-tick-ms", 100.0) * 1'000.0;
    const std::string report_file = args.get_string("report-json", "");
    const bool profile = args.get_bool("profile");
    const std::string metrics_json_file = args.get_string("metrics-json", "");
    // --metrics-json wants the probes armed even without a CSV destination.
    const bool want_metrics = !metrics_file.empty() || !metrics_json_file.empty();
    if (cfg.shards > 0 && want_metrics) {
      throw std::invalid_argument(
          "--metrics/--metrics-json are not supported with --shards (the probes read "
          "cross-shard state mid-run); drop --shards or the metrics flags");
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

    // One replication set reused across metrics when reps >= 2.
    if (reps >= 2) {
      // The hook runs on worker threads: each rep writes its own tracer
      // slot, and only rep 0 (seed == base seed) carries the metrics probes
      // — a registry belongs to a single simulation.
      std::vector<obs::Tracer> tracers(reps);
      // Per-rep detection harnesses (each owns a consultant fed by that
      // rep's delivered samples); slots are disjoint so no lock is needed.
      std::vector<std::unique_ptr<consultant::DetectionHarness>> harnesses(reps);
      const experiments::RunHook hook = [&](rocc::Simulation& sim, std::size_t /*cell*/,
                                            std::size_t rep) {
        if (recorder) {
          if (cfg.shards > 0) {
            // Partitioned runs trace one tracer per shard ("shard s"
            // process names); attach the recorder to rep 0 only so the
            // shard names stay unambiguous across replications.
            if (rep == 0) sim.set_trace_recorder(*recorder);
          } else {
            tracers[rep] = recorder->create_tracer("rep " + std::to_string(rep));
            sim.set_tracer(&tracers[rep]);
          }
        }
        if (want_metrics && rep == 0) sim.enable_metrics(registry, metrics_tick_us);
        // No-op when the effective fault plan is empty.
        harnesses[rep] =
            std::make_unique<consultant::DetectionHarness>(sim, consultant::DetectorConfig{},
                                                           repair_policy);
      };
      const experiments::ReplicationSet rs(cfg, reps, jobs, hook);
      const auto row = [&](const char* label, const experiments::MetricFn& fn, int digits) {
        const auto ci = rs.metric(fn);
        std::printf("  %-36s %s\n", label,
                    experiments::fmt_ci(ci.mean, ci.half_width, digits).c_str());
      };
      row("Pd CPU time/node (s)", experiments::pd_cpu_time_sec, 4);
      row("Pd CPU utilization/node (%)",
          [](const rocc::SimulationResult& r) { return r.pd_cpu_util_pct; }, 3);
      row("main Paradyn CPU utilization (%)",
          [](const rocc::SimulationResult& r) { return r.main_cpu_util_pct; }, 3);
      row("application CPU utilization/node (%)",
          [](const rocc::SimulationResult& r) { return r.app_cpu_util_pct; }, 3);
      row("monitoring latency/sample (ms)", experiments::latency_ms, 3);
      row("throughput (samples/s)", experiments::throughput, 1);
      // Detection/recovery latencies live in the harnesses; fold them into
      // a finalized copy of the results for the report and the summary.
      std::vector<rocc::SimulationResult> finalized = rs.results();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        if (harnesses[rep]) harnesses[rep]->finalize(finalized[rep]);
      }
      if (!finalized.empty() && !finalized.front().fault_outcomes.empty()) {
        row("samples dropped by faults",
            [](const rocc::SimulationResult& r) {
              return static_cast<double>(r.samples_dropped);
            },
            1);
        // Per-fault rows aggregate the *plan* faults only: cascade-induced
        // rows are appended per rep and their count can vary with the seed.
        std::size_t nfaults = finalized.front().fault_outcomes.size();
        for (const auto& r : finalized) nfaults = std::min(nfaults, r.fault_outcomes.size());
        std::printf("\n  per-fault detection latency, mean over %zu rep(s) (ms):\n", reps);
        double mttd_sum = 0.0;
        std::size_t mttd_n = 0;
        double mttr_sum = 0.0;
        std::size_t mttr_n = 0;
        std::size_t gave_up_n = 0;
        bool any_repair = false;
        for (std::size_t f = 0; f < nfaults; ++f) {
          double det_sum = 0.0;
          double rec_sum = 0.0;
          double rep_sum = 0.0;
          std::size_t det_n = 0;
          std::size_t rec_n = 0;
          std::size_t rep_n = 0;
          std::size_t gu_n = 0;
          for (const auto& r : finalized) {
            const auto& o = r.fault_outcomes[f];
            if (o.detected) {
              det_sum += o.detection_latency_us;
              ++det_n;
            }
            if (o.recovered) {
              rec_sum += o.recovery_latency_us;
              ++rec_n;
            }
            if (o.repair_attempted) any_repair = true;
            if (o.repaired) {
              rep_sum += o.time_to_repair_us;
              ++rep_n;
            }
            if (o.gave_up) ++gu_n;
          }
          mttd_sum += det_sum;
          mttd_n += det_n;
          mttr_sum += rep_sum;
          mttr_n += rep_n;
          gave_up_n += gu_n;
          std::printf("    %s: detected %zu/%zu", finalized.front().fault_outcomes[f].spec.describe().c_str(),
                      det_n, reps);
          if (det_n > 0) std::printf(", mean +%.1f ms", det_sum / static_cast<double>(det_n) / 1e3);
          std::printf(", recovered %zu/%zu", rec_n, reps);
          if (rec_n > 0) std::printf(", mean +%.1f ms", rec_sum / static_cast<double>(rec_n) / 1e3);
          if (rep_n > 0 || gu_n > 0) {
            std::printf(", repaired %zu/%zu", rep_n, reps);
            if (rep_n > 0) {
              std::printf(", mean TTR +%.1f ms", rep_sum / static_cast<double>(rep_n) / 1e3);
            }
            if (gu_n > 0) std::printf(", gave up %zu/%zu", gu_n, reps);
          }
          std::printf("\n");
        }
        if (any_repair) {
          char mttd[32] = "n/a";
          char mttr[32] = "n/a";
          if (mttd_n > 0) {
            std::snprintf(mttd, sizeof(mttd), "%.1f",
                          mttd_sum / static_cast<double>(mttd_n) / 1e3);
          }
          if (mttr_n > 0) {
            std::snprintf(mttr, sizeof(mttr), "%.1f",
                          mttr_sum / static_cast<double>(mttr_n) / 1e3);
          }
          std::printf("\n  MTTD (ms): %s   MTTR (ms): %s   gave up: %zu\n", mttd, mttr,
                      gave_up_n);
        }
      }
      if (cfg.adaptive_throttle.enabled) {
        row("max sampling throttle factor",
            [](const rocc::SimulationResult& r) { return r.max_throttle_factor; }, 2);
      }
      rs.report().print(std::cerr, "roccsim");
      if (profile) profile_report = obs::profile_recorder(*recorder);
      if (!report_file.empty()) {
        auto os = open_or_throw(report_file);
        experiments::write_report_json(os, stamp, finalized, &rs.report(),
                                       profile_report ? &*profile_report : nullptr);
      }
    } else {
      rocc::Simulation sim(cfg);
      // Fan the shard window loop over a pool when the hardware has room;
      // the executor never changes results (bit-identical by contract).
      std::optional<experiments::ThreadPool> shard_pool;
      if (cfg.shards > 1) {
        const std::size_t lanes = std::min<std::size_t>(
            static_cast<std::size_t>(cfg.shards), experiments::ThreadPool::hardware_jobs());
        if (lanes > 1) {
          shard_pool.emplace(lanes - 1);  // the caller thread is lane 0
          sim.set_shard_executor(experiments::shard_pool_executor(*shard_pool, lanes));
        }
      }
      obs::Tracer tracer;
      if (recorder) {
        if (cfg.shards > 0) {
          sim.set_trace_recorder(*recorder);
        } else {
          tracer = recorder->create_tracer();
          sim.set_tracer(&tracer);
        }
      }
      if (want_metrics) sim.enable_metrics(registry, metrics_tick_us);
      // No-op when the effective fault plan is empty.
      const consultant::DetectionHarness harness(sim, consultant::DetectorConfig{},
                                                 repair_policy);
      auto r = sim.run();
      harness.finalize(r);
      std::printf("  %-36s %.4f\n", "Pd CPU time/node (s)", r.pd_cpu_time_sec());
      std::printf("  %-36s %.3f\n", "Pd CPU utilization/node (%)", r.pd_cpu_util_pct);
      std::printf("  %-36s %.3f\n", "main Paradyn CPU utilization (%)", r.main_cpu_util_pct);
      std::printf("  %-36s %.3f\n", "application CPU utilization/node (%)", r.app_cpu_util_pct);
      std::printf("  %-36s %.3f\n", "monitoring latency/sample (ms)", r.latency_sec() * 1e3);
      std::printf("  %-36s %.1f\n", "throughput (samples/s)", r.throughput_samples_per_sec);
      std::printf("  %-36s %llu / %llu\n", "samples delivered / generated",
                  static_cast<unsigned long long>(r.samples_delivered),
                  static_cast<unsigned long long>(r.samples_generated));
      if (cfg.adaptive.enabled) {
        std::printf("  %-36s %.2f\n", "final sampling period (ms)",
                    r.final_sampling_period_us / 1e3);
      }
      if (!r.fault_outcomes.empty()) {
        std::printf("  %-36s %llu\n", "samples dropped by faults",
                    static_cast<unsigned long long>(r.samples_dropped));
      }
      if (cfg.adaptive_throttle.enabled) {
        std::printf("  %-36s %.2f (%llu adjustment(s))\n", "max sampling throttle factor",
                    r.max_throttle_factor,
                    static_cast<unsigned long long>(r.throttle_adjustments));
      }
      print_fault_outcomes(r.fault_outcomes);
      if (profile) profile_report = obs::profile_recorder(*recorder);
      if (!report_file.empty()) {
        auto os = open_or_throw(report_file);
        experiments::write_report_json(os, stamp, {r}, nullptr,
                                       profile_report ? &*profile_report : nullptr);
      }
    }

    if (profile_report) {
      std::printf("\n");
      obs::print_profile_report(std::cout, *profile_report);
    }

    if (recorder && !trace_file.empty()) {
      auto os = open_or_throw(trace_file);
      recorder->write_chrome_json(os);
      std::fprintf(stderr, "roccsim: wrote %llu trace event(s) to %s (%llu dropped)\n",
                   static_cast<unsigned long long>(recorder->recorded() - recorder->dropped()),
                   trace_file.c_str(), static_cast<unsigned long long>(recorder->dropped()));
    }
    if (!metrics_file.empty()) {
      auto os = open_or_throw(metrics_file);
      stamp.write(os);
      registry.write_csv(os);
      std::fprintf(stderr, "roccsim: wrote %zu metrics row(s) to %s\n", registry.rows(),
                   metrics_file.c_str());
    }
    if (!metrics_json_file.empty()) {
      auto os = open_or_throw(metrics_json_file);
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
