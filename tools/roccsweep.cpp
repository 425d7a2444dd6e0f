// roccsweep — sweep one ROCC parameter and emit figure-ready CSV.
//
//   roccsweep --axis sampling-ms --values 1,2,5,10,20,40 --arch now --nodes 8
//   roccsweep --axis batch --values 1,2,4,8,16,32,64,128 --sampling-ms 1
//   roccsweep --axis nodes --values 2,4,8,16,32 --batch 32 --reps 3 > fig.csv
//
// Columns: the axis, then pd_util, main_util, app_util, latency_ms,
// throughput (means over --reps seed-varied replications).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
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
#include "obs/repro.hpp"
#include "rocc/config.hpp"
#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"

namespace {

/// Per-simulation PDES wiring (installs the shard executor); empty when the
/// sweep runs unsharded or the clamp left only one lane per job.
using ShardSetup = std::function<void(paradyn::rocc::Simulation&)>;

void print_help() {
  std::puts(
      "roccsweep — one-axis parameter sweep, CSV on stdout\n"
      "\n"
      "  --axis NAME        sampling-ms | batch | nodes | apps | daemons | pipe |\n"
      "                     barrier-ms\n"
      "                     (--axis nodes sweeps node count on NOW/MPP; on SMP it\n"
      "                     sweeps cpus_per_node, the machine's CPU count)\n"
      "  --values a,b,c     sweep points (required)\n"
      "  --arch now|smp|mpp --nodes N --apps N --daemons N --sampling-ms X\n"
      "  --batch N --topology direct|tree --seconds X --reps N --seed N\n"
      "  --shards N         partition every run into N conservative-window DES\n"
      "                     shards (PDES); results are bit-identical for every N\n"
      "  --uplink-ms X      daemon uplink latency in ms (the cross-shard lookahead);\n"
      "                     default 0 (0.5 when --shards is given)\n"
      "  --reference-rng    pre-ziggurat variate backend (pre-PR-5 streams)\n"
      "  --jobs N           worker threads per replication set; default: all\n"
      "                     hardware threads, 1 = serial (results identical).\n"
      "                     Shard workers are clamped per job so --jobs x --shards\n"
      "                     never oversubscribes the machine\n"
      "  --progress         heartbeat lines on stderr as runs finish\n"
      "  --report-json FILE full SimulationResult of every run as JSON\n"
      "  --fault-grid       instead of an axis sweep, run the canonical fault grid\n"
      "                     (every fault type at two severities + a fault-free\n"
      "                     baseline) and emit a detection/recovery-latency CSV\n"
      "  --repair-grid      instead of an axis sweep, cross every repairable fault\n"
      "                     flavor with the canonical repair policies (off, eager,\n"
      "                     flaky, hopeless) and emit a repair/MTTR CSV\n"
      "  --help             this text\n");
}

std::vector<double> parse_values(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    out.push_back(std::stod(item));
  }
  if (out.empty()) throw std::invalid_argument("--values: no sweep points");
  return out;
}

void apply_axis(paradyn::rocc::SystemConfig& cfg, const std::string& axis, double value) {
  using paradyn::rocc::Architecture;
  if (axis == "sampling-ms") {
    cfg.sampling_period_us = value * 1'000.0;
  } else if (axis == "batch") {
    cfg.batch_size = static_cast<std::int32_t>(value);
  } else if (axis == "nodes") {
    if (cfg.arch == Architecture::Smp) {
      cfg.cpus_per_node = static_cast<std::int32_t>(value);
    } else {
      cfg.nodes = static_cast<std::int32_t>(value);
    }
  } else if (axis == "apps") {
    cfg.app_processes_per_node = static_cast<std::int32_t>(value);
  } else if (axis == "daemons") {
    cfg.daemons = static_cast<std::int32_t>(value);
  } else if (axis == "pipe") {
    cfg.pipe_capacity = static_cast<std::int32_t>(value);
  } else if (axis == "barrier-ms") {
    cfg.barrier_period_us = value * 1'000.0;
  } else {
    throw std::invalid_argument("unknown --axis: " + axis);
  }
}

/// One row of the fault grid: a label plus the --fault spec string (empty
/// = the fault-free baseline).
struct GridEntry {
  std::string label;
  std::string spec;
};

/// The canonical fault grid (Tables 4-6 style): every fault type at a mild
/// and a severe setting, windows placed relative to the simulated length.
std::vector<GridEntry> fault_grid(double duration_us) {
  const double start = 0.4 * duration_us;
  const double dur = 0.2 * duration_us;
  const auto window = [&](const char* extra) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "start=%.0f,dur=%.0f%s", start, dur, extra);
    return std::string(buf);
  };
  return {
      {"none", ""},
      {"daemon_stall", "daemon_stall:daemon=0," + window("")},
      {"daemon_crash", "daemon_crash:daemon=0," + window("")},
      {"link_slow_x4", "link_slow:" + window(",factor=4")},
      {"link_slow_x16", "link_slow:" + window(",factor=16")},
      {"sample_drop_10", "sample_drop:node=all," + window(",p=0.1")},
      {"sample_drop_50", "sample_drop:node=all," + window(",p=0.5")},
      {"pipe_backpressure", "pipe_backpressure:daemon=0," + window(",capacity=1")},
  };
}

/// Run the grid and print a CSV of per-fault detection/recovery metrics.
void run_fault_grid(const paradyn::rocc::SystemConfig& base, std::size_t reps, std::size_t jobs,
                    const std::string& report_file, const paradyn::obs::ReproStamp& stamp,
                    const ShardSetup& shard_setup) {
  using namespace paradyn;
  std::printf("fault,detected_frac,detection_ms,recovered_frac,recovery_ms,dropped,delivered,latency_ms\n");
  std::vector<rocc::SimulationResult> all_results;
  experiments::RunReport grid_report;
  for (const GridEntry& entry : fault_grid(base.duration_us)) {
    rocc::SystemConfig cfg = base;
    if (!entry.spec.empty()) cfg.faults = rocc::FaultPlan::parse(entry.spec);
    cfg.validate();
    std::vector<std::unique_ptr<consultant::DetectionHarness>> harnesses(reps);
    const experiments::RunHook hook = [&](rocc::Simulation& sim, std::size_t, std::size_t rep) {
      if (shard_setup) shard_setup(sim);
      harnesses[rep] = std::make_unique<consultant::DetectionHarness>(sim);
    };
    const experiments::ReplicationSet rs(cfg, reps, jobs, hook);
    grid_report += rs.report();
    std::vector<rocc::SimulationResult> finalized = rs.results();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      if (harnesses[rep]) harnesses[rep]->finalize(finalized[rep]);
    }

    double det_sum = 0.0;
    double rec_sum = 0.0;
    double dropped = 0.0;
    double delivered = 0.0;
    double latency_ms = 0.0;
    std::size_t det_n = 0;
    std::size_t rec_n = 0;
    for (const auto& r : finalized) {
      for (const auto& o : r.fault_outcomes) {
        if (o.detected) {
          det_sum += o.detection_latency_us;
          ++det_n;
        }
        if (o.recovered) {
          rec_sum += o.recovery_latency_us;
          ++rec_n;
        }
      }
      dropped += static_cast<double>(r.samples_dropped);
      delivered += static_cast<double>(r.samples_delivered);
      latency_ms += r.latency_us.count() ? r.latency_us.mean() / 1e3 : 0.0;
    }
    const auto n = static_cast<double>(reps);
    const std::size_t outcome_slots = finalized.front().fault_outcomes.size() * reps;
    std::printf("%s,%.2f,%.3f,%.2f,%.3f,%.1f,%.1f,%.3f\n", entry.label.c_str(),
                outcome_slots ? static_cast<double>(det_n) / static_cast<double>(outcome_slots) : 0.0,
                det_n ? det_sum / static_cast<double>(det_n) / 1e3 : -1.0,
                outcome_slots ? static_cast<double>(rec_n) / static_cast<double>(outcome_slots) : 0.0,
                rec_n ? rec_sum / static_cast<double>(rec_n) / 1e3 : -1.0, dropped / n,
                delivered / n, latency_ms / n);
    if (!report_file.empty()) {
      all_results.insert(all_results.end(), finalized.begin(), finalized.end());
    }
  }
  grid_report.print(std::cerr, "roccsweep --fault-grid");
  if (!report_file.empty()) {
    std::ofstream os(report_file);
    if (!os) throw std::runtime_error("cannot open for writing: " + report_file);
    experiments::write_report_json(os, stamp, all_results, &grid_report);
  }
}

/// The canonical repair grid: every repairable fault flavor crossed with a
/// policy ladder from "no repair" through "never succeeds", so MTTR and
/// gave_up rates are comparable across fault types the way the fault grid
/// makes detection latency comparable.
struct RepairGridEntry {
  std::string fault_label;
  std::string fault_spec;
  std::string policy_label;
  std::string policy_spec;
};

std::vector<RepairGridEntry> repair_grid(double duration_us) {
  const double start = 0.4 * duration_us;
  const double dur = 0.4 * duration_us;
  const auto window = [&](const char* extra) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "start=%.0f,dur=%.0f%s", start, dur, extra);
    return std::string(buf);
  };
  const std::vector<std::pair<std::string, std::string>> faults = {
      {"daemon_stall", "daemon_stall:daemon=0," + window("")},
      {"daemon_crash", "daemon_crash:daemon=0," + window("")},
      {"link_slow_x4", "link_slow:" + window(",factor=4")},
      {"pipe_backpressure", "pipe_backpressure:daemon=0," + window(",capacity=1")},
  };
  // Per-fault matching action; timeout/backoff scale with the window so the
  // grid stays meaningful at any --seconds value.
  const auto action_for = [](const std::string& label) {
    if (label.rfind("daemon", 0) == 0) return std::string("restart_daemon");
    if (label.rfind("link", 0) == 0) return std::string("reroute_link");
    return std::string("reset_pipe");
  };
  const double timeout = 0.02 * duration_us;
  const double backoff = 0.01 * duration_us;
  const auto policy = [&](const std::string& action, const char* extra) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s:timeout=%.0f,max_retries=3,backoff=exp:%.0f%s",
                  action.c_str(), timeout, backoff, extra);
    return std::string(buf);
  };
  std::vector<RepairGridEntry> grid;
  for (const auto& [flabel, fspec] : faults) {
    const std::string action = action_for(flabel);
    grid.push_back({flabel, fspec, "off", ""});
    grid.push_back({flabel, fspec, "eager", policy(action, "")});
    grid.push_back({flabel, fspec, "flaky", policy(action, ",success_p=0.5")});
    grid.push_back({flabel, fspec, "hopeless", policy(action, ",success_p=0")});
  }
  return grid;
}

/// Run the repair grid and print a CSV of per-cell repair/MTTR metrics.
void run_repair_grid(const paradyn::rocc::SystemConfig& base, std::size_t reps, std::size_t jobs,
                     const std::string& report_file, const paradyn::obs::ReproStamp& stamp,
                     const ShardSetup& shard_setup) {
  using namespace paradyn;
  std::printf(
      "fault,policy,detected_frac,detection_ms,repaired_frac,ttr_ms,gave_up_frac,"
      "attempts_mean,backoff_ms,dropped\n");
  std::vector<rocc::SimulationResult> all_results;
  experiments::RunReport grid_report;
  for (const RepairGridEntry& entry : repair_grid(base.duration_us)) {
    rocc::SystemConfig cfg = base;
    cfg.faults = rocc::FaultPlan::parse(entry.fault_spec);
    cfg.validate();
    consultant::RepairPolicy policy;
    if (!entry.policy_spec.empty()) policy = consultant::RepairPolicy::parse(entry.policy_spec);
    std::vector<std::unique_ptr<consultant::DetectionHarness>> harnesses(reps);
    const experiments::RunHook hook = [&](rocc::Simulation& sim, std::size_t, std::size_t rep) {
      if (shard_setup) shard_setup(sim);
      harnesses[rep] =
          std::make_unique<consultant::DetectionHarness>(sim, consultant::DetectorConfig{},
                                                         policy);
    };
    const experiments::ReplicationSet rs(cfg, reps, jobs, hook);
    grid_report += rs.report();
    std::vector<rocc::SimulationResult> finalized = rs.results();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      if (harnesses[rep]) harnesses[rep]->finalize(finalized[rep]);
    }

    double det_sum = 0.0;
    double ttr_sum = 0.0;
    double backoff_sum = 0.0;
    double attempts_sum = 0.0;
    double dropped = 0.0;
    std::size_t det_n = 0;
    std::size_t rep_n = 0;
    std::size_t gave_up_n = 0;
    std::size_t attempted_n = 0;
    std::size_t slots = 0;
    for (const auto& r : finalized) {
      for (const auto& o : r.fault_outcomes) {
        if (o.cascaded_from >= 0) continue;  // induced rows have no policy row
        ++slots;
        if (o.detected) {
          det_sum += o.detection_latency_us;
          ++det_n;
        }
        if (o.repair_attempted) {
          ++attempted_n;
          attempts_sum += o.repair_attempts;
          backoff_sum += o.repair_backoff_us;
        }
        if (o.repaired) {
          ttr_sum += o.time_to_repair_us;
          ++rep_n;
        }
        if (o.gave_up) ++gave_up_n;
      }
      dropped += static_cast<double>(r.samples_dropped);
    }
    const auto frac = [&](std::size_t k) {
      return slots ? static_cast<double>(k) / static_cast<double>(slots) : 0.0;
    };
    std::printf("%s,%s,%.2f,%.3f,%.2f,%.3f,%.2f,%.2f,%.3f,%.1f\n", entry.fault_label.c_str(),
                entry.policy_label.c_str(), frac(det_n),
                det_n ? det_sum / static_cast<double>(det_n) / 1e3 : -1.0, frac(rep_n),
                rep_n ? ttr_sum / static_cast<double>(rep_n) / 1e3 : -1.0, frac(gave_up_n),
                attempted_n ? attempts_sum / static_cast<double>(attempted_n) : 0.0,
                attempted_n ? backoff_sum / static_cast<double>(attempted_n) / 1e3 : 0.0,
                dropped / static_cast<double>(reps));
    if (!report_file.empty()) {
      all_results.insert(all_results.end(), finalized.begin(), finalized.end());
    }
  }
  grid_report.print(std::cerr, "roccsweep --repair-grid");
  if (!report_file.empty()) {
    std::ofstream os(report_file);
    if (!os) throw std::runtime_error("cannot open for writing: " + report_file);
    experiments::write_report_json(os, stamp, all_results, &grid_report);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  try {
    const tools::CliArgs args(
        argc, argv,
        {"axis", "values", "arch", "nodes", "apps", "daemons", "sampling-ms", "batch",
         "topology", "seconds", "reps", "seed", "shards", "uplink-ms", "reference-rng", "jobs",
         "progress", "report-json", "fault-grid", "repair-grid", "help"});
    const bool grid_mode = args.get_bool("fault-grid");
    const bool repair_grid_mode = args.get_bool("repair-grid");
    if (args.get_bool("help") ||
        (!grid_mode && !repair_grid_mode && (!args.has("axis") || !args.has("values")))) {
      print_help();
      return args.get_bool("help") ? 0 : 1;
    }
    if (grid_mode && repair_grid_mode) {
      throw std::invalid_argument("--fault-grid and --repair-grid are mutually exclusive");
    }

    const std::string axis = args.get_string("axis", "");
    const auto values = grid_mode || repair_grid_mode
                            ? std::vector<double>{}
                            : parse_values(args.get_string("values", ""));
    const std::string arch = args.get_string("arch", "now");
    const auto nodes = static_cast<std::int32_t>(args.get_long("nodes", 8));
    const auto apps = static_cast<std::int32_t>(args.get_long("apps", arch == "smp" ? nodes : 1));
    const auto daemons = static_cast<std::int32_t>(args.get_long("daemons", 1));
    const auto reps = static_cast<std::size_t>(args.get_long("reps", 1));
    const auto jobs = static_cast<std::size_t>(args.get_long("jobs", 0));  // 0 = all hw threads

    rocc::SystemConfig base = [&] {
      if (arch == "now") return rocc::SystemConfig::now(nodes);
      if (arch == "smp") return rocc::SystemConfig::smp(nodes, apps, daemons);
      if (arch == "mpp") {
        return rocc::SystemConfig::mpp(
            nodes, args.get_string("topology", "direct") == "tree"
                       ? rocc::ForwardingTopology::BinaryTree
                       : rocc::ForwardingTopology::Direct);
      }
      throw std::invalid_argument("unknown --arch: " + arch);
    }();
    if (arch != "smp") base.app_processes_per_node = apps;
    base.sampling_period_us = args.get_double("sampling-ms", 40.0) * 1'000.0;
    base.batch_size = static_cast<std::int32_t>(args.get_long("batch", 1));
    base.duration_us = args.get_double("seconds", 5.0) * 1e6;
    base.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
    base.shards = static_cast<std::int32_t>(args.get_long("shards", 0));
    base.uplink_latency_us =
        args.get_double("uplink-ms", base.shards > 0 ? 0.5 : 0.0) * 1'000.0;
    base.reference_rng = args.get_bool("reference-rng");

    if (args.get_bool("progress")) experiments::set_progress_stream(&std::cerr);
    const std::string report_file = args.get_string("report-json", "");

    // Every replication job runs its own sharded simulation, so unclamped
    // PDES lanes would put --jobs x --shards threads on the machine at
    // once.  Clamp lanes per job to the hardware budget (warn once); the
    // executor choice never changes results, so the clamp is free.
    const std::size_t effective_jobs = jobs == 0 ? experiments::default_jobs() : jobs;
    std::optional<experiments::ThreadPool> shard_pool;
    ShardSetup shard_setup;
    if (base.shards > 1) {
      const std::size_t hw = experiments::ThreadPool::hardware_jobs();
      auto lanes = static_cast<std::size_t>(base.shards);
      if (effective_jobs * lanes > hw) {
        lanes = std::min(static_cast<std::size_t>(base.shards),
                         std::max<std::size_t>(1, hw / effective_jobs));
        std::fprintf(stderr,
                     "roccsweep: clamping shard workers to %zu per job (--jobs %zu x --shards "
                     "%d exceeds %zu hardware thread(s)); results are unchanged\n",
                     lanes, effective_jobs, base.shards, hw);
      }
      if (lanes > 1) {
        shard_pool.emplace(effective_jobs * (lanes - 1));
        shard_setup = [&pool = *shard_pool, lanes](rocc::Simulation& sim) {
          sim.set_shard_executor(experiments::shard_pool_executor(pool, lanes));
        };
      }
    }

    obs::ReproStamp stamp;
    stamp.tool = "roccsweep";
    stamp.config = base.summary();
    stamp.seed = base.seed;
    stamp.has_seed = true;
    stamp.jobs = jobs == 0 ? experiments::default_jobs() : jobs;
    stamp.extra = grid_mode ? "fault-grid reps=" + std::to_string(reps)
                  : repair_grid_mode
                      ? "repair-grid reps=" + std::to_string(reps)
                      : "axis=" + axis + " values=" + args.get_string("values", "") +
                            " reps=" + std::to_string(reps);
    // '#'-prefixed header on the CSV itself: plotting scripts skip it,
    // humans can always trace the file back to the run that made it.
    stamp.write(std::cout);

    if (grid_mode) {
      run_fault_grid(base, reps, jobs, report_file, stamp, shard_setup);
      return 0;
    }
    if (repair_grid_mode) {
      run_repair_grid(base, reps, jobs, report_file, stamp, shard_setup);
      return 0;
    }

    std::vector<std::vector<double>> series(5);
    std::vector<rocc::SimulationResult> all_results;
    experiments::RunReport sweep_report;
    for (const double v : values) {
      rocc::SystemConfig cfg = base;
      apply_axis(cfg, axis, v);
      cfg.validate();
      const experiments::RunHook hook = [&](rocc::Simulation& sim, std::size_t, std::size_t) {
        if (shard_setup) shard_setup(sim);
      };
      const experiments::ReplicationSet rs(cfg, reps, jobs, hook);
      sweep_report += rs.report();
      if (!report_file.empty()) {
        all_results.insert(all_results.end(), rs.results().begin(), rs.results().end());
      }
      series[0].push_back(rs.mean([](const rocc::SimulationResult& r) { return r.pd_cpu_util_pct; }));
      series[1].push_back(
          rs.mean([](const rocc::SimulationResult& r) { return r.main_cpu_util_pct; }));
      series[2].push_back(
          rs.mean([](const rocc::SimulationResult& r) { return r.app_cpu_util_pct; }));
      series[3].push_back(rs.mean(experiments::latency_ms));
      series[4].push_back(rs.mean(experiments::throughput));
    }

    experiments::write_series_csv(
        std::cout, axis, values,
        {"pd_util_pct", "main_util_pct", "app_util_pct", "latency_ms", "throughput_per_s"},
        series);
    sweep_report.print(std::cerr, "roccsweep");
    if (!report_file.empty()) {
      std::ofstream os(report_file);
      if (!os) throw std::runtime_error("cannot open for writing: " + report_file);
      experiments::write_report_json(os, stamp, all_results, &sweep_report);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roccsweep: %s\n(try --help)\n", e.what());
    return 1;
  }
}
