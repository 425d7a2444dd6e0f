// roccsweep — sweep one ROCC parameter and emit figure-ready CSV.
//
//   roccsweep --axis sampling-ms --values 1,2,5,10,20,40 --arch now --nodes 8
//   roccsweep --axis batch --values 1,2,4,8,16,32,64,128 --sampling-ms 1
//   roccsweep --axis nodes --values 2,4,8,16,32 --batch 32 --reps 3 > fig.csv
//
// Columns: the axis, then pd_util, main_util, app_util, latency_ms,
// throughput (means over --reps seed-varied replications).
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "consultant/fault_detector.hpp"
#include "experiments/report_json.hpp"
#include "experiments/runner.hpp"
#include "experiments/table.hpp"
#include "model_flags.hpp"
#include "obs/repro.hpp"
#include "rocc/config.hpp"
#include "rocc/faults.hpp"
#include "rocc/simulation.hpp"

namespace {

/// One row of a grid: a fault (empty spec = the fault-free baseline) and
/// a repair policy (empty spec = detection only; the fault grid has none).
struct GridRow {
  std::string fault_label;
  std::string fault_spec;
  std::string policy_label = "";
  std::string policy_spec = "";
};

/// "start=..,dur=..<extra>" for a window at 40% of the run, `share` of it long.
std::string fault_window(double duration_us, double share, const char* extra) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "start=%.0f,dur=%.0f%s", 0.4 * duration_us,
                share * duration_us, extra);
  return buf;
}

/// The canonical fault grid (Tables 4-6 style): every fault type at a mild
/// and a severe setting, windows placed relative to the simulated length.
std::vector<GridRow> fault_grid(double duration_us) {
  const auto window = [&](const char* extra) { return fault_window(duration_us, 0.2, extra); };
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

/// The canonical repair grid: every repairable fault flavor crossed with a
/// policy ladder from "no repair" through "never succeeds", so MTTR and
/// gave_up rates are comparable across fault types the way the fault grid
/// makes detection latency comparable.
std::vector<GridRow> repair_grid(double duration_us) {
  const auto window = [&](const char* extra) { return fault_window(duration_us, 0.4, extra); };
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
  std::vector<GridRow> grid;
  for (const auto& [flabel, fspec] : faults) {
    const std::string action = action_for(flabel);
    grid.push_back({flabel, fspec, "off", ""});
    grid.push_back({flabel, fspec, "eager", policy(action, "")});
    grid.push_back({flabel, fspec, "flaky", policy(action, ",success_p=0.5")});
    grid.push_back({flabel, fspec, "hopeless", policy(action, ",success_p=0")});
  }
  return grid;
}

/// Run every row's replications on `runner` as one grid with detection
/// (and the row's repair policy) attached; returns each row's finalized runs.
std::vector<std::vector<paradyn::rocc::SimulationResult>> run_grid(
    const std::vector<GridRow>& rows, const paradyn::rocc::SystemConfig& base, std::size_t reps,
    paradyn::experiments::ParallelRunner& runner) {
  using namespace paradyn;
  std::vector<rocc::SystemConfig> configs;
  std::vector<consultant::RepairPolicy> policies;
  for (const GridRow& row : rows) {
    rocc::SystemConfig cfg = base;
    if (!row.fault_spec.empty()) cfg.faults = rocc::FaultPlan::parse(row.fault_spec);
    cfg.validate();
    configs.push_back(std::move(cfg));
    policies.push_back(row.policy_spec.empty() ? consultant::RepairPolicy{}
                                               : consultant::RepairPolicy::parse(row.policy_spec));
  }
  std::vector<std::unique_ptr<consultant::DetectionHarness>> harnesses(rows.size() * reps);
  runner.set_run_hook([&](rocc::Simulation& sim, std::size_t cell, std::size_t rep) {
    harnesses[cell * reps + rep] =
        std::make_unique<consultant::DetectionHarness>(sim, policies[cell]);
  });
  auto results = runner.cells(configs, base.seed, reps);
  for (std::size_t cell = 0; cell < rows.size(); ++cell) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      harnesses[cell * reps + rep]->finalize(results[cell][rep]);
    }
  }
  return results;
}

/// Plan-fault rows of one grid row's replications (induced cascade rows
/// carry no policy row; neither grid plans a cascade).
paradyn::tools::FaultTally tally(const std::vector<paradyn::rocc::SimulationResult>& runs) {
  paradyn::tools::FaultTally t;
  for (const auto& r : runs) {
    for (const auto& o : r.fault_outcomes) {
      if (o.cascaded_from < 0) t.add(o);
    }
  }
  return t;
}

/// Per-fault detection/recovery metrics, one CSV row per fault.
void print_fault_row(const GridRow& row, const std::vector<paradyn::rocc::SimulationResult>& runs) {
  using paradyn::tools::FaultTally;
  const FaultTally t = tally(runs);
  double dropped = 0.0;
  double delivered = 0.0;
  double latency_ms = 0.0;
  for (const auto& r : runs) {
    dropped += static_cast<double>(r.samples_dropped);
    delivered += static_cast<double>(r.samples_delivered);
    latency_ms += r.latency_us.count() ? r.latency_us.mean() / 1e3 : 0.0;
  }
  const auto n = static_cast<double>(runs.size());
  std::printf("%s,%.2f,%.3f,%.2f,%.3f,%.1f,%.1f,%.3f\n", row.fault_label.c_str(),
              t.frac(t.detected), FaultTally::mean_ms(t.detection_us, t.detected),
              t.frac(t.recovered), FaultTally::mean_ms(t.recovery_us, t.recovered), dropped / n,
              delivered / n, latency_ms / n);
}

/// Per-cell repair/MTTR metrics, one CSV row per (fault, policy).
void print_repair_row(const GridRow& row,
                      const std::vector<paradyn::rocc::SimulationResult>& runs) {
  using paradyn::tools::FaultTally;
  const FaultTally t = tally(runs);
  double dropped = 0.0;
  for (const auto& r : runs) dropped += static_cast<double>(r.samples_dropped);
  std::printf("%s,%s,%.2f,%.3f,%.2f,%.3f,%.2f,%.2f,%.3f,%.1f\n", row.fault_label.c_str(),
              row.policy_label.c_str(), t.frac(t.detected),
              FaultTally::mean_ms(t.detection_us, t.detected), t.frac(t.repaired),
              FaultTally::mean_ms(t.repair_us, t.repaired), t.frac(t.gave_up),
              t.attempted ? t.attempts / static_cast<double>(t.attempted) : 0.0,
              FaultTally::mean_ms(t.backoff_us, t.attempted, 0.0),
              dropped / static_cast<double>(runs.size()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  using tools::Kind;
  try {
    const tools::CliArgs args(argc, argv, tools::model_flags("5", {
        {"axis", Kind::Text, "NAME", "",
         "sampling-ms | batch | nodes | apps | daemons | pipe |\n"
         "barrier-ms\n"
         "(--axis nodes sweeps node count on NOW/MPP; on SMP it\n"
         "sweeps cpus_per_node, the machine's CPU count)"},
        {"values", Kind::Text, "a,b,c", "",
         "sweep points (required); each must be a finite number,\n"
         "and an integer on batch, nodes, apps, daemons and pipe;\n"
         "a malformed value fails before anything runs"},
        {"fault-grid", Kind::Switch, "", "",
         "instead of an axis sweep, run the canonical fault grid\n"
         "(every fault type at two severities + a fault-free\n"
         "baseline) and emit a detection/recovery-latency CSV"},
        {"repair-grid", Kind::Switch, "", "",
         "instead of an axis sweep, cross every repairable fault\n"
         "flavor with the canonical repair policies (off, eager,\n"
         "flaky, hopeless) and emit a repair/MTTR CSV"},
        tools::kHelp,
    }));
    const bool grid_mode = args.get_bool("fault-grid");
    const bool repair_grid_mode = args.get_bool("repair-grid");
    if (args.get_bool("help") ||
        (!grid_mode && !repair_grid_mode && (!args.has("axis") || !args.has("values")))) {
      args.print_help("roccsweep — one-axis parameter sweep, CSV on stdout");
      return args.get_bool("help") ? 0 : 1;
    }
    if (grid_mode && repair_grid_mode) {
      throw std::invalid_argument("--fault-grid and --repair-grid are mutually exclusive");
    }

    const std::string axis = args.get_string("axis");
    const auto values = grid_mode || repair_grid_mode
                            ? std::vector<double>{}
                            : tools::parse_values(axis, args.get_string("values"));
    const rocc::SystemConfig base = tools::model_config(args);
    const auto reps = static_cast<std::size_t>(args.get_long("reps"));
    const auto jobs = static_cast<std::size_t>(args.get_long("jobs"));

    if (args.get_bool("progress")) experiments::set_progress_stream(&std::cerr);
    const std::string report_file = args.get_string("report-json");

    obs::ReproStamp stamp;
    stamp.tool = "roccsweep";
    stamp.config = base.summary();
    stamp.seed = base.seed;
    stamp.has_seed = true;
    stamp.jobs = jobs == 0 ? experiments::default_jobs() : jobs;
    stamp.extra = grid_mode ? "fault-grid reps=" + std::to_string(reps)
                  : repair_grid_mode
                      ? "repair-grid reps=" + std::to_string(reps)
                      : "axis=" + axis + " values=" + args.get_string("values") +
                            " reps=" + std::to_string(reps);
    // '#'-prefixed header on the CSV itself: plotting scripts skip it,
    // humans can always trace the file back to the run that made it.
    stamp.write(std::cout);

    std::vector<rocc::SimulationResult> runs;
    experiments::RunReport report;
    const char* label = "roccsweep";
    if (grid_mode || repair_grid_mode) {
      label = grid_mode ? "roccsweep --fault-grid" : "roccsweep --repair-grid";
      std::puts(grid_mode ? "fault,detected_frac,detection_ms,recovered_frac,recovery_ms,"
                            "dropped,delivered,latency_ms"
                          : "fault,policy,detected_frac,detection_ms,repaired_frac,ttr_ms,"
                            "gave_up_frac,attempts_mean,backoff_ms,dropped");
      const auto rows = grid_mode ? fault_grid(base.duration_us) : repair_grid(base.duration_us);
      experiments::ParallelRunner runner(jobs);
      const auto results = run_grid(rows, base, reps, runner);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        (grid_mode ? print_fault_row : print_repair_row)(rows[i], results[i]);
        runs.insert(runs.end(), results[i].begin(), results[i].end());
      }
      report = runner.report();
    } else {
      const experiments::Sweep sweep(
          values, {axis},
          [&](double v, std::size_t) {
            rocc::SystemConfig cfg = base;
            tools::apply_axis(cfg, axis, v);
            cfg.validate();
            return cfg;
          },
          reps, jobs);
      const auto& panels = experiments::paper_panels();
      std::vector<std::vector<double>> series;
      for (const experiments::MetricFn& fn :
           {panels[experiments::kPdUtil].metric, panels[experiments::kMainUtil].metric,
            panels[experiments::kAppUtil].metric, experiments::MetricFn(experiments::latency_ms),
            experiments::MetricFn(experiments::throughput)}) {
        series.push_back(sweep.means(fn).front());
      }
      experiments::write_series_csv(
          std::cout, axis, values,
          {"pd_util_pct", "main_util_pct", "app_util_pct", "latency_ms", "throughput_per_s"},
          series);
      runs = sweep.runs();
      report = sweep.report();
    }
    report.print(std::cerr, label);
    if (!report_file.empty()) {
      auto os = tools::open_output(report_file);
      experiments::write_report_json(os, stamp, runs, &report);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roccsweep: %s\n(try --help)\n", e.what());
    return 1;
  }
}
