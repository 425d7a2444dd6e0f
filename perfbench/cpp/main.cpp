// perfbench_driver: runs one benchmark workload for a fixed host time and
// prints its metrics as one JSON line on stdout (human notes on stderr).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--spans FILE] [--provenance JSON]
//
// --trace 0 repeats the untraced job and reports the end-to-end metrics
// (medians over the repetitions).  --trace 1 alternates traced and
// untraced jobs, reports the per-layer metrics from the traced ones, and
// writes the benchmark's spans to --spans.  perfbench/run.py builds this
// binary and wraps it; see perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::JobResult;
using perfbench::Workload;

/// Repetitions every invocation makes even when one job outlasts --seconds.
constexpr std::size_t kMinJobs = 3;
/// Hard stop for the repetition loop, well inside the 180 s budget.
constexpr double kMaxLoopSeconds = 120.0;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over consecutive rounds of `round` samples of each round's mean
/// (a plain median for round 1).  An unfinished last round is dropped.
double median_of_rounds(const std::vector<double>& v, std::size_t round) {
  if (round <= 1 || v.size() < round) return median(v);
  std::vector<double> means;
  for (std::size_t i = 0; i + round <= v.size(); i += round) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + round; ++j) sum += v[j];
    means.push_back(sum / static_cast<double>(round));
  }
  return median(means);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
  return cpus;
}

/// Bind the calling thread to one CPU (threads it spawns inherit this).
void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + '"';
}

/// Unit of every metric the driver can print.  run.py checks these against
/// BENCHMARK.json.
std::string unit_of(const std::string& name) {
  static const std::map<std::string, std::string> units{
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},
      {"rocc.build_s", "s"},
      {"rocc.run_s", "s"},
      {"rocc.events", "count"},
      {"rocc.ns_per_event", "ns"},
      {"des.queue_depth_mean", "count"},
      {"des.hold_ns", "ns"},
      {"shard.run_s", "s"},
      {"shard.windows", "count"},
      {"shard.exec_s", "s"},
      {"shard.outside_s", "s"},
      {"shard.fanout_join_s", "s"},
      {"shard.straggler_s", "s"},
      {"shard.imbalance", "ratio"},
      {"shard.events_per_window", "count"},
      {"runner.runs", "count"},
      {"runner.serial_estimate_s", "s"},
      {"runner.parallel_efficiency", "ratio"},
      {"runner.max_cell_s", "s"},
      {"obs.record_s", "s"},
      {"obs.record_overhead", "ratio"},
      {"obs.trace_events", "count"},
      {"obs.dropped", "count"},
      {"obs.export_s", "s"},
      {"obs.export_mb", "MB"},
      {"obs.analyze_s", "s"},
      {"obs.analyze_meps", "Mevent/s"},
      {"obs.inline_profile_s", "s"},
      {"bench.trace_overhead_pct", "%"},
  };
  if (const auto it = units.find(name); it != units.end()) return it->second;
  if (name.rfind("stats.", 0) == 0 && name.size() > 9 &&
      name.compare(name.size() - 3, 3, "_ns") == 0) {
    return "ns";
  }
  throw std::logic_error("no unit for metric " + name);
}

/// The per-layer metrics of the traced run.  `layer` holds the mean per-job
/// additive quantities of the traced jobs, `isolated` the measurements made
/// outside them.  A metric of a layer the workload does not exercise is 0.
std::map<std::string, double> per_layer(const std::map<std::string, double>& layer,
                                        const std::map<std::string, double>& isolated,
                                        double overhead_pct) {
  const auto get = [](const std::map<std::string, double>& m, const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto L = [&](const char* key) { return get(layer, key); };
  std::map<std::string, double> m;
  m["rocc.build_s"] = L("rocc.build_s");
  m["rocc.run_s"] = L("rocc.run_s");
  m["rocc.events"] = L("rocc.events");
  m["rocc.ns_per_event"] = ratio(L("rocc.run_s") * 1e9, L("rocc.events"));
  m["des.queue_depth_mean"] = get(isolated, "des.queue_depth_mean");
  m["des.hold_ns"] = get(isolated, "des.hold_ns");
  for (const auto& [key, value] : isolated) {
    if (key.rfind("stats.", 0) == 0) m[key] = value;
  }
  const auto I = [&](const char* key) { return get(isolated, key); };
  for (const char* key : {"shard.run_s", "shard.windows", "shard.exec_s", "shard.outside_s",
                          "shard.fanout_join_s", "shard.straggler_s"}) {
    m[key] = I(key);
  }
  m["shard.imbalance"] = ratio(I("shard.busy_max_s"), I("shard.busy_mean_s"));
  m["shard.events_per_window"] = ratio(I("shard.events"), I("shard.windows"));
  for (const char* key : {"runner.runs", "runner.serial_estimate_s", "runner.max_cell_s",
                          "obs.trace_events", "obs.dropped", "obs.export_s", "obs.analyze_s",
                          "obs.inline_profile_s"}) {
    m[key] = L(key);
  }
  m["runner.parallel_efficiency"] =
      ratio(L("runner.serial_estimate_s"), L("runner.wall_s") * L("runner.jobs"));
  const double untraced = I("rocc.run_untraced_s");
  m["obs.record_s"] = untraced > 0.0 ? L("rocc.run_s") - untraced : 0.0;
  m["obs.record_overhead"] = ratio(L("rocc.run_s"), untraced);
  m["obs.export_mb"] = L("obs.export_bytes") / 1e6;
  m["obs.analyze_meps"] = ratio(L("obs.analyzed_events") / 1e6, L("obs.analyze_s"));
  m["bench.trace_overhead_pct"] = overhead_pct;
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans;
  std::string provenance = "{}";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--provenance") {
      a.provenance = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const auto workload = perfbench::parse_workload(args.workload);
    if (!workload) throw std::invalid_argument("unknown workload '" + args.workload + "'");

    cpu_set_t process_mask;
    CPU_ZERO(&process_mask);
    if (sched_getaffinity(0, sizeof process_mask, &process_mask) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    const std::vector<int> cpu_ids = allowed_cpus(process_mask);
    // A single-threaded job runs wherever the scheduler first put it, and on
    // a shared host one CPU can be much slower than another for tens of
    // seconds.  Those jobs therefore rotate over the allowed CPUs, one CPU
    // per job (per traced/untraced pair in --trace 1), and a sample is the
    // mean of one round over every CPU -- as a multi-threaded job averages
    // over the CPUs by itself -- so the median does not depend on placement.
    const bool rotate = *workload == Workload::Now128Serial || *workload == Workload::TraceProfile;
    const std::size_t round = rotate ? std::max<std::size_t>(1, cpu_ids.size()) : 1;
    const std::size_t round_jobs = args.trace ? 2 * round : round;

    perfbench::SpanLog log;
    perfbench::Context plain;
    plain.seed = args.seed;
    plain.nproc = std::max<std::size_t>(1, cpu_ids.size());
    plain.work_dir = args.work_dir;
    perfbench::Context traced = plain;
    traced.log = &log;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::string> notes;
    std::vector<double> walls, setups, cpus, traced_walls;
    std::map<std::string, double> layer_sums;
    std::size_t traced_jobs = 0;

    const double start = perfbench::now_s();
    const double deadline = start + args.seconds;
    // Untraced runs alternate with traced ones in --trace 1, so both see the
    // same host conditions and their wall difference is the span overhead.
    for (std::size_t i = 0;; ++i) {
      const double now = perfbench::now_s();
      const std::size_t done = walls.size() + traced_walls.size();
      if (now - start > kMaxLoopSeconds) break;
      if (now >= deadline && done >= kMinJobs && done % round_jobs == 0 &&
          (!args.trace || traced_jobs >= 1)) {
        break;
      }
      const bool with_spans = args.trace && i % 2 == 1;
      if (rotate && !cpu_ids.empty()) pin_to(cpu_ids[(args.trace ? i / 2 : i) % cpu_ids.size()]);
      JobResult jr;
      try {
        jr = perfbench::run_job(*workload, with_spans ? traced : plain);
      } catch (const std::exception& e) {
        // A throwing run is a failed run; the rest would throw the same way.
        ++attempted;
        ++failed;
        failures.push_back(std::string("job threw: ") + e.what());
        break;
      }
      attempted += jr.runs;
      failed += jr.failed;
      failures.insert(failures.end(), jr.failures.begin(), jr.failures.end());
      if (notes.empty()) notes = jr.notes;
      if (with_spans) {
        traced_walls.push_back(jr.wall_s);
        ++traced_jobs;
        for (const auto& [k, v] : jr.layer) layer_sums[k] += v;
      } else {
        walls.push_back(jr.wall_s);
        setups.push_back(jr.setup_s);
        cpus.push_back(jr.cpu_s);
      }
      std::fprintf(stderr, "[perfbench] %s job %zu%s: wall %.4f s, setup %.6f s, cpu %.4f s\n",
                   args.workload.c_str(), i, with_spans ? " (traced)" : "", jr.wall_s,
                   jr.setup_s, jr.cpu_s);
    }

    sched_setaffinity(0, sizeof process_mask, &process_mask);

    // Once per invocation, outside the timed jobs.
    std::string why;
    ++attempted;
    try {
      if (!perfbench::invocation_check(*workload, plain, why)) {
        ++failed;
        failures.push_back(why);
      }
    } catch (const std::exception& e) {
      ++failed;
      failures.push_back(std::string("invocation check threw: ") + e.what());
    }

    std::map<std::string, double> metrics;
    if (args.trace) {
      for (auto& [k, v] : layer_sums) v /= static_cast<double>(traced_jobs);
      const auto isolated = perfbench::isolated_layers(*workload, traced);
      const double untraced = median_of_rounds(walls, round);
      const double spanned = median_of_rounds(traced_walls, round);
      const double overhead_pct = untraced > 0.0 ? 100.0 * (spanned - untraced) / untraced : 0.0;
      metrics = per_layer(layer_sums, isolated, overhead_pct);
      std::fprintf(stderr,
                   "[perfbench] benchmark tracing overhead: traced wall %.4f s vs untraced %.4f s "
                   "(%+.2f%%)\n",
                   spanned, untraced, overhead_pct);
      if (!args.spans.empty()) {
        std::ofstream os(args.spans);
        log.write_json(os, args.provenance);
        if (!os) throw std::runtime_error("cannot write " + args.spans);
        std::fprintf(stderr, "[perfbench] wrote %zu spans to %s\n", log.size(),
                     args.spans.c_str());
      }
    } else {
      metrics["wall_s"] = median_of_rounds(walls, round);
      metrics["setup_s"] = median_of_rounds(setups, round);
      metrics["cpu_s"] = median_of_rounds(cpus, round);
      metrics["peak_rss_mb"] = peak_rss_mb();
    }
    for (const auto& note : notes) std::fprintf(stderr, "[perfbench] %s\n", note.c_str());
    for (const auto& f : failures) std::fprintf(stderr, "[perfbench] FAILED %s\n", f.c_str());

    std::ostringstream out;
    out.precision(17);
    out << "{\"workload\":" << json_string(args.workload)
        << ",\"jobs\":" << walls.size() + traced_walls.size() << ",\"attempted\":" << attempted
        << ",\"failed\":" << failed << ",\"notes\":[";
    for (std::size_t i = 0; i < notes.size(); ++i) out << (i ? "," : "") << json_string(notes[i]);
    out << "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i ? "," : "") << json_string(failures[i]);
    }
    out << "],\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      out << (first ? "" : ",") << json_string(name) << ":{\"value\":" << value
          << ",\"unit\":" << json_string(unit_of(name)) << '}';
      first = false;
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
