#include "experiments/report_json.hpp"

#include <ostream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/json_writer.hpp"

namespace paradyn::experiments {
namespace {

// Shared writer helpers (also used by --metrics-json and roccprof --json),
// so every JSON document formats numbers/strings identically.
using util::json::number;
using util::json::Obj;
using util::json::quoted;

void summary_json(std::ostream& os, const stats::SummaryStats& s, int indent) {
  Obj o(os, indent);
  o.key("count") << s.count();
  o.key("mean");
  number(os, s.mean());
  o.key("stddev");
  number(os, s.stddev());
  o.key("min");
  number(os, s.min());
  o.key("max");
  number(os, s.max());
  o.close();
}

}  // namespace

void write_result_json(std::ostream& os, const rocc::SimulationResult& r, int indent) {
  Obj o(os, indent);
  o.key("duration_us");
  number(os, r.duration_us);
  o.key("nodes") << r.nodes;
  o.key("cpus_per_node") << r.cpus_per_node;

  o.key("app_cpu_time_per_node_us");
  number(os, r.app_cpu_time_per_node_us);
  o.key("pd_cpu_time_per_node_us");
  number(os, r.pd_cpu_time_per_node_us);
  o.key("pvmd_cpu_time_per_node_us");
  number(os, r.pvmd_cpu_time_per_node_us);
  o.key("other_cpu_time_per_node_us");
  number(os, r.other_cpu_time_per_node_us);
  o.key("main_cpu_time_us");
  number(os, r.main_cpu_time_us);

  o.key("app_cpu_util_pct");
  number(os, r.app_cpu_util_pct);
  o.key("pd_cpu_util_pct");
  number(os, r.pd_cpu_util_pct);
  o.key("main_cpu_util_pct");
  number(os, r.main_cpu_util_pct);
  o.key("is_cpu_util_pct");
  number(os, r.is_cpu_util_pct);
  o.key("pd_busy_share_pct");
  number(os, r.pd_busy_share_pct);
  o.key("network_util_pct");
  number(os, r.network_util_pct);

  o.key("latency_us");
  summary_json(os, r.latency_us, indent + 2);

  o.key("samples_generated") << r.samples_generated;
  o.key("samples_delivered") << r.samples_delivered;
  o.key("batches_delivered") << r.batches_delivered;
  o.key("throughput_samples_per_sec");
  number(os, r.throughput_samples_per_sec);
  o.key("events_processed") << r.events_processed;

  o.key("barrier_rounds") << r.barrier_rounds;
  o.key("barrier_wait_us");
  number(os, r.barrier_wait_us);
  o.key("final_sampling_period_us");
  number(os, r.final_sampling_period_us);

  // Fault-injection and throttle blocks are emitted only when populated,
  // so fault-free reports are byte-identical to the pre-fault format.
  if (r.samples_dropped != 0 || !r.fault_outcomes.empty()) {
    o.key("samples_dropped") << r.samples_dropped;
  }
  if (!r.fault_outcomes.empty()) {
    o.key("faults") << '[';
    for (std::size_t f = 0; f < r.fault_outcomes.size(); ++f) {
      const auto& fo = r.fault_outcomes[f];
      if (f != 0) os << ", ";
      os << "{\"spec\": ";
      quoted(os, fo.spec.describe());
      os << ", \"type\": ";
      quoted(os, rocc::to_string(fo.spec.type));
      os << ", \"target\": " << fo.spec.target;
      os << ", \"start_us\": ";
      number(os, fo.spec.start_us);
      os << ", \"duration_us\": ";
      number(os, fo.spec.duration_us);
      os << ", \"magnitude\": ";
      number(os, fo.spec.magnitude);
      os << ", \"injected\": " << (fo.injected ? "true" : "false");
      os << ", \"detected\": " << (fo.detected ? "true" : "false");
      os << ", \"detection_latency_us\": ";
      number(os, fo.detection_latency_us);
      os << ", \"recovered\": " << (fo.recovered ? "true" : "false");
      os << ", \"recovery_latency_us\": ";
      number(os, fo.recovery_latency_us);
      // The cascade marker appears only on induced rows, so fault reports
      // from cascade-free runs keep the pre-cascade byte layout.
      if (fo.cascaded_from >= 0) {
        os << ", \"cascaded_from\": " << fo.cascaded_from;
      }
      os << '}';
    }
    os << ']';
    // The repairs[] block is emitted only when a repair policy was armed,
    // so repair-free fault reports are byte-identical to the pre-repair
    // format.  One entry per plan fault with at least one attempt.
    bool any_repair = false;
    for (const auto& fo : r.fault_outcomes) any_repair |= fo.repair_attempted;
    if (any_repair) {
      o.key("repairs") << '[';
      bool first_repair = true;
      for (std::size_t f = 0; f < r.fault_outcomes.size(); ++f) {
        const auto& fo = r.fault_outcomes[f];
        if (!fo.repair_attempted) continue;
        if (!first_repair) os << ", ";
        first_repair = false;
        os << "{\"fault\": " << f;
        os << ", \"attempts\": " << fo.repair_attempts;
        os << ", \"repaired\": " << (fo.repaired ? "true" : "false");
        os << ", \"gave_up\": " << (fo.gave_up ? "true" : "false");
        os << ", \"time_to_repair_us\": ";
        number(os, fo.time_to_repair_us);
        os << ", \"backoff_us\": ";
        number(os, fo.repair_backoff_us);
        os << '}';
      }
      os << ']';
    }
  }
  if (!r.throttle_factors.empty()) {
    o.key("throttle_factors") << '[';
    for (std::size_t t = 0; t < r.throttle_factors.size(); ++t) {
      if (t != 0) os << ", ";
      number(os, r.throttle_factors[t]);
    }
    os << ']';
    o.key("max_throttle_factor");
    number(os, r.max_throttle_factor);
    o.key("throttle_adjustments") << r.throttle_adjustments;
  }

  o.key("per_node") << '[';
  for (std::size_t n = 0; n < r.per_node.size(); ++n) {
    const auto& nb = r.per_node[n];
    if (n != 0) os << ", ";
    os << "{\"node\": " << nb.node << ", \"app_cpu_us\": ";
    number(os, nb.app_cpu_us);
    os << ", \"pd_cpu_us\": ";
    number(os, nb.pd_cpu_us);
    os << ", \"pvmd_cpu_us\": ";
    number(os, nb.pvmd_cpu_us);
    os << ", \"other_cpu_us\": ";
    number(os, nb.other_cpu_us);
    os << ", \"main_cpu_us\": ";
    number(os, nb.main_cpu_us);
    os << '}';
  }
  os << ']';
  o.close();
}

void write_report_json(std::ostream& os, const obs::ReproStamp& stamp,
                       const std::vector<rocc::SimulationResult>& results,
                       const RunReport* report, const obs::ProfileReport* profile) {
  Obj doc(os, 0);

  doc.key("stamp");
  {
    Obj s(os, 2);
    s.key("tool");
    quoted(os, stamp.tool);
    if (!stamp.config.empty()) {
      s.key("config");
      quoted(os, stamp.config);
    }
    if (stamp.has_seed) s.key("seed") << stamp.seed;
    if (stamp.jobs != 0) s.key("jobs") << stamp.jobs;
    if (!stamp.extra.empty()) {
      s.key("extra");
      quoted(os, stamp.extra);
    }
    s.key("git");
    quoted(os, obs::git_describe());
    s.close();
  }

  doc.key("results") << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "    ";
    write_result_json(os, results[i], 4);
    if (i + 1 < results.size()) os << ',';
    os << '\n';
  }
  os << "  ]";

  if (report != nullptr) {
    doc.key("parallel");
    Obj p(os, 2);
    p.key("jobs") << report->jobs;
    p.key("runs") << report->runs;
    p.key("wall_sec");
    number(os, report->wall_sec);
    p.key("cpu_sec");
    number(os, report->cpu_sec);
    p.key("serial_estimate_sec");
    number(os, report->serial_estimate_sec);
    p.key("speedup_estimate");
    number(os, report->speedup_estimate());
    p.key("events") << report->events;
    p.close();
  }

  // Emitted only under --profile, so profiling-off reports stay
  // byte-identical to the pre-profiler format.
  if (profile != nullptr) {
    obs::write_hypotheses_json(doc.key("bottlenecks"), *profile);
    obs::write_hop_json(doc.key("dominant_hop"), profile->dominant_hop);
  }

  doc.close();
  os << '\n';
}

void write_metrics_json(std::ostream& os, const obs::MetricsRegistry& metrics) {
  Obj doc(os, 0);

  doc.key("columns") << "[";
  const auto& columns = metrics.column_names();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    os << (i > 0 ? ", " : "");
    quoted(os, columns[i]);
  }
  os << "]";

  doc.key("rows") << "[";
  for (std::size_t i = 0; i < metrics.rows(); ++i) {
    const auto [t, values] = metrics.row(i);
    os << (i > 0 ? "," : "") << "\n    [";
    number(os, t);
    for (const double v : *values) {
      os << ", ";
      number(os, v);
    }
    os << "]";
  }
  os << (metrics.rows() == 0 ? "]" : "\n  ]");

  doc.close();
  os << '\n';
}

}  // namespace paradyn::experiments
