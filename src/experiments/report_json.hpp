// Machine-readable run reports (--report-json).
//
// Serializes the full SimulationResult of every run — not just the handful
// of columns a figure needs — plus the parallel wall/CPU/speedup accounting
// and a reproducibility stamp, so downstream analysis never has to re-run a
// sweep to recover a metric the CSV omitted.
#pragma once

#include <iosfwd>
#include <vector>

#include "experiments/parallel.hpp"
#include "obs/repro.hpp"
#include "rocc/metrics.hpp"

namespace paradyn::obs {
class MetricsRegistry;
struct ProfileReport;
}  // namespace paradyn::obs

namespace paradyn::experiments {

/// One SimulationResult as a JSON object (no trailing newline).  `indent`
/// is the number of leading spaces applied to every line.
void write_result_json(std::ostream& os, const rocc::SimulationResult& r, int indent = 0);

/// Complete report document:
///   {"stamp": {...}, "results": [...], "parallel": {...}, "bottlenecks": [...]}
/// `report` may be null (single direct run, no runner accounting).
/// `profile` may be null (no --profile); when set, the profiler's W3
/// hypothesis findings are appended as a "bottlenecks" array plus the
/// dominant lifecycle hop — absent otherwise, keeping profiling-off
/// reports byte-identical to the previous format.
void write_report_json(std::ostream& os, const obs::ReproStamp& stamp,
                       const std::vector<rocc::SimulationResult>& results,
                       const RunReport* report, const obs::ProfileReport* profile = nullptr);

/// The metrics registry as structured JSON (--metrics-json): the probe
/// columns and rows, mirroring MetricsRegistry's CSV.
void write_metrics_json(std::ostream& os, const obs::MetricsRegistry& metrics);

}  // namespace paradyn::experiments
