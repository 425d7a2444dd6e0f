// Synthetic SP-2 trace generator.
//
// Substitute for the AIX kernel tracing facility: emits resource-occupancy
// records whose lengths and inter-arrival times are drawn from per-class
// generative models.  The default model reproduces the statistics the paper
// measured for NAS pvmbt on the SP-2 (Tables 1-2), so running the
// characterization pipeline on a generated trace regenerates Table 1/2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/random.hpp"
#include "stats/distributions.hpp"
#include "trace/record.hpp"

namespace paradyn::trace {

/// Generative model for one process class on one node.
struct ProcessTraceModel {
  ProcessClass pclass = ProcessClass::Application;
  /// Length of CPU occupancy requests.
  stats::DistributionPtr cpu_length;
  /// Length of network occupancy requests.
  stats::DistributionPtr net_length;
  /// Inter-arrival of CPU requests.  For the application process the paper
  /// models alternating computation/communication instead (Figure 7); set
  /// `alternating = true` and the generator emits CPU and network intervals
  /// back to back.
  stats::DistributionPtr cpu_interarrival;
  /// Inter-arrival of network requests (ignored when alternating).
  stats::DistributionPtr net_interarrival;
  bool alternating = false;
};

/// Whole-trace generative model: the set of processes active on a node.
struct Sp2TraceModel {
  std::vector<ProcessTraceModel> processes;
  double duration_us = 10e6;  ///< Trace length.

  /// The paper's SP-2 / NAS pvmbt parameterization (Tables 1-2): an
  /// alternating application process plus Paradyn daemon, PVM daemon, other
  /// processes, and the main Paradyn process.
  [[nodiscard]] static Sp2TraceModel paper_pvmbt(double duration_us = 10e6);
};

/// The most records generate_trace will hold: 1 GiB of them.
inline constexpr std::size_t kMaxTraceRecords = (std::size_t{1} << 30) / sizeof(TraceRecord);

/// Generate a trace for `nodes` nodes under `model`, deterministically from
/// `seed`.  Records are returned sorted by timestamp.  A model expected to
/// emit more than kMaxTraceRecords records is rejected before generating.
[[nodiscard]] std::vector<TraceRecord> generate_trace(const Sp2TraceModel& model,
                                                      std::int32_t nodes, std::uint64_t seed);

}  // namespace paradyn::trace
