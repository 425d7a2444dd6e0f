// Bit-identity of two simulation results, as the determinism suites (across
// --shards and across --jobs) check it: every field the report serializes,
// as one write_result_json document, plus the raw doubles JSON could in
// principle round.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "experiments/report_json.hpp"
#include "rocc/simulation.hpp"

namespace paradyn::rocc {

[[nodiscard]] inline std::string result_json(const SimulationResult& r) {
  std::ostringstream os;
  experiments::write_result_json(os, r);
  return os.str();
}

inline void expect_bit_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(result_json(a), result_json(b));
  EXPECT_EQ(a.samples_generated, b.samples_generated);
  EXPECT_EQ(a.samples_delivered, b.samples_delivered);
  EXPECT_EQ(a.batches_delivered, b.batches_delivered);
  EXPECT_EQ(a.samples_dropped, b.samples_dropped);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_DOUBLE_EQ(a.latency_us.mean(), b.latency_us.mean());
  EXPECT_DOUBLE_EQ(a.latency_us.max(), b.latency_us.max());
  EXPECT_DOUBLE_EQ(a.app_cpu_time_per_node_us, b.app_cpu_time_per_node_us);
  EXPECT_DOUBLE_EQ(a.pd_cpu_time_per_node_us, b.pd_cpu_time_per_node_us);
  EXPECT_DOUBLE_EQ(a.pvmd_cpu_time_per_node_us, b.pvmd_cpu_time_per_node_us);
  EXPECT_DOUBLE_EQ(a.other_cpu_time_per_node_us, b.other_cpu_time_per_node_us);
  EXPECT_DOUBLE_EQ(a.main_cpu_time_us, b.main_cpu_time_us);
  EXPECT_DOUBLE_EQ(a.network_util_pct, b.network_util_pct);
  EXPECT_EQ(a.latency_series_us, b.latency_series_us);
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t n = 0; n < a.per_node.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_DOUBLE_EQ(a.per_node[n].app_cpu_us, b.per_node[n].app_cpu_us);
    EXPECT_DOUBLE_EQ(a.per_node[n].pd_cpu_us, b.per_node[n].pd_cpu_us);
    EXPECT_DOUBLE_EQ(a.per_node[n].pvmd_cpu_us, b.per_node[n].pvmd_cpu_us);
    EXPECT_DOUBLE_EQ(a.per_node[n].other_cpu_us, b.per_node[n].other_cpu_us);
    EXPECT_DOUBLE_EQ(a.per_node[n].main_cpu_us, b.per_node[n].main_cpu_us);
  }
  ASSERT_EQ(a.fault_outcomes.size(), b.fault_outcomes.size());
  for (std::size_t f = 0; f < a.fault_outcomes.size(); ++f) {
    SCOPED_TRACE("fault " + std::to_string(f));
    EXPECT_EQ(a.fault_outcomes[f].injected, b.fault_outcomes[f].injected);
    EXPECT_EQ(a.fault_outcomes[f].cascaded_from, b.fault_outcomes[f].cascaded_from);
    EXPECT_DOUBLE_EQ(a.fault_outcomes[f].spec.start_us, b.fault_outcomes[f].spec.start_us);
    EXPECT_DOUBLE_EQ(a.fault_outcomes[f].spec.duration_us, b.fault_outcomes[f].spec.duration_us);
  }
  EXPECT_EQ(a.throttle_factors, b.throttle_factors);
  EXPECT_DOUBLE_EQ(a.max_throttle_factor, b.max_throttle_factor);
  EXPECT_EQ(a.throttle_adjustments, b.throttle_adjustments);
}

}  // namespace paradyn::rocc
