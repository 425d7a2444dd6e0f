// The injection schedule of a fault plan, as the fault-determinism tests
// replay it against both event queue implementations.
#pragma once

#include <vector>

#include "rocc/faults.hpp"

namespace paradyn::rocc {

/// Injection schedule boundaries (start and end of every window) in
/// declaration order — what Simulation compiles into events.
[[nodiscard]] inline std::vector<SimTime> schedule_points(const FaultPlan& plan) {
  std::vector<SimTime> points;
  points.reserve(plan.faults.size() * 2);
  for (const FaultSpec& f : plan.faults) {
    points.push_back(f.start_us);
    points.push_back(f.end_us());
  }
  return points;
}

}  // namespace paradyn::rocc
