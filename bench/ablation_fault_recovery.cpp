// Ablation / failure injection: a Paradyn daemon stalls mid-run.
//
// A stalled daemon stops draining its pipes; the instrumented application
// blocks on the full pipe (losing CPU progress), and when the daemon
// resumes it must drain the backlog.  This exercises the IS's failure
// behavior — a dimension the paper's steady-state study does not cover —
// and quantifies the blast radius of a sick daemon under CF vs BF.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/table.hpp"
#include "rocc/simulation.hpp"
#include "repro_common.hpp"

int main() {
  paradyn::bench::print_stamp("ablation_fault_recovery");
  using namespace paradyn;

  const std::vector<double> stall_ms{0, 100, 250, 500, 1000};
  const std::vector<std::string> names{"CF", "BF(32)"};
  std::vector<std::vector<double>> generated(2), delivered(2), app_util(2), worst_lat(2);

  for (const double stall : stall_ms) {
    for (int policy = 0; policy < 2; ++policy) {
      auto c = rocc::SystemConfig::now(1);
      c.duration_us = 4e6;
      c.sampling_period_us = 10'000.0;
      c.batch_size = policy == 0 ? 1 : 32;
      c.pipe_capacity = 16;
      c.record_latency_series = true;
      if (stall > 0.0) {
        c.faults = rocc::FaultPlan::parse("daemon_stall:daemon=0,start=1s,dur=" +
                                          std::to_string(static_cast<int>(stall)) + "ms");
      }
      const auto r = rocc::run_simulation(c);
      const auto p = static_cast<std::size_t>(policy);
      generated[p].push_back(static_cast<double>(r.samples_generated));
      delivered[p].push_back(static_cast<double>(r.samples_delivered));
      app_util[p].push_back(r.app_cpu_util_pct);
      worst_lat[p].push_back(r.latency_us.count() ? r.latency_us.max() / 1e3 : 0.0);
    }
  }

  std::cout << "=== Failure injection: daemon stall at t=1s (1 node, SP = 10 ms, 4 s run) ===\n";
  experiments::print_series(std::cout, "Samples generated", "stall (ms)", stall_ms, names,
                            generated, 0);
  experiments::print_series(std::cout, "Samples delivered", "stall (ms)", stall_ms, names,
                            delivered, 0);
  experiments::print_series(std::cout, "Application CPU utilization (%)", "stall (ms)",
                            stall_ms, names, app_util);
  experiments::print_series(std::cout, "Worst-case monitoring latency (ms)", "stall (ms)",
                            stall_ms, names, worst_lat);

  std::cout << "\nThe pipe (16 samples) absorbs ~160 ms of stall before the application\n"
            << "blocks; longer stalls suppress both application progress and sample\n"
            << "generation, and the worst-case monitoring latency grows with the\n"
            << "backlog the resumed daemon must drain.  Recovery is complete in every\n"
            << "case: delivered counts track generated counts after the stall.\n";
  return 0;
}
