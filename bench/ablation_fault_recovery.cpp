// Ablation / failure injection: a Paradyn daemon stalls mid-run.
//
// A stalled daemon stops draining its pipes; the instrumented application
// blocks on the full pipe (losing CPU progress), and when the daemon
// resumes it must drain the backlog.  This exercises the IS's failure
// behavior — a dimension the paper's steady-state study does not cover —
// and quantifies the blast radius of a sick daemon under CF vs BF.
#include <iostream>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("ablation_fault_recovery", argc, argv, {bench::kJobs});

  const experiments::Sweep sweep(
      {0, 100, 250, 500, 1000}, {"CF", "BF(32)"},
      [](double stall, std::size_t policy) {
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
        return c;
      },
      /*replications=*/1);

  std::cout << "=== Failure injection: daemon stall at t=1s (1 node, SP = 10 ms, 4 s run) ===\n";
  sweep.print(
      std::cout, "stall (ms)",
      {{"Samples generated",
        [](const rocc::SimulationResult& r) { return static_cast<double>(r.samples_generated); },
        0},
       {"Samples delivered",
        [](const rocc::SimulationResult& r) { return static_cast<double>(r.samples_delivered); },
        0},
       {"Application CPU utilization (%)",
        experiments::paper_panels()[experiments::kAppUtil].metric},
       {"Worst-case monitoring latency (ms)", [](const rocc::SimulationResult& r) {
          return r.latency_us.count() ? r.latency_us.max() / 1e3 : 0.0;
        }}});

  std::cout << "\nThe pipe (16 samples) absorbs ~160 ms of stall before the application\n"
            << "blocks; longer stalls suppress both application progress and sample\n"
            << "generation, and the worst-case monitoring latency grows with the\n"
            << "backlog the resumed daemon must drain.  Recovery is complete in every\n"
            << "case: delivered counts track generated counts after the stall.\n";
  return 0;
}
