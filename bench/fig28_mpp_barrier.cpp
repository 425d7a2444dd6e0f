// Figure 28: effect of the frequency of barrier operations in the program
// on the IS metrics and the application.  Paper setup: 256 nodes, sampling
// period 40 ms, BF policy, logarithmic barrier-period scale (we use 64
// nodes for harness speed; the barrier skew effect is already strong).
//
// Metric note: alongside the wall-clock Pd utilization we print the Pd
// share of *occupied* CPU time, which is the quantity that grows when the
// application idles at barriers ("the Paradyn daemon does not have to
// share the CPU time with that application process").
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  using experiments::paper_panels;
  bench::start("fig28_mpp_barrier", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 2;
  constexpr std::int32_t kNodes = 64;

  const experiments::Sweep sweep(
      {5, 10, 50, 100, 1000, 10000}, {"direct", "tree"},
      [](double bp, std::size_t v) {
        auto c = rocc::SystemConfig::mpp(
            kNodes, v == 1 ? rocc::ForwardingTopology::BinaryTree
                           : rocc::ForwardingTopology::Direct);
        c.duration_us = 4e6;
        c.sampling_period_us = 40'000.0;
        c.batch_size = 32;
        c.barrier_period_us = bp * 1'000.0;
        return c;
      },
      kReps);

  std::cout << "=== Figure 28 (MPP, " << kNodes
            << " nodes, SP = 40 ms, BF batch=32, 4 s simulated) ===\n";
  sweep.print(std::cout, "barrier period (ms)",
              {{"Pd share of occupied CPU time (%)",
                [](const rocc::SimulationResult& r) { return r.pd_busy_share_pct; }},
               {"Pd CPU utilization/node (%, wall-clock)",
                paper_panels()[experiments::kPdUtil].metric},
               paper_panels()[experiments::kAppUtil],
               paper_panels()[experiments::kLatencySec]});

  std::cout << "\nPaper's Figure 28: frequent barriers idle the application (its CPU\n"
            << "occupancy falls), so the daemon's share of the occupied CPU rises while\n"
            << "monitoring latency stays flat — barrier frequency perturbs the program,\n"
            << "not the IS data path.\n";
  return 0;
}
