// Ablation: kernel pipe capacity between the application and its daemon.
//
// DESIGN.md calls out the finite pipe as the mechanism behind the paper's
// Section 4.3.3 observation (blocked applications at small sampling
// periods).  This ablation sweeps the capacity at an aggressive sampling
// rate and shows the blocking regime: small pipes throttle both the
// application and the sample stream; beyond a few batches of headroom the
// effect vanishes.
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("ablation_pipe_capacity", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 3;

  const experiments::Sweep sweep(
      {1, 2, 4, 8, 16, 32, 64, 256}, {"CF", "BF(32)"},
      [](double cap, std::size_t policy) {
        auto c = rocc::SystemConfig::now(1);
        c.duration_us = 5e6;
        c.sampling_period_us = 500.0;  // 2000 samples/s offered: heavy
        c.batch_size = policy == 0 ? 1 : 32;
        c.pipe_capacity = static_cast<std::int32_t>(cap);
        return c;
      },
      kReps);

  std::cout << "=== Ablation: pipe capacity (1 node, SP = 0.5 ms, 5 s simulated) ===\n";
  sweep.print(
      std::cout, "pipe capacity",
      {{"Application CPU utilization (%)",
        experiments::paper_panels()[experiments::kAppUtil].metric},
       {"Samples generated",
        [](const rocc::SimulationResult& r) { return static_cast<double>(r.samples_generated); },
        0},
       {"Samples delivered",
        [](const rocc::SimulationResult& r) { return static_cast<double>(r.samples_delivered); },
        0}});
  std::cout << "\nTiny pipes throttle the sample stream: the application blocks on a\n"
            << "full pipe, so samples generated track the daemon's drain rate instead\n"
            << "of the sampling timer.  Under CF the daemon is the bottleneck at any\n"
            << "capacity; under BF a few batches of headroom recover the full rate.\n"
            << "(With heavy blocking the application spends less time instrumented,\n"
            << "which is precisely the Section 4.3.3 perturbation the pipe model adds.)\n";
  return 0;
}
