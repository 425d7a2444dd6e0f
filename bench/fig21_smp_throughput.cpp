// Figure 21: use of multiple Paradyn daemons on a shared-memory
// multiprocessor — data forwarding throughput vs number of CPUs (one
// application process per CPU) for 1-4 daemons, under (a) CF and (b) BF
// (batch = 32), at a fixed 40 ms sampling period.
//
// To expose the serial-daemon saturation the paper observes, each
// application process here samples a burst of metrics per period
// (metrics-heavy instrumentation), driving the daemons toward capacity.
#include <algorithm>
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig21_smp_throughput", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 3;

  for (const int batch : {1, 32}) {
    const experiments::Sweep sweep(
        {1, 2, 4, 8, 12, 16}, {"1 Pd", "2 Pds", "3 Pds", "4 Pds"},
        [batch](double n, std::size_t v) {
          const auto ncpus = static_cast<std::int32_t>(n);
          const int daemons = static_cast<int>(v) + 1;
          auto c = rocc::SystemConfig::smp(ncpus, ncpus, std::min(daemons, ncpus));
          c.duration_us = 6e6;
          // Heavy sampling traffic so daemon capacity (not the offered load)
          // limits throughput, as in the paper's experiment.
          c.sampling_period_us = 2'000.0;
          c.batch_size = batch;
          return c;
        },
        kReps);
    std::cout << "=== Figure 21" << (batch == 1 ? "a (CF policy)" : "b (BF policy, batch=32)")
              << " ===\n";
    sweep.print(std::cout, "CPUs (=apps)",
                {{"Throughput of Pd(s) (samples/sec)", experiments::throughput, 1}});
    std::cout << '\n';
  }

  std::cout << "Paper's Figure 21: under CF a single serial daemon saturates as CPUs\n"
            << "(and offered samples) grow, so extra daemons raise throughput; under BF\n"
            << "batching is efficient enough that one daemon suffices.\n";
  return 0;
}
