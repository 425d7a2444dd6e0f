// Ablation: CPU scheduling quantum.
//
// Table 2 fixes the quantum at 10 ms.  This ablation sweeps it to show how
// time-slicing granularity shifts the balance between the application's
// long bursts (mean 2.2 ms, max > 10 ms) and the daemon's short requests:
// small quanta help the daemon's latency at a context-granularity cost the
// model does not charge, large quanta make the daemon wait behind whole
// application bursts.
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("ablation_cpu_quantum", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 3;

  const experiments::Sweep sweep({0.5, 1, 2, 5, 10, 20, 50}, {"CF", "BF(32)"},
                                 [](double q, std::size_t policy) {
                                   auto c = rocc::SystemConfig::now(4);
                                   c.duration_us = 5e6;
                                   c.sampling_period_us = 5'000.0;
                                   c.batch_size = policy == 0 ? 1 : 32;
                                   c.cpu_quantum_us = q * 1'000.0;
                                   return c;
                                 },
                                 kReps);

  std::cout << "=== Ablation: CPU scheduling quantum (4 nodes, SP = 5 ms) ===\n";
  sweep.print(std::cout, "quantum (ms)",
              {{"Monitoring latency/sample (ms)", experiments::latency_ms},
               {"Throughput (samples/sec)", experiments::throughput, 1},
               {"Application CPU utilization (%)",
                experiments::paper_panels()[experiments::kAppUtil].metric}});
  std::cout << "\nLatency grows with the quantum (the daemon's sub-millisecond requests\n"
            << "queue behind un-preempted application bursts); the Table 2 value of\n"
            << "10 ms sits where the application's burst distribution is mostly served\n"
            << "in one slice.\n";
  return 0;
}
