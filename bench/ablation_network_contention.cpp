// Ablation: shared-Ethernet vs contention-free network for the NOW case.
//
// The paper's NOW figures assume a contention-free network (their
// captions); the architecture description says shared Ethernet.  This
// ablation quantifies the difference: with a single shared server the
// application's own communication saturates the medium well before the
// instrumentation traffic matters.
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("ablation_network_contention", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 2;

  const experiments::Sweep sweep(
      {1, 2, 4, 8, 16, 32}, {"contention-free", "shared Ethernet"},
      [](double n, std::size_t shared) {
        auto c = rocc::SystemConfig::now(static_cast<std::int32_t>(n));
        c.duration_us = 4e6;
        c.batch_size = 32;
        c.contention = shared != 0 ? rocc::NetworkContention::SharedSingleServer
                                   : rocc::NetworkContention::ContentionFree;
        return c;
      },
      kReps);

  std::cout << "=== Ablation: NOW network contention model (SP = 40 ms, BF 32) ===\n";
  sweep.print(std::cout, "nodes",
              {experiments::paper_panels()[experiments::kAppUtil],
               {"Monitoring latency/sample (ms)", experiments::latency_ms},
               {"Network occupancy (% of one server)",
                [](const rocc::SimulationResult& r) { return r.network_util_pct; }}});
  std::cout << "\nOn a real shared Ethernet the application's own messages saturate the\n"
            << "segment near ~10 nodes and application progress collapses — which is\n"
            << "why the paper (and our defaults) evaluate the NOW IS questions on a\n"
            << "contention-free network: they isolate IS effects from medium effects.\n";
  return 0;
}
