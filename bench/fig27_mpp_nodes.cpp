// Figure 27: simulated MPP metrics vs number of nodes, direct vs
// binary-tree forwarding.  Paper setup: sampling period 40 ms, BF policy
// (batch = 32), logarithmic horizontal scale up to 256 nodes.
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig27_mpp_nodes", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 2;

  const experiments::Sweep sweep(
      {2, 4, 8, 16, 32, 64, 128, 256}, {"direct", "tree", "uninstr."},
      [](double n, std::size_t v) {
        auto c = rocc::SystemConfig::mpp(
            static_cast<std::int32_t>(n),
            v == 1 ? rocc::ForwardingTopology::BinaryTree : rocc::ForwardingTopology::Direct);
        c.duration_us = 4e6;
        c.sampling_period_us = 40'000.0;
        c.batch_size = 32;
        if (v == 2) c.instrumentation_enabled = false;
        return c;
      },
      kReps);

  std::cout << "=== Figure 27 (MPP, SP = 40 ms, BF batch=32, 4 s simulated) ===\n";
  sweep.print(std::cout, "nodes", experiments::paper_panels());

  std::cout << "\nPaper's Figure 27: direct and tree forwarding deliver similar latency,\n"
            << "but tree forwarding costs more per-node Pd CPU (merge work at interior\n"
            << "nodes) while relieving the main process as the system scales.\n";
  return 0;
}
