// Figure 26: simulated MPP metrics vs sampling period for direct and
// binary-tree forwarding plus the uninstrumented baseline.  Paper setup:
// 256 nodes, BF policy, logarithmic time scale (we use 64 nodes to keep
// the harness fast; the per-node metrics are node-count-insensitive, see
// fig27 for the node sweep).
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig26_mpp_sampling", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 2;
  constexpr std::int32_t kNodes = 64;

  const experiments::Sweep sweep(
      {1, 2, 4, 8, 16, 32, 64}, {"CF direct", "CF tree", "BF direct", "BF tree", "uninstr."},
      [](double sp, std::size_t v) {
        auto c = rocc::SystemConfig::mpp(
            kNodes, (v == 1 || v == 3) ? rocc::ForwardingTopology::BinaryTree
                                       : rocc::ForwardingTopology::Direct);
        c.duration_us = 4e6;
        c.sampling_period_us = sp * 1'000.0;
        c.batch_size = (v >= 2 && v != 4) ? 32 : 1;
        if (v == 4) c.instrumentation_enabled = false;
        return c;
      },
      kReps);

  std::cout << "=== Figure 26 (MPP, " << kNodes << " nodes, 4 s simulated, " << kReps
            << " reps) ===\n";
  sweep.print(std::cout, "sampling period (ms)", experiments::paper_panels());

  std::cout << "\nPaper's Figure 26: BF's direct overhead is far below CF's at small\n"
            << "sampling periods (fewer forwarding system calls); the direct-vs-tree\n"
            << "choice barely moves the IS CPU time, and BF trades a modest latency\n"
            << "increase for the overhead reduction.\n";
  return 0;
}
