// Figure 19: simulated effect of the batch size on the NOW system's
// metrics (8 nodes, contention-free network) at sampling periods 1, 40,
// and 64 ms — locating the "knee" of the latency/overhead curves that
// Section 4.2.4 recommends operating near.
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "experiments/table.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig19_now_batchsize", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 3;

  const std::vector<double> batches{1, 2, 4, 8, 16, 32, 64, 128};
  const std::vector<double> periods_ms{1, 40, 64};
  const experiments::Sweep sweep(batches, {"SP=1ms", "SP=40ms", "SP=64ms"},
                                 [&](double b, std::size_t p) {
                                   auto c = rocc::SystemConfig::now(8);
                                   c.duration_us = 6e6;
                                   c.sampling_period_us = periods_ms[p] * 1'000.0;
                                   c.batch_size = static_cast<std::int32_t>(b);
                                   return c;
                                 },
                                 kReps);

  std::cout << "=== Figure 19 (NOW, 8 nodes, 6 s simulated, " << kReps << " reps) ===\n";
  sweep.print(std::cout, "batch size", experiments::paper_panels());

  // Locate the knee at SP = 1 ms: the first batch size whose incremental
  // overhead reduction falls below 10% of the CF -> 2 step.
  const auto curve = sweep.means(experiments::paper_panels()[experiments::kPdUtil].metric)[0];
  std::size_t knee = 1;
  const double first_drop = curve[0] - curve[1];
  for (std::size_t i = 1; i + 1 < curve.size(); ++i) {
    if (curve[i] - curve[i + 1] < 0.1 * first_drop) {
      knee = i;
      break;
    }
  }
  std::cout << "\nSharp super-linear drop from batch 1 -> small batches, then the curve\n"
            << "levels off; at SP = 1 ms the knee is near batch size "
            << experiments::fmt(batches[knee], 0)
            << " — choose a batch near the knee (Section 4.2.4).\n";
  return 0;
}
