// Figure 18: global level of detail for the NOW case — four metrics under
// CF, BF (batch = 32), and the uninstrumented baseline.
//   (a) vs number of nodes, sampling period = 40 ms;
//   (b) vs sampling period, 8 nodes.
// Contention-free network, per the paper's figure caption.
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

namespace {

using paradyn::rocc::SystemConfig;

void sweep(const std::vector<double>& xs, const char* x_label, const char* title,
           const std::function<SystemConfig(double)>& make, std::size_t reps) {
  using namespace paradyn;
  const experiments::Sweep s(xs, {"CF", "BF(32)", "uninstrumented"},
                             [&](double x, std::size_t v) {
                               SystemConfig c = make(x);
                               if (v == 2) {
                                 c.instrumentation_enabled = false;
                               } else {
                                 c.batch_size = v == 0 ? 1 : 32;
                               }
                               return c;
                             },
                             reps);
  std::cout << "=== Figure 18 (" << title << ") ===\n";
  s.print(std::cout, x_label, experiments::paper_panels());
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig18_now_global", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 3;

  sweep({2, 4, 8, 16, 32}, "nodes", "a: sampling period = 40 ms", [](double nodes) {
    auto c = rocc::SystemConfig::now(static_cast<std::int32_t>(nodes));
    c.sampling_period_us = 40'000.0;
    c.duration_us = 8e6;
    return c;
  }, kReps);

  sweep({1, 2, 4, 8, 16, 32, 64}, "sampling period (ms)", "b: 8 nodes", [](double sp) {
    auto c = rocc::SystemConfig::now(8);
    c.sampling_period_us = sp * 1'000.0;
    c.duration_us = 8e6;
    return c;
  }, kReps);

  std::cout << "Paper's Figure 18 shapes: per-node direct overhead is flat in the node\n"
            << "count but BF's is consistently lower; latency and main-process load are\n"
            << "lower under BF; at millisecond sampling periods CF's overhead explodes.\n";
  return 0;
}
