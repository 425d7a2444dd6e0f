// Table 6 + Figure 25: 2^4 r factorial simulation experiments for the MPP
// system (direct vs binary-tree forwarding as the fourth factor) and the
// allocation of variation for Pd CPU time and monitoring latency.
#include <iostream>

#include "factorial_common.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("table06_fig25_mpp_factorial", argc, argv, {bench::kJobs});
  using experiments::Factor;

  auto base = rocc::SystemConfig::mpp(2);
  base.duration_us = 15e6;
  constexpr std::size_t kReps = 3;  // 256-node cells are costly; shapes stabilize quickly

  const std::vector<Factor> factors{
      {"nodes", "2", "64",
       [](rocc::SystemConfig& c, bool high) { c.nodes = high ? 64 : 2; }},
      {"sampling period", "5ms", "50ms",
       [](rocc::SystemConfig& c, bool high) {
         c.sampling_period_us = high ? 50'000.0 : 5'000.0;
       }},
      {"policy", "CF(1)", "BF(128)",
       [](rocc::SystemConfig& c, bool high) { c.batch_size = high ? 128 : 1; }},
      {"configuration", "direct", "tree",
       [](rocc::SystemConfig& c, bool high) {
         c.topology = high ? rocc::ForwardingTopology::BinaryTree
                           : rocc::ForwardingTopology::Direct;
       }},
  };

  const experiments::FactorialExperiment exp(base, factors, kReps);

  bench::print_cells(
      exp, {"Pd CPU time/node (sec)", "monitoring latency (ms)"},
      {experiments::pd_cpu_time_sec, experiments::latency_ms},
      "Table 6 — 2^4 factorial simulation results, MPP system (" + std::to_string(kReps) +
          " reps, 15 s simulated; paper uses 256-node cells)");
  std::cout << '\n';
  bench::print_variation(exp, experiments::pd_cpu_time_sec,
                         "Figure 25 — variation explained for Pd CPU time");
  std::cout << '\n';
  bench::print_variation(exp, experiments::latency_ms,
                         "Figure 25 — variation explained for monitoring latency");

  const auto pd = exp.analyze(experiments::pd_cpu_time_sec);
  std::cout << "\nPaper's Figure 25: sampling period (B, 21%) and forwarding policy\n"
            << "(C, 47%) dominate Pd CPU time; here B explains "
            << experiments::fmt(100.0 * pd.effect("B").variation_fraction, 0) << "% and C "
            << experiments::fmt(100.0 * pd.effect("C").variation_fraction, 0)
            << "%, with the network configuration (D) minor — the same ranking.\n";
  return 0;
}
