// Table 4 + Figure 16: 2^4 r factorial simulation experiments for the NOW
// system and the allocation of variation ("principal component analysis")
// of the Pd CPU time and monitoring latency responses.
//
// Factors (as in the paper): A = number of nodes (2/32), B = sampling
// period (5/50 ms), C = forwarding policy (batch 1/128), D = application
// type (network burst 200 us compute-intensive / 2000 us
// communication-intensive).
#include <iostream>
#include <memory>

#include "bench_json_common.hpp"
#include "factorial_common.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  const std::string json_path =
      bench::start("table04_fig16_now_factorial", argc, argv, {bench::kJobs, bench::kBenchJson});
  const bench::WallTimer wall;
  using experiments::Factor;

  auto base = rocc::SystemConfig::now(2);
  base.duration_us = 15e6;  // paper: 100 s x 50 reps; scaled for CI runs (>= 2 batches at 50ms x 128)
  constexpr std::size_t kReps = 5;

  const std::vector<Factor> factors{
      {"nodes", "2", "32",
       [](rocc::SystemConfig& c, bool high) { c.nodes = high ? 32 : 2; }},
      {"sampling period", "5ms", "50ms",
       [](rocc::SystemConfig& c, bool high) {
         c.sampling_period_us = high ? 50'000.0 : 5'000.0;
       }},
      {"policy", "CF(1)", "BF(128)",
       [](rocc::SystemConfig& c, bool high) { c.batch_size = high ? 128 : 1; }},
      {"app type", "compute", "comm",
       [](rocc::SystemConfig& c, bool high) {
         c.app.net_burst = std::make_shared<stats::Exponential>(high ? 2'000.0 : 200.0);
       }},
  };

  const experiments::FactorialExperiment exp(base, factors, kReps);

  bench::print_cells(
      exp, {"Pd CPU time/node (sec)", "monitoring latency (ms)"},
      {experiments::pd_cpu_time_sec, experiments::latency_ms},
      "Table 4 — 2^4 factorial simulation results, NOW system (" + std::to_string(kReps) +
          " reps, 15 s simulated)");
  std::cout << '\n';
  bench::print_variation(exp, experiments::pd_cpu_time_sec,
                         "Figure 16 — variation explained for Pd CPU time");
  std::cout << '\n';
  bench::print_variation(exp, experiments::latency_ms,
                         "Figure 16 — variation explained for monitoring latency");

  const auto pd = exp.analyze(experiments::pd_cpu_time_sec);
  std::cout << "\nPaper's Figure 16: sampling period (B) dominates Pd CPU time (68%),\n"
            << "followed by the forwarding policy (C, 19%).  Here B explains "
            << experiments::fmt(100.0 * pd.effect("B").variation_fraction, 0)
            << "% and C " << experiments::fmt(100.0 * pd.effect("C").variation_fraction, 0)
            << "%.\n";

  if (!json_path.empty()) {
    // Wall seconds are machine-dependent: tools/bench_compare treats
    // `*_seconds` keys as a coarse collapse guard, not a tight gate.
    bench::write_bench_json(json_path, {{"table04_wall_seconds", wall.seconds()}});
  }
  return 0;
}
