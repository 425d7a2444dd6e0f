// Table 5 + Figure 20: 2^4 r factorial simulation experiments for the SMP
// system (number of application processes = number of CPUs) and the
// allocation of variation for IS CPU time and monitoring latency.
#include <iostream>
#include <memory>

#include "factorial_common.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("table05_fig20_smp_factorial", argc, argv, {bench::kJobs});
  using experiments::Factor;

  auto base = rocc::SystemConfig::smp(4, 4, 1);
  base.duration_us = 15e6;
  constexpr std::size_t kReps = 5;

  const std::vector<Factor> factors{
      {"CPUs (=apps)", "4", "16",
       [](rocc::SystemConfig& c, bool high) {
         c.cpus_per_node = high ? 16 : 4;
         c.app_processes_per_node = c.cpus_per_node;
       }},
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
      exp, {"IS CPU time/node (sec)", "monitoring latency (ms)"},
      {experiments::is_cpu_time_sec, experiments::latency_ms},
      "Table 5 — 2^4 factorial simulation results, SMP system (" + std::to_string(kReps) +
          " reps, 15 s simulated)");
  std::cout << '\n';
  bench::print_variation(exp, experiments::is_cpu_time_sec,
                         "Figure 20 — variation explained for IS CPU time");
  std::cout << '\n';
  bench::print_variation(exp, experiments::latency_ms,
                         "Figure 20 — variation explained for monitoring latency");

  std::cout << "\nPaper's Figure 20: the CPU count (A), sampling period (B) and policy\n"
            << "(C) share the explained variation for the SMP responses, with A most\n"
            << "important for IS CPU time and C for latency.\n";
  return 0;
}
