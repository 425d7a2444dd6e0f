// Figure 17: local level of detail for the NOW case — Paradyn daemon CPU
// time and data-forwarding throughput under CF and BF (batch = 32).
//   (a) vs sampling period, 8 application processes on the node;
//   (b) vs number of application processes, sampling period = 40 ms.
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

namespace {

paradyn::rocc::SystemConfig base_config(std::size_t policy) {
  // Local level of detail: one node observed in isolation.
  auto c = paradyn::rocc::SystemConfig::now(1);
  c.duration_us = 10e6;
  c.batch_size = policy == 0 ? 1 : 32;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig17_now_local", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 3;
  const std::vector<std::string> names{"CF", "BF(32)"};
  const std::vector<experiments::Panel> panels{
      {"Pd CPU time (sec)", experiments::pd_cpu_time_sec},
      {"Throughput (samples/sec)", experiments::throughput, 1}};

  // (a) sampling-period sweep, 8 app processes.
  const experiments::Sweep a({5, 10, 20, 30, 40, 50}, names, [](double sp, std::size_t policy) {
    auto c = base_config(policy);
    c.app_processes_per_node = 8;
    c.sampling_period_us = sp * 1'000.0;
    return c;
  }, kReps);
  std::cout << "=== Figure 17a (8 application processes, 10 s simulated, " << kReps
            << " reps) ===\n";
  a.print(std::cout, "sampling period (ms)", panels);

  // (b) application-process sweep at 40 ms.
  const experiments::Sweep b({2, 4, 8, 16, 32}, names, [](double apps, std::size_t policy) {
    auto c = base_config(policy);
    c.app_processes_per_node = static_cast<std::int32_t>(apps);
    c.sampling_period_us = 40'000.0;
    return c;
  }, kReps);
  std::cout << "\n=== Figure 17b (sampling period = 40 ms) ===\n";
  b.print(std::cout, "application processes", panels);

  std::cout << "\nAs in the paper: Pd CPU time under BF is a fraction of CF, especially\n"
            << "at short sampling periods and many application processes, because one\n"
            << "system call forwards a whole batch.\n";
  return 0;
}
