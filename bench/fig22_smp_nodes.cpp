// Figure 22: effects of multiple Paradyn daemons vs the number of nodes
// (CPUs) on the SMP system.  Paper setup: sampling period 40 ms, 32
// application processes, shared bus.  The bus becomes the bottleneck at
// large CPU counts, depressing both application and IS CPU time — the
// effect discussed in Section 4.3.3.
#include "smp_common.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig22_smp_nodes", argc, argv, {bench::kJobs});
  const std::vector<double> cpus{2, 4, 8, 16, 32};
  bench::smp_daemon_sweep(
      "Figure 22", cpus, "nodes (CPUs)",
      [](double n, int daemons) {
        auto c = rocc::SystemConfig::smp(static_cast<std::int32_t>(n), 32, daemons);
        c.duration_us = 5e6;
        c.sampling_period_us = 40'000.0;
        return c;
      },
      /*reps=*/3);
  std::cout << "Paper's Figure 22: per-node IS overhead falls with more CPUs while\n"
            << "monitoring latency rises; beyond ~32 CPUs the shared bus saturates and\n"
            << "application CPU time per node collapses under both policies.\n";
  return 0;
}
