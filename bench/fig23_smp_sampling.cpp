// Figure 23: effects of multiple Paradyn daemons vs the sampling period on
// the SMP system.  Paper setup: 16 nodes (CPUs), 32 application processes.
// At millisecond sampling periods the per-app pipes fill and block the
// application — the effect is strongest with a single daemon (Section
// 4.3.3's pipe discussion).
#include "smp_common.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig23_smp_sampling", argc, argv, {bench::kJobs});
  const std::vector<double> periods_ms{1, 2, 5, 10, 20, 40, 64};
  bench::smp_daemon_sweep(
      "Figure 23", periods_ms, "sampling period (ms)",
      [](double sp, int daemons) {
        auto c = rocc::SystemConfig::smp(16, 32, daemons);
        c.duration_us = 5e6;
        c.sampling_period_us = sp * 1'000.0;
        c.pipe_capacity = 32;  // small kernel buffer, as on the SP-2
        return c;
      },
      /*reps=*/3);
  std::cout << "Paper's Figure 23: daemon count barely matters above ~10 ms sampling\n"
            << "periods; below that, pipes fill, the application blocks (its CPU time\n"
            << "drops, most sharply with one daemon), and BF clearly beats CF.\n";
  return 0;
}
