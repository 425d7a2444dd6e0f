// Figure 24: effects of multiple Paradyn daemons vs the number of
// application processes on the SMP system.  Paper setup: sampling period
// 40 ms, 16 nodes (CPUs).
#include "smp_common.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  bench::start("fig24_smp_appprocs", argc, argv, {bench::kJobs});
  const std::vector<double> apps{4, 8, 16, 32, 64};
  bench::smp_daemon_sweep(
      "Figure 24", apps, "application processes",
      [](double a, int daemons) {
        auto c = rocc::SystemConfig::smp(16, static_cast<std::int32_t>(a), daemons);
        c.duration_us = 5e6;
        c.sampling_period_us = 40'000.0;
        return c;
      },
      /*reps=*/3);
  std::cout << "Paper's Figure 24: IS load grows with the number of instrumented\n"
            << "processes; BF keeps both the overhead and the latency growth flat\n"
            << "compared to CF.\n";
  return 0;
}
