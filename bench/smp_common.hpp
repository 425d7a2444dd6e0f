// Shared sweep driver for the SMP figures 22-24: four metrics as a
// function of one swept parameter, for 1-4 Paradyn daemons, under CF and
// BF, plus an uninstrumented baseline where meaningful.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"

namespace paradyn::bench {

/// For each policy (CF, BF batch 32) print IS utilization, latency, and
/// application utilization vs `xs`, one series per daemon count 1..4 plus
/// an uninstrumented reference (one daemon, default batch).
inline void smp_daemon_sweep(const std::string& figure, const std::vector<double>& xs,
                             const std::string& x_label,
                             const std::function<rocc::SystemConfig(double, int)>& make,
                             std::size_t reps) {
  using experiments::paper_panels;
  for (const int batch : {1, 32}) {
    const experiments::Sweep sweep(xs, {"1 Pd", "2 Pds", "3 Pds", "4 Pds", "uninstr."},
                                   [&](double x, std::size_t v) {
                                     if (v == 4) {
                                       auto c = make(x, 1);
                                       c.instrumentation_enabled = false;
                                       return c;
                                     }
                                     auto c = make(x, static_cast<int>(v) + 1);
                                     c.batch_size = batch;
                                     return c;
                                   },
                                   reps);
    std::cout << "=== " << figure << (batch == 1 ? "a (CF policy)" : "b (BF policy, batch=32)")
              << " ===\n";
    sweep.print(std::cout, x_label,
                {{"IS CPU utilization/node (%)",
                  [](const rocc::SimulationResult& r) { return r.is_cpu_util_pct; }},
                 paper_panels()[experiments::kLatencySec],
                 paper_panels()[experiments::kAppUtil]});
    std::cout << '\n';
  }
}

}  // namespace paradyn::bench
