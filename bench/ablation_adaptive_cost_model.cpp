// Extension: Paradyn's dynamic (adaptive) cost model in the loop.
//
// The paper's Section 6/7 point to regulating IS overheads against
// user-specified tolerable limits (implemented in Paradyn as the dynamic
// cost model, reference [12]).  This harness runs the regulator inside the
// ROCC simulator: starting from an aggressive 1 ms sampling period, the
// controller walks the period until the direct IS overhead fits the
// budget.  The trajectory and the fixed-vs-adaptive comparison are shown
// for three budgets.
#include <iostream>
#include <vector>

#include "experiments/table.hpp"
#include "rocc/simulation.hpp"
#include "repro_common.hpp"

int main() {
  paradyn::bench::print_stamp("ablation_adaptive_cost_model");
  using namespace paradyn;
  using experiments::fmt;

  const auto run = [](double budget_pct, bool adaptive) {
    auto c = rocc::SystemConfig::now(4);
    c.duration_us = 30e6;
    c.sampling_period_us = 4'000.0;
    c.regulator.scope = adaptive ? rocc::RegulatorScope::Global : rocc::RegulatorScope::Off;
    c.regulator.budget_pct = budget_pct;
    c.regulator.adjust_interval_us = 250'000.0;
    c.regulator.min_period_us = 500.0;
    c.regulator.max_period_us = 500'000.0;
    return rocc::run_simulation(c);
  };

  // Controller trajectory under a 2% budget.
  {
    const auto r = run(2.0, true);
    experiments::TablePrinter traj(
        "Adaptive cost model trajectory (budget 2%, initial period 4 ms)",
        {"t (s)", "observed IS overhead (%)", "sampling period (ms)"});
    for (std::size_t i = 0; i < r.cost_adjustments.size(); i += 8) {
      const auto& a = r.cost_adjustments[i];
      traj.add_row({fmt(a.at_us / 1e6, 2), fmt(a.observed_overhead_pct, 2),
                    fmt(a.new_period_us / 1e3, 2)});
    }
    traj.print(std::cout);
    std::cout << '\n';
  }

  experiments::TablePrinter cmp(
      "Fixed 4 ms sampling vs adaptive regulation (30 s, 4-node NOW, CF)",
      {"budget (%)", "mode", "samples", "Pd CPU/node (ms)", "app util (%)",
       "final period (ms)"});
  for (const double budget : {0.5, 2.0, 10.0}) {
    const auto rf = run(budget, false);
    const auto ra = run(budget, true);
    cmp.add_row({fmt(budget, 1), "fixed", fmt(static_cast<double>(rf.samples_generated), 0),
                 fmt(rf.pd_cpu_time_per_node_us / 1e3, 1), fmt(rf.app_cpu_util_pct, 1), "4.00"});
    cmp.add_row({fmt(budget, 1), "adaptive", fmt(static_cast<double>(ra.samples_generated), 0),
                 fmt(ra.pd_cpu_time_per_node_us / 1e3, 1), fmt(ra.app_cpu_util_pct, 1),
                 fmt(ra.final_sampling_period_us / 1e3, 2)});
  }
  cmp.print(std::cout);

  std::cout << "\nTighter budgets drive the period higher; the regulator trades data\n"
            << "rate for bounded perturbation, returning the CPU to the application —\n"
            << "the feedback loop Paradyn ships as its dynamic cost model.\n";
  return 0;
}
