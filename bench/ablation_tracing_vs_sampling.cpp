// Ablation: sampling-based vs trace-based data collection.
//
// Paradyn's design goal is "detailed, flexible performance information
// without incurring the space and time overheads typically associated with
// trace-based tools" (Section 2).  This ablation quantifies that: the same
// system under timer-driven sampling vs per-event tracing (one record per
// computation/communication cycle), across sampling periods.
#include <iostream>
#include <vector>

#include "experiments/runner.hpp"
#include "rocc/config.hpp"
#include "repro_common.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  using experiments::paper_panels;
  bench::start("ablation_tracing_vs_sampling", argc, argv, {bench::kJobs});
  constexpr std::size_t kReps = 3;

  const experiments::Sweep sweep(
      {5, 10, 20, 40, 64}, {"sampling CF", "sampling BF(32)", "tracing CF", "tracing BF(32)"},
      [](double sp, std::size_t v) {
        auto c = rocc::SystemConfig::now(4);
        c.duration_us = 5e6;
        c.sampling_period_us = sp * 1'000.0;
        c.batch_size = (v % 2 == 1) ? 32 : 1;
        c.instrumentation_mode =
            v >= 2 ? rocc::InstrumentationMode::Tracing : rocc::InstrumentationMode::Sampling;
        return c;
      },
      kReps);

  std::cout << "=== Ablation: sampling vs tracing instrumentation (NOW, 4 nodes) ===\n";
  sweep.print(std::cout, "sampling period (ms)",
              {{"Data volume (records/sec, whole system)",
                [](const rocc::SimulationResult& r) {
                  return static_cast<double>(r.samples_generated) / (r.duration_us / 1e6);
                },
                0},
               paper_panels()[experiments::kPdUtil], paper_panels()[experiments::kAppUtil]});
  std::cout << "\nTracing volume is set by the application's event rate (~cycles/sec),\n"
            << "not the sampling period, so its overhead neither shrinks with longer\n"
            << "periods nor stays bounded on busier programs — the cost profile that\n"
            << "motivated Paradyn's periodic-sampling IS.  Batching (BF) softens but\n"
            << "does not remove the gap.\n";
  return 0;
}
