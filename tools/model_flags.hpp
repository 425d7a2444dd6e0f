// Model flags shared by roccsim and roccsweep: their rows, declared once,
// and the SystemConfig both tools build from them; roccsim's metrics tick,
// roccsweep's axis values, and the fault-outcome tally both tools print.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "cli_args.hpp"
#include "rocc/config.hpp"
#include "rocc/faults.hpp"

namespace paradyn::tools {

/// The rows of the flags roccsim and roccsweep share — the model (--arch,
/// --nodes, --apps, --daemons, --sampling-ms, --batch, --topology,
/// --seconds, --seed, --shards, --uplink-ms), the runs (--reps, --jobs)
/// and their reports (--progress, --report-json) — then the tool's `own`.
/// --seconds defaults to `default_seconds`, the one default each tool sets.
[[nodiscard]] std::vector<Flag> model_flags(std::string_view default_seconds,
                                            std::initializer_list<Flag> own);

/// The configuration the model flags name.
[[nodiscard]] rocc::SystemConfig model_config(const CliArgs& args);

/// roccsim's --metrics-tick-ms, and its value in simulated us: positive,
/// finite, and at most 1,000,000 probe rows over a run of `duration_us`.
inline constexpr Flag kMetricsTickMs{"metrics-tick-ms", Kind::Number, "X", "100",
                                     "probe period in simulated ms"};
[[nodiscard]] double metrics_tick_us(const CliArgs& args, rocc::SimTime duration_us);

/// roccsweep's --values list for `axis`: every non-empty entry must parse
/// whole as a finite number, and as an int32 on the integer axes (batch,
/// nodes, apps, daemons, pipe).
[[nodiscard]] std::vector<double> parse_values(const std::string& axis, const std::string& csv);

/// Set roccsweep's `axis` of `cfg` to `value` (--axis nodes sets the CPU
/// count on SMP).  Unknown axes throw.
void apply_axis(rocc::SystemConfig& cfg, const std::string& axis, double value);

/// Counts and latency sums over fault-outcome rows: one plan fault across
/// replications, or every fault of a grid row.
struct FaultTally {
  std::size_t rows = 0;
  std::size_t detected = 0;
  std::size_t recovered = 0;
  std::size_t attempted = 0;  ///< Rows a repair action was tried on.
  std::size_t repaired = 0;
  std::size_t gave_up = 0;
  double detection_us = 0.0;
  double recovery_us = 0.0;
  double repair_us = 0.0;   ///< Time to repair, repaired rows.
  double attempts = 0.0;    ///< Repair attempts, attempted rows.
  double backoff_us = 0.0;  ///< Repair backoff, attempted rows.

  void add(const rocc::FaultOutcome& o);
  FaultTally& operator+=(const FaultTally& other);

  /// k / rows; 0 without rows.
  [[nodiscard]] double frac(std::size_t k) const;
  /// sum_us / k in ms; `none` when k is 0.
  [[nodiscard]] static double mean_ms(double sum_us, std::size_t k, double none = -1.0);
};

}  // namespace paradyn::tools
