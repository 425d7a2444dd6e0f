// Model flags shared by roccsim and roccsweep: the SystemConfig both tools
// build from the same spellings, roccsim's metrics tick, roccsweep's axis
// values, and the fault-outcome tally both tools print.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "rocc/config.hpp"
#include "rocc/faults.hpp"

namespace paradyn::tools {

/// The configuration named by --arch, --nodes, --apps, --daemons,
/// --topology, --sampling-ms, --batch, --seconds (default
/// `default_seconds`), --seed, --shards and --uplink-ms.
[[nodiscard]] rocc::SystemConfig model_config(const CliArgs& args, double default_seconds);

/// roccsim's --metrics-tick-ms (default 100) in simulated us.  It must be
/// positive and finite, and record at most 1,000,000 probe rows over a run
/// of `duration_us`.
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
