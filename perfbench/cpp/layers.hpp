// Per-layer probes the traced benchmark run uses: a timing wrapper around
// the ShardSet executor, and isolated loops over the des and stats layers
// sized from the workload's own model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "des/shard.hpp"
#include "rocc/config.hpp"
#include "spans.hpp"

namespace perfbench {

/// What the executor wrapper saw over one ShardSet::run().
struct ShardTiming {
  std::uint64_t windows = 0;
  double exec_s = 0.0;         ///< Sum of executor-call wall times.
  double fanout_join_s = 0.0;  ///< Sum of (executor wall - slowest body).
  double straggler_s = 0.0;    ///< Sum of (slowest body - mean body).
  std::vector<double> busy_s;  ///< Per-shard sum of body wall times.
  double first_start = -1.0;   ///< Start of the first executor call.
  double last_end = 0.0;       ///< End of the latest executor call.
  double gaps_s = 0.0;         ///< Time between consecutive executor calls.

  /// Time of [run_start, run_end] spent outside executor calls: mailbox
  /// flushes and the serial window loop.  Measured from the gaps, so
  /// outside + exec == run wall only if the spans tile the run.
  [[nodiscard]] double outside_s(double run_start, double run_end) const;
};

/// Wrap `inner` (empty = the serial loop) so every window and every
/// per-shard body in it is timed into `timing` and logged as spans under
/// the span `parent` names when the window runs.  `timing`, `log` and
/// `parent` must outlive the run.
[[nodiscard]] paradyn::des::ShardSet::Executor timed_executor(
    paradyn::des::ShardSet::Executor inner, ShardTiming& timing, SpanLog& log, const int& parent,
    int run);

/// Nanoseconds per event of a des::Engine hold loop (pop one event, push
/// one at an exponential offset) at a steady queue depth of `depth`.
[[nodiscard]] double des_hold_ns(std::size_t depth, std::uint64_t seed);

/// Nanoseconds per draw for each distribution family `config` samples from
/// (FrozenSampler on the config's own distributions), keyed by family name.
[[nodiscard]] std::map<std::string, double> stats_draw_ns(const paradyn::rocc::SystemConfig& config,
                                                          std::uint64_t seed);

}  // namespace perfbench
