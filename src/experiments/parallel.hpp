// Parallel execution of replicated ROCC simulations.
//
// ParallelRunner fans the independent simulation runs of a replication set
// or a 2^k r factorial out over a ThreadPool.  Every run is seeded exactly
// as the serial path seeds it (seed = base seed + replication index, the
// paper's common-random-numbers pairing), each result lands in a
// preallocated slot keyed by its run index, and worker exceptions are
// rethrown on the caller thread — so results are bit-identical to a serial
// run for any job count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "rocc/simulation.hpp"

namespace paradyn::experiments {

/// Wall/CPU accounting for one parallel run, emitted to stderr by the CLI
/// tools.  `serial_estimate_sec` sums the per-run wall times, i.e. what a
/// one-job run of the same work would roughly have cost.
struct RunReport {
  struct Cell {
    std::size_t replications = 0;
    double wall_sec = 0.0;      ///< Sum of this cell's per-run wall times.
  };

  std::size_t jobs = 1;
  std::size_t runs = 0;              ///< Total simulations executed.
  double wall_sec = 0.0;             ///< Caller-side elapsed time.
  double cpu_sec = 0.0;              ///< Process CPU time consumed.
  double serial_estimate_sec = 0.0;  ///< Sum of per-run wall times.
  std::uint64_t events = 0;          ///< Discrete events executed, all runs.
  std::vector<Cell> cells;

  /// serial_estimate_sec / wall_sec (1.0 when wall time is ~0).
  [[nodiscard]] double speedup_estimate() const noexcept;

  /// One-line human-readable summary of the totals.
  void print(std::ostream& os, std::string_view label) const;
};

/// Process-wide default job count used when a runner (or ReplicationSet /
/// FactorialExperiment) is constructed with jobs = 0.  Setting 0 restores
/// the initial default of one job per hardware thread.
void set_default_jobs(std::size_t jobs) noexcept;
[[nodiscard]] std::size_t default_jobs() noexcept;

/// Process-wide progress/heartbeat stream (typically &std::cerr, enabled by
/// the tools' --progress flag).  While set, every ParallelRunner grid run
/// emits throttled "[sweep] N/M runs ... ev/s ... eta" lines as runs finish.
/// nullptr (the default) disables reporting.
void set_progress_stream(std::ostream* os) noexcept;
[[nodiscard]] std::ostream* progress_stream() noexcept;

/// The one lane rule: each of `workers` concurrent runs fans its shard
/// windows over min(shards, max(1, hardware / workers)) threads.
[[nodiscard]] std::size_t shard_lanes(std::size_t workers, std::size_t shards,
                                      std::size_t hardware) noexcept;

/// Per-run customization hook, applied to each Simulation after
/// construction and before run() — the observability path: attach tracers
/// and metrics probes to chosen runs of a sweep.  Called on worker threads;
/// implementations must be thread-safe across concurrent (cell, rep) pairs.
using RunHook = std::function<void(rocc::Simulation& sim, std::size_t cell, std::size_t rep)>;

class ParallelRunner {
 public:
  /// jobs = 0 picks up default_jobs().  A grid starts min(jobs, runs)
  /// workers; with one it runs inline on the caller thread, no pool.  Runs
  /// of two or more shards get shard_pool_executor on shard_lanes() lanes,
  /// from one pool of workers x (lanes - 1) threads the grid owns.
  explicit ParallelRunner(std::size_t jobs = 0);

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// `n` replications of one configuration, seeds config.seed + 0..n-1,
  /// bit-identical to running them in seed order for every job count.
  [[nodiscard]] std::vector<rocc::SimulationResult> replications(const rocc::SystemConfig& config,
                                                                 std::size_t n);

  /// All cells x replications of a factorial: run r of cell i executes
  /// cell_configs[i] with seed = base_seed + r.  Returns one result vector
  /// per cell, in cell order.
  [[nodiscard]] std::vector<std::vector<rocc::SimulationResult>> cells(
      const std::vector<rocc::SystemConfig>& cell_configs, std::uint64_t base_seed,
      std::size_t replications);

  /// Accounting for the most recent replications()/cells() call.
  [[nodiscard]] const RunReport& report() const noexcept { return report_; }

  /// Install (or clear, with an empty function) the per-run hook.
  void set_run_hook(RunHook hook) { hook_ = std::move(hook); }

 private:
  std::size_t jobs_;
  RunReport report_;
  RunHook hook_;
};

}  // namespace paradyn::experiments
