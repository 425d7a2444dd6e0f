// Replication, one-factor sweep and 2^k r factorial runners coupling the
// ROCC simulator to the statistics library (Section 4.1 of the paper).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "experiments/parallel.hpp"
#include "rocc/simulation.hpp"
#include "stats/confidence.hpp"
#include "stats/factorial.hpp"

namespace paradyn::experiments {

/// Extracts one scalar metric from a finished simulation.
using MetricFn = std::function<double(const rocc::SimulationResult&)>;

/// A set of independent replications of one configuration.
class ReplicationSet {
 public:
  /// Run `replications` simulations (seeds seed, seed+1, ...) across `jobs`
  /// worker threads (0 = the process-wide default_jobs(), 1 = serial).
  /// Results are bit-identical for every job count.  `hook` (optional) is
  /// applied to every Simulation before it runs — the observability path
  /// for attaching tracers/metrics; it must be thread-safe for jobs > 1.
  ReplicationSet(const rocc::SystemConfig& config, std::size_t replications,
                 std::size_t jobs = 0, RunHook hook = {});

  /// Confidence interval of a metric over the replications (the paper uses
  /// 90% intervals).  With a single replication there is no dispersion
  /// estimate, so the interval degenerates to half_width = 0 around the one
  /// observation.
  [[nodiscard]] stats::ConfidenceInterval metric(const MetricFn& fn, double level = 0.90) const;

  [[nodiscard]] const std::vector<rocc::SimulationResult>& results() const noexcept {
    return results_;
  }

  /// Wall/CPU accounting for the runs (for the tools' stderr report).
  [[nodiscard]] const RunReport& report() const noexcept { return report_; }

 private:
  std::vector<rocc::SimulationResult> results_;
  RunReport report_;
};

/// One panel of a figure: a title, the per-run metric it plots and the
/// decimals it prints with.
struct Panel {
  std::string title;
  MetricFn metric;
  int digits = 4;
};

/// A one-factor sweep over replicated runs — the shape of the paper's
/// simulation figures: every (variant, x) configuration runs `replications`
/// times as one ParallelRunner grid, run r of every cell with seed
/// base seed + r (common random numbers, as a ReplicationSet per point
/// seeds them), so results are bit-identical for every job count.
class Sweep {
 public:
  /// Builds the configuration of one (x, variant) point.
  using MakeFn = std::function<rocc::SystemConfig(double x, std::size_t variant)>;

  /// Runs every point across `jobs` worker threads (0 = default_jobs()).
  /// `hook` sees cell = x index * variants + variant.  Every configuration
  /// must carry the same seed.
  Sweep(std::vector<double> xs, std::vector<std::string> variants, const MakeFn& make,
        std::size_t replications, std::size_t jobs = 0, RunHook hook = {});

  /// means(fn)[v][i]: the mean of `fn` over the runs of variant v at xs[i],
  /// accumulated as ReplicationSet::metric accumulates its mean.
  [[nodiscard]] std::vector<std::vector<double>> means(const MetricFn& fn) const;

  /// One print_series block per panel: x rows, one column per variant.
  void print(std::ostream& os, const std::string& x_label, const std::vector<Panel>& panels) const;

  /// Every run, x-major, then variant, then replication.
  [[nodiscard]] std::vector<rocc::SimulationResult> runs() const;

  /// Wall/CPU accounting for the runs (for the tools' stderr report).
  [[nodiscard]] const RunReport& report() const noexcept { return report_; }

 private:
  std::vector<double> xs_;
  std::vector<std::string> variants_;
  std::vector<std::vector<rocc::SimulationResult>> cells_;  ///< [x * variants + v][rep]
  RunReport report_;
};

/// The four panels of Figures 18, 19, 26 and 27, in print order: Pd, main
/// and application CPU utilization (%) and the monitoring latency in
/// seconds.  Other figures pick entries by these indices.
enum PaperPanel : std::size_t { kPdUtil, kMainUtil, kAppUtil, kLatencySec };
[[nodiscard]] const std::vector<Panel>& paper_panels();

/// One two-level factor of a factorial experiment: a name plus a mutator
/// that sets the configuration to the factor's low or high level.
struct Factor {
  std::string name;
  std::string low_label;
  std::string high_label;
  std::function<void(rocc::SystemConfig&, bool high)> apply;
};

/// Raw responses of one factorial cell (used to print Tables 4-6).
struct FactorialCell {
  unsigned mask = 0;                          ///< Bit i set = factor i high.
  rocc::SystemConfig config;                  ///< The fully-applied config.
  std::vector<rocc::SimulationResult> runs;   ///< r replications.

  [[nodiscard]] double mean(const MetricFn& fn) const;
};

/// Complete 2^k r factorial experiment over the simulator.
class FactorialExperiment {
 public:
  /// Runs all 2^k cells with `replications` runs each, fanned out over
  /// `jobs` worker threads (0 = default_jobs(), 1 = serial).  Every cell
  /// rep uses seed base.seed + rep so paired comparisons share random
  /// streams; results are bit-identical for every job count.  `hook`
  /// (optional) is applied to every Simulation before it runs; it must be
  /// thread-safe for jobs > 1.
  FactorialExperiment(rocc::SystemConfig base, std::vector<Factor> factors,
                      std::size_t replications, std::size_t jobs = 0, RunHook hook = {});

  [[nodiscard]] const std::vector<FactorialCell>& cells() const noexcept { return cells_; }
  [[nodiscard]] const std::vector<Factor>& factors() const noexcept { return factors_; }
  [[nodiscard]] std::size_t replications() const noexcept { return replications_; }

  /// Allocation-of-variation analysis for one response metric — the
  /// paper's "principal component analysis" of Figures 16/20/25.
  [[nodiscard]] stats::FactorialAnalysis analyze(const MetricFn& fn) const;

  /// Wall/CPU accounting for the runs (for the tools' stderr report).
  [[nodiscard]] const RunReport& report() const noexcept { return report_; }

 private:
  std::vector<Factor> factors_;
  std::size_t replications_;
  std::vector<FactorialCell> cells_;
  RunReport report_;
};

// Commonly used metric extractors.
[[nodiscard]] inline double pd_cpu_time_sec(const rocc::SimulationResult& r) {
  return r.pd_cpu_time_sec();
}
[[nodiscard]] inline double is_cpu_time_sec(const rocc::SimulationResult& r) {
  return (r.pd_cpu_time_per_node_us + r.main_cpu_time_us / (r.nodes * r.cpus_per_node)) / 1e6;
}
[[nodiscard]] inline double latency_ms(const rocc::SimulationResult& r) {
  return r.latency_sec() * 1e3;
}
[[nodiscard]] inline double throughput(const rocc::SimulationResult& r) {
  return r.throughput_samples_per_sec;
}

}  // namespace paradyn::experiments
