#include "experiments/runner.hpp"

#include <stdexcept>
#include <utility>

#include "experiments/parallel.hpp"
#include "experiments/table.hpp"

namespace paradyn::experiments {

namespace {

double mean_of(const std::vector<rocc::SimulationResult>& runs, const MetricFn& fn) {
  stats::SummaryStats s;
  for (const auto& r : runs) s.add(fn(r));
  return s.mean();
}

}  // namespace

ReplicationSet::ReplicationSet(const rocc::SystemConfig& config, std::size_t replications,
                               std::size_t jobs, RunHook hook) {
  // Validate before any simulation runs (the old member-initializer form
  // ran the replications before this guard could fire).
  if (replications == 0) throw std::invalid_argument("ReplicationSet: replications must be > 0");
  ParallelRunner runner(jobs);
  runner.set_run_hook(std::move(hook));
  results_ = runner.replications(config, replications);
  report_ = runner.report();
}

stats::ConfidenceInterval ReplicationSet::metric(const MetricFn& fn, double level) const {
  stats::SummaryStats s;
  for (const auto& r : results_) s.add(fn(r));
  if (s.count() < 2) {
    // Degenerate interval for r = 1 (roccsweep's default): the single
    // observation is the mean and no dispersion estimate exists.
    stats::ConfidenceInterval ci;
    ci.mean = s.mean();
    ci.half_width = 0.0;
    ci.level = level;
    return ci;
  }
  return stats::mean_confidence_interval(s, level);
}

Sweep::Sweep(std::vector<double> xs, std::vector<std::string> variants, const MakeFn& make,
             std::size_t replications, std::size_t jobs, RunHook hook)
    : xs_(std::move(xs)), variants_(std::move(variants)) {
  if (xs_.empty() || variants_.empty()) throw std::invalid_argument("Sweep: need xs and variants");
  if (replications == 0) throw std::invalid_argument("Sweep: replications must be > 0");
  std::vector<rocc::SystemConfig> configs;
  configs.reserve(xs_.size() * variants_.size());
  for (const double x : xs_) {
    for (std::size_t v = 0; v < variants_.size(); ++v) configs.push_back(make(x, v));
  }
  for (const auto& c : configs) {
    if (c.seed != configs.front().seed) {
      throw std::invalid_argument("Sweep: every configuration must share one seed");
    }
  }
  ParallelRunner runner(jobs);
  runner.set_run_hook(std::move(hook));
  cells_ = runner.cells(configs, configs.front().seed, replications);
  report_ = runner.report();
}

std::vector<std::vector<double>> Sweep::means(const MetricFn& fn) const {
  std::vector<std::vector<double>> out(variants_.size());
  for (std::size_t v = 0; v < variants_.size(); ++v) {
    for (std::size_t i = 0; i < xs_.size(); ++i) {
      out[v].push_back(mean_of(cells_[i * variants_.size() + v], fn));
    }
  }
  return out;
}

void Sweep::print(std::ostream& os, const std::string& x_label,
                  const std::vector<Panel>& panels) const {
  for (const auto& p : panels) {
    print_series(os, p.title, x_label, xs_, variants_, means(p.metric), p.digits);
  }
}

std::vector<rocc::SimulationResult> Sweep::runs() const {
  std::vector<rocc::SimulationResult> out;
  for (const auto& cell : cells_) out.insert(out.end(), cell.begin(), cell.end());
  return out;
}

const std::vector<Panel>& paper_panels() {
  static const std::vector<Panel> panels{
      {"Pd CPU utilization/node (%)",
       [](const rocc::SimulationResult& r) { return r.pd_cpu_util_pct; }},
      {"Paradyn (main) CPU utilization (%)",
       [](const rocc::SimulationResult& r) { return r.main_cpu_util_pct; }},
      {"Application CPU utilization/node (%)",
       [](const rocc::SimulationResult& r) { return r.app_cpu_util_pct; }},
      {"Monitoring latency/sample (sec)",
       [](const rocc::SimulationResult& r) { return r.latency_sec(); }, 6},
  };
  return panels;
}

double FactorialCell::mean(const MetricFn& fn) const { return mean_of(runs, fn); }

FactorialExperiment::FactorialExperiment(rocc::SystemConfig base, std::vector<Factor> factors,
                                         std::size_t replications, std::size_t jobs,
                                         RunHook hook)
    : factors_(std::move(factors)), replications_(replications) {
  if (factors_.empty()) throw std::invalid_argument("FactorialExperiment: need factors");
  if (factors_.size() > 8) throw std::invalid_argument("FactorialExperiment: too many factors");
  if (replications_ == 0) {
    throw std::invalid_argument("FactorialExperiment: replications must be > 0");
  }

  const unsigned num_cells = 1U << factors_.size();
  cells_.reserve(num_cells);
  std::vector<rocc::SystemConfig> cell_configs;
  cell_configs.reserve(num_cells);
  for (unsigned mask = 0; mask < num_cells; ++mask) {
    FactorialCell cell;
    cell.mask = mask;
    cell.config = base;
    for (std::size_t f = 0; f < factors_.size(); ++f) {
      factors_[f].apply(cell.config, (mask >> f) & 1U);
    }
    cell_configs.push_back(cell.config);
    cells_.push_back(std::move(cell));
  }

  ParallelRunner runner(jobs);
  runner.set_run_hook(std::move(hook));
  auto runs = runner.cells(cell_configs, base.seed, replications_);
  for (unsigned mask = 0; mask < num_cells; ++mask) cells_[mask].runs = std::move(runs[mask]);
  report_ = runner.report();
}

stats::FactorialAnalysis FactorialExperiment::analyze(const MetricFn& fn) const {
  std::vector<std::string> names;
  names.reserve(factors_.size());
  for (const auto& f : factors_) names.push_back(f.name);
  stats::FactorialDesign design(names, replications_);
  for (const auto& cell : cells_) {
    for (std::size_t rep = 0; rep < cell.runs.size(); ++rep) {
      design.set_response(cell.mask, rep, fn(cell.runs[rep]));
    }
  }
  return design.analyze();
}

}  // namespace paradyn::experiments
