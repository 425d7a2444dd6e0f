// Shared printing for the 2^k r factorial benches (Tables 4-6 and the
// "PCA" allocation-of-variation Figures 16/20/25).
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "experiments/table.hpp"

namespace paradyn::bench {

/// Print the raw cell means (the paper's Tables 4/5/6 layout): one row per
/// cell, parameter columns from the factor labels, response columns from
/// the named metrics.
inline void print_cells(const experiments::FactorialExperiment& exp,
                        const std::vector<std::string>& metric_names,
                        const std::vector<experiments::MetricFn>& metrics,
                        const std::string& title) {
  std::vector<std::string> headers;
  for (const auto& f : exp.factors()) headers.push_back(f.name);
  for (const auto& m : metric_names) headers.push_back(m);

  experiments::TablePrinter table(title, headers);
  for (const auto& cell : exp.cells()) {
    std::vector<std::string> row;
    for (std::size_t f = 0; f < exp.factors().size(); ++f) {
      const bool high = (cell.mask >> f) & 1U;
      row.push_back(high ? exp.factors()[f].high_label : exp.factors()[f].low_label);
    }
    for (const auto& m : metrics) row.push_back(experiments::fmt(cell.mean(m), 3));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

/// Print the allocation of variation for one response metric (the bars of
/// Figures 16/20/25), collapsing effects below 3% into "Rest".
inline void print_variation(const experiments::FactorialExperiment& exp,
                            const experiments::MetricFn& metric, const std::string& title) {
  const auto analysis = exp.analyze(metric);
  experiments::TablePrinter table(title, {"effect", "factors", "variation explained (%)"});
  double rest = 100.0 * analysis.error_fraction;
  for (const auto& effect : analysis.effects) {
    const double pct = 100.0 * effect.variation_fraction;
    if (pct < 3.0) {
      rest += pct;
      continue;
    }
    std::string expansion;
    for (std::size_t f = 0; f < exp.factors().size(); ++f) {
      if (effect.mask & (1U << f)) {
        if (!expansion.empty()) expansion += " x ";
        expansion += exp.factors()[f].name;
      }
    }
    table.add_row({effect.label, expansion, experiments::fmt(pct, 1)});
  }
  table.add_row({"Rest", "(small effects + replication error)", experiments::fmt(rest, 1)});
  table.print(std::cout);
}

}  // namespace paradyn::bench
