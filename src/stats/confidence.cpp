#include "stats/confidence.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/special_functions.hpp"

namespace paradyn::stats {

ConfidenceInterval mean_confidence_interval(const SummaryStats& stats, double level) {
  if (stats.count() < 2) {
    throw std::invalid_argument("mean_confidence_interval: need at least 2 observations");
  }
  if (!(level > 0.0 && level < 1.0)) {
    throw std::invalid_argument("mean_confidence_interval: level in (0,1)");
  }
  const auto n = static_cast<double>(stats.count());
  const double df = n - 1.0;
  const double t = student_t_quantile(0.5 + 0.5 * level, df);
  ConfidenceInterval ci;
  ci.mean = stats.mean();
  ci.half_width = t * stats.stddev() / std::sqrt(n);
  ci.level = level;
  return ci;
}

ConfidenceInterval mean_confidence_interval(std::span<const double> data, double level) {
  return mean_confidence_interval(summarize(data), level);
}

}  // namespace paradyn::stats
