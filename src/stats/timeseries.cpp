#include "stats/timeseries.hpp"

#include <stdexcept>

#include "stats/summary.hpp"

namespace paradyn::stats {

double autocorrelation(std::span<const double> series, std::size_t lag) {
  const std::size_t n = series.size();
  if (lag == 0) return 1.0;
  if (lag >= n) throw std::invalid_argument("autocorrelation: lag >= series length");

  const SummaryStats s = summarize(series);
  const double mean = s.mean();
  double denom = 0.0;
  for (const double x : series) {
    const double d = x - mean;
    denom += d * d;
  }
  if (denom == 0.0) throw std::invalid_argument("autocorrelation: constant series");

  double num = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    num += (series[i] - mean) * (series[i + lag] - mean);
  }
  return num / denom;
}

BatchMeansResult batch_means(std::span<const double> series, std::size_t batches, double level) {
  if (batches < 2) throw std::invalid_argument("batch_means: need at least 2 batches");
  const std::size_t batch_size = series.size() / batches;
  if (batch_size == 0) {
    throw std::invalid_argument("batch_means: series too short for requested batches");
  }

  BatchMeansResult result;
  result.batch_count = batches;
  result.batch_size = batch_size;
  result.batch_means.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < batch_size; ++i) acc += series[b * batch_size + i];
    result.batch_means.push_back(acc / static_cast<double>(batch_size));
  }
  result.ci = mean_confidence_interval(result.batch_means, level);
  bool constant = true;
  for (const double m : result.batch_means) {
    if (m != result.batch_means.front()) constant = false;
  }
  result.lag1_of_batch_means =
      (batches >= 3 && !constant) ? autocorrelation(result.batch_means, 1) : 0.0;
  return result;
}

}  // namespace paradyn::stats
