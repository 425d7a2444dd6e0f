#include "support/replications.hpp"

namespace paradyn::rocc {

std::vector<SimulationResult> run_replications(SystemConfig config, std::size_t replications) {
  std::vector<SimulationResult> results;
  results.reserve(replications);
  for (std::size_t i = 0; i < replications; ++i) {
    SystemConfig c = config;
    c.seed = config.seed + i;
    results.push_back(run_simulation(c));
  }
  return results;
}

}  // namespace paradyn::rocc
