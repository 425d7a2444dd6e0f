// Output of a harness invoked with --bench-json PATH: beside its usual
// table/figure it writes machine-measured metrics (wall seconds,
// throughputs) as a flat JSON object, which tools/bench_compare reads in
// the CI bench-smoke job.
#pragma once

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace paradyn::bench {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start_;
    return elapsed.count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Write `{"key": value, ...}` to `path` (one flat JSON object); a file
/// that cannot be written prints "bench-json: cannot write PATH" and exits 1.
inline void write_bench_json(const std::string& path,
                             const std::vector<std::pair<std::string, double>>& metrics) {
  std::ofstream out(path);
  out << "{\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << "  \"" << metrics[i].first << "\": " << metrics[i].second
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "}\n";
  out.flush();
  if (!out) {
    std::cerr << "bench-json: cannot write " << path << "\n";
    std::exit(1);
  }
  std::cerr << "bench-json: wrote " << metrics.size() << " metric(s) to " << path << "\n";
}

}  // namespace paradyn::bench
