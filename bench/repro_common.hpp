// Flags and reproducibility stamp shared by the bench/experiment harnesses.
//
// A harness that reads flags lists exactly the rows it reads, so anything
// else (--job, --jobs abc, a stray argument) exits 1 before the stamp.  The
// stamp comes first, so a captured table or figure CSV always records which
// binary, revision, and worker-thread count produced it; its lines are
// '#'-prefixed, so CSV/plot consumers skip them untouched.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_args.hpp"
#include "experiments/parallel.hpp"
#include "obs/repro.hpp"

namespace paradyn::bench {

/// Results are bit-identical for every job count.
inline constexpr tools::Flag kJobs{"jobs", tools::Kind::Integer, "N", "0",
                                   "worker threads; 0 = one per hardware thread", 0,
                                   tools::kCountMax};
inline constexpr tools::Flag kBenchJson{"bench-json", tools::Kind::Text, "FILE", "",
                                        "write the measured metrics (write_bench_json)"};

inline void print_stamp(const char* tool) {
  obs::ReproStamp stamp;
  stamp.tool = tool;
  stamp.jobs = experiments::default_jobs();
  stamp.write(std::cout);
  std::cout << '\n';
}

/// Parse `flags`, make --jobs the experiments default, print the stamp of
/// `tool`, and return the --bench-json FILE ("" without one).  A bad flag,
/// or a FILE that cannot be opened for writing, prints "tool: message" on
/// stderr and exits 1 before the stamp.
inline std::string start(const char* tool, int argc, char** argv,
                         std::vector<tools::Flag> flags) {
  try {
    const tools::CliArgs args(argc, argv, std::move(flags));
    if (args.has("jobs")) experiments::set_default_jobs(args.get_long("jobs"));
    const std::string json = args.get_string("bench-json");
    if (!json.empty() && !std::ofstream(json, std::ios::app)) {
      throw std::invalid_argument("cannot write " + json);
    }
    print_stamp(tool);
    return json;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    std::exit(1);
  }
}

}  // namespace paradyn::bench
