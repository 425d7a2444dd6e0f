// roccprof — critical-path profiler and W3-style bottleneck attribution
// for Chrome traces recorded by roccsim --trace.
//
//   roccsim --arch now --nodes 8 --trace out.json
//   roccprof out.json
//   roccprof out.json --hypotheses
//   roccprof out.json --top-paths 10 --json profile.json --folded out.folded
//
// Streams the trace through the obs::Profiler (O(1) parser memory) and
// prints the per-hop latency decomposition of the sample lifecycle, the
// per-resource utilization timelines, the slowest critical paths, and the
// W3 hypothesis verdicts (ExcessiveCPU, ExcessivePipeBackpressure,
// ExcessiveNetworkDelay, StarvedDaemon).
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "obs/profile.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  using tools::Kind;
  try {
    const tools::CliArgs args(
        argc, argv,
        {{"top-paths", Kind::Integer, "N", "5", "slowest sample chains to list", 0,
          tools::kCountMax},
         {"window-ms", Kind::Number, "X", "100", "W3 hypothesis window width in simulated ms"},
         {"hypotheses", Kind::Switch, "", "", "print only the W3 bottleneck verdicts"},
         {"json", Kind::Text, "FILE", "", "write the full report as JSON (schema roccprof-v1)"},
         {"csv", Kind::Text, "FILE", "", "write the per-hop decomposition as CSV"},
         {"folded", Kind::Text, "FILE", "",
          "write flamegraph-folded stacks (feed to flamegraph.pl)"},
         tools::kHelp},
        tools::kTraceFile);
    if (args.get_bool("help") || args.positionals().empty()) {
      args.print_help(
          "roccprof — critical-path profiler for roccsim Chrome traces\n\n"
          "  roccprof FILE [options]");
      return args.get_bool("help") ? 0 : 1;
    }

    const std::string& path = args.positionals().front();
    std::ifstream is(path);
    if (!is) {
      std::fprintf(stderr, "roccprof: cannot open %s\n", path.c_str());
      return 1;
    }

    obs::ProfileOptions options;
    options.top_paths = static_cast<std::size_t>(args.get_long("top-paths"));
    options.window_us = args.get_double("window-ms") * 1'000.0;
    const obs::ProfileReport report = obs::profile_trace_stream(is, options);

    std::cout << path << ":\n";
    obs::print_profile_report(std::cout, report, args.get_bool("hypotheses"));

    if (args.has("json")) {
      auto os = tools::open_output(args.get_string("json"));
      obs::write_profile_json(os, report);
    }
    if (args.has("csv")) {
      auto os = tools::open_output(args.get_string("csv"));
      obs::write_profile_csv(os, report);
    }
    if (args.has("folded")) {
      auto os = tools::open_output(args.get_string("folded"));
      obs::write_profile_folded(os, report);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roccprof: %s\n(try --help)\n", e.what());
    return 1;
  }
}
