// tracegen — generate, inspect, and characterize AIX-style traces.
//
//   tracegen --seconds 30 --nodes 1 --out trace.csv      # synthesize
//   tracegen --in trace.csv --stats                      # Table 1 view
//   tracegen --in trace.csv --fit                        # Table 2 view
//   tracegen --seconds 10 --stats --fit                  # all in memory
#include <cstdio>
#include <exception>
#include <iostream>

#include "cli_args.hpp"
#include "experiments/table.hpp"
#include "trace/characterize.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"

int main(int argc, char** argv) {
  using namespace paradyn;
  using tools::Kind;
  try {
    const tools::CliArgs args(
        argc, argv,
        {{"seconds", Kind::Number, "X", "10", "generate X seconds of trace"},
         {"nodes", Kind::Integer, "N", "1", "nodes to trace", tools::kInt32Min, tools::kCountMax},
         {"seed", Kind::Integer, "N", "1", "RNG seed"},
         {"out", Kind::Text, "FILE", "", "write the generated trace as CSV"},
         {"in", Kind::Text, "FILE", "", "read a trace CSV instead of generating"},
         {"stats", Kind::Switch, "", "", "print Table 1-style occupancy statistics"},
         {"fit", Kind::Switch, "", "", "print Table 2-style fitted distributions"},
         tools::kHelp});
    if (args.get_bool("help")) {
      args.print_help("tracegen — synthetic SP-2 trace generator / workload characterizer");
      return 0;
    }

    std::vector<trace::TraceRecord> records;
    if (args.has("in")) {
      records = trace::read_csv_file(args.get_string("in"));
      std::printf("read %zu records from %s\n", records.size(), args.get_string("in").c_str());
    } else {
      const double seconds = args.get_double("seconds");
      const auto nodes = static_cast<std::int32_t>(args.get_long("nodes"));
      const auto seed = static_cast<std::uint64_t>(args.get_long("seed"));
      records = trace::generate_trace(trace::Sp2TraceModel::paper_pvmbt(seconds * 1e6), nodes,
                                      seed);
      std::printf("generated %zu records (%.1f s, %d node(s), seed %llu)\n", records.size(),
                  seconds, nodes, static_cast<unsigned long long>(seed));
    }

    if (args.has("out")) {
      trace::write_csv_file(args.get_string("out"), records);
      std::printf("wrote %s\n", args.get_string("out").c_str());
    }

    if (args.get_bool("stats")) {
      experiments::TablePrinter table("occupancy statistics (microseconds)",
                                      {"process", "CPU n", "CPU mean", "CPU sd", "net n",
                                       "net mean", "net sd"});
      for (const auto& row : trace::occupancy_statistics(records)) {
        table.add_row({std::string(trace::to_string(row.pclass)),
                       std::to_string(row.cpu.count()), experiments::fmt(row.cpu.mean(), 1),
                       experiments::fmt(row.cpu.stddev(), 1), std::to_string(row.network.count()),
                       experiments::fmt(row.network.mean(), 1),
                       experiments::fmt(row.network.stddev(), 1)});
      }
      table.print(std::cout);
    }

    if (args.get_bool("fit")) {
      const auto model = trace::characterize(records);
      experiments::TablePrinter table("fitted workload model",
                                      {"process", "CPU length", "net length",
                                       "CPU inter-arrival (us)"});
      for (const auto& [pclass, w] : model.classes) {
        table.add_row({std::string(trace::to_string(pclass)),
                       w.cpu_length ? w.cpu_length->describe() : "-",
                       w.net_length ? w.net_length->describe() : "-",
                       w.cpu_interarrival_mean ? experiments::fmt(*w.cpu_interarrival_mean, 0)
                                               : "-"});
      }
      table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tracegen: %s\n(try --help)\n", e.what());
    return 1;
  }
}
