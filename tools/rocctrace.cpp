// rocctrace — summarize a Chrome trace recorded by roccsim --trace.
//
//   roccsim --arch now --nodes 8 --trace out.json
//   rocctrace out.json
//   rocctrace out.json --top 10
//   rocctrace out.json --event sample --cat pipe
//
// Prints the top event types by total time and count, and the latency
// percentiles of every async chain (e.g. the sample generation-to-delivery
// lifecycle).  Accepts any conforming trace-event JSON file, not only ours.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <string>

#include "cli_args.hpp"
#include "obs/trace_read.hpp"
#include "util/suggest.hpp"

namespace {

void print_help() {
  std::puts(
      "rocctrace — summarize a Chrome trace-event JSON file\n"
      "\n"
      "  rocctrace FILE [--top N] [--event NAME] [--cat NAME]\n"
      "\n"
      "  FILE          trace produced by roccsim/roccsweep --trace (or any\n"
      "                chrome://tracing-compatible JSON)\n"
      "  --top N       event types to list; default 20\n"
      "  --event NAME  only event types / async chains with this name\n"
      "  --cat NAME    only event types / async chains in this category\n"
      "  --help        this text\n");
}

/// Keep only the rows matching the --event / --cat filters.  A filter value
/// that matches nothing in the trace is a loud error with a did-you-mean
/// over the names the trace actually contains — a typo must not silently
/// print an empty summary.
paradyn::obs::TraceSummary filter_summary(paradyn::obs::TraceSummary summary,
                                          const std::string& event, const std::string& cat) {
  std::set<std::string> names;
  std::set<std::string> cats;
  for (const auto& t : summary.types) {
    names.insert(t.name);
    cats.insert(t.cat);
  }
  for (const auto& c : summary.chains) {
    names.insert(c.name);
    cats.insert(c.cat);
  }
  if (!event.empty() && names.count(event) == 0) {
    throw std::invalid_argument("no event named '" + event + "' in this trace" +
                                paradyn::util::did_you_mean(event, names));
  }
  if (!cat.empty() && cats.count(cat) == 0) {
    throw std::invalid_argument("no category named '" + cat + "' in this trace" +
                                paradyn::util::did_you_mean(cat, cats));
  }
  const auto keep = [&](const std::string& n, const std::string& c) {
    return (event.empty() || n == event) && (cat.empty() || c == cat);
  };
  std::erase_if(summary.types, [&](const auto& t) { return !keep(t.name, t.cat); });
  std::erase_if(summary.chains, [&](const auto& c) { return !keep(c.name, c.cat); });
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradyn;
  try {
    const tools::CliArgs args(argc, argv, {"top", "event", "cat", "help"},
                              /*max_positionals=*/1);
    if (args.get_bool("help") || args.positionals().empty()) {
      print_help();
      return args.get_bool("help") ? 0 : 1;
    }

    const std::string& path = args.positionals().front();
    std::ifstream is(path);
    if (!is) {
      std::fprintf(stderr, "rocctrace: cannot open %s\n", path.c_str());
      return 1;
    }
    const auto summary = filter_summary(obs::summarize_trace(is),
                                        args.get_string("event", ""),
                                        args.get_string("cat", ""));
    std::cout << path << ":\n";
    obs::print_trace_summary(std::cout, summary,
                             static_cast<std::size_t>(args.get_long("top", 20)));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rocctrace: %s\n(try --help)\n", e.what());
    return 1;
  }
}
