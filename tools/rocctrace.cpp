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
  using tools::Kind;
  try {
    const tools::CliArgs args(
        argc, argv,
        {{"top", Kind::Integer, "N", "20", "event types to list", 0, tools::kCountMax},
         {"event", Kind::Text, "NAME", "", "only event types / async chains with this name"},
         {"cat", Kind::Text, "NAME", "", "only event types / async chains in this category"},
         tools::kHelp},
        tools::kTraceFile);
    if (args.get_bool("help") || args.positionals().empty()) {
      args.print_help(
          "rocctrace — summarize a Chrome trace-event JSON file\n\n"
          "  rocctrace FILE [options]");
      return args.get_bool("help") ? 0 : 1;
    }

    const auto top = static_cast<std::size_t>(args.get_long("top"));
    const std::string& path = args.positionals().front();
    std::ifstream is(path);
    if (!is) {
      std::fprintf(stderr, "rocctrace: cannot open %s\n", path.c_str());
      return 1;
    }
    const auto summary = filter_summary(obs::summarize_trace(is),
                                        args.get_string("event"), args.get_string("cat"));
    std::cout << path << ":\n";
    obs::print_trace_summary(std::cout, summary, top);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rocctrace: %s\n(try --help)\n", e.what());
    return 1;
  }
}
