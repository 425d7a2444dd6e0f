#include "support/parsed_trace.hpp"

namespace paradyn::obs {

ParsedEvent to_parsed(const EventView& view) {
  ParsedEvent e;
  e.name = view.name;
  e.cat = view.cat;
  e.ph = view.ph;
  e.ts = view.ts;
  e.dur = view.dur;
  e.pid = view.pid;
  e.tid = view.tid;
  e.id = view.id;
  for (const NumArg& a : view.num_args) e.num_args[std::string(a.key)] = a.value;
  for (const StrArg& a : view.str_args) e.str_args[std::string(a.key)] = std::string(a.value);
  return e;
}

ParsedTrace read_chrome_trace(std::istream& is) {
  ParsedTrace trace;
  const TraceStreamInfo info =
      stream_chrome_trace(is, [&](const EventView& ev) { trace.events.push_back(to_parsed(ev)); });
  trace.recorded = info.recorded;
  trace.dropped = info.dropped;
  return trace;
}

}  // namespace paradyn::obs
