#include "des/engine.hpp"

#include <limits>

#include "obs/trace.hpp"

namespace paradyn::des {

std::uint64_t Engine::run() {
  const std::uint64_t executed = execute(std::numeric_limits<SimTime>::infinity(), true);
  if (tracer_ != nullptr) trace_flush();
  return executed;
}

std::uint64_t Engine::run_until(SimTime t_end) { return run_to(t_end, true); }

std::uint64_t Engine::run_before(SimTime t_end) { return run_to(t_end, false); }

std::uint64_t Engine::run_to(SimTime t_end, bool inclusive) {
  const std::uint64_t executed = execute(t_end, inclusive);
  if (!stopping_ && now_ < t_end) now_ = t_end;
  if (tracer_ != nullptr) trace_flush();
  return executed;
}

std::uint64_t Engine::execute(SimTime limit, bool inclusive) {
  stopping_ = false;
  std::uint64_t executed = 0;
  while (!stopping_) {
    const auto fired = queue_.pop_until(limit, inclusive);
    if (!fired) break;
    now_ = fired->time;
    if (tracer_ != nullptr) trace_event_executed();
    queue_.fire(*fired);
    ++executed;
    ++processed_;
  }
  return executed;
}

void Engine::trace_event_executed() {
  // Each executed event owns the engine track until the next one fires, so
  // the spans tile the timeline and their density shows where simulated
  // time is spent dispatching.
  if (span_open_) {
    tracer_->complete("des", "event", obs::kEngineTrack, span_start_, now_ - span_start_,
                      "pending", static_cast<double>(queue_.size()));
  }
  span_open_ = true;
  span_start_ = now_;
}

void Engine::trace_flush() {
  if (span_open_) {
    tracer_->complete("des", "event", obs::kEngineTrack, span_start_,
                      now_ > span_start_ ? now_ - span_start_ : 0.0, "pending",
                      static_cast<double>(queue_.size()));
    span_open_ = false;
  }
}

}  // namespace paradyn::des
