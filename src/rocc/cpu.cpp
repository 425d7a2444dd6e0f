#include "rocc/cpu.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace paradyn::rocc {

CpuResource::CpuResource(des::Engine& engine, std::int32_t num_cpus, SimTime quantum)
    : engine_(engine), num_cpus_(num_cpus), quantum_(quantum), idle_cpus_(num_cpus) {
  if (num_cpus <= 0) throw std::invalid_argument("CpuResource: num_cpus must be > 0");
  if (!(quantum > 0.0)) throw std::invalid_argument("CpuResource: quantum must be > 0");
}

void CpuResource::submit(CpuRequest request) {
  if (request.duration < 0.0) throw std::invalid_argument("CpuResource: negative duration");
  if (request.duration == 0.0) {
    // Zero-length requests complete immediately without occupying a CPU.
    if (request.on_complete) {
      engine_.schedule_after(0.0, std::move(request.on_complete));
    }
    return;
  }
  ready_.push_back(Job{request.duration, std::move(request)});
  dispatch();
}

SimTime CpuResource::busy_time_total() const noexcept {
  SimTime total = 0.0;
  for (const SimTime t : busy_) total += t;
  return total;
}

void CpuResource::dispatch() {
  while (idle_cpus_ > 0 && !ready_.empty()) {
    Job job = ready_.pop_front();
    --idle_cpus_;

    const SimTime slice = std::min(quantum_, job.remaining);
    job.remaining -= slice;
    busy_[static_cast<std::size_t>(job.request.pclass)] += slice;
    if (tracer_ != nullptr) {
      tracer_->complete("cpu", to_cstr(job.request.pclass), track_, engine_.now(), slice,
                        "remaining_us", job.remaining, "ready", static_cast<double>(ready_.size()));
    }

    // Park the job in a reusable slot; the completion event carries only
    // {this, slot} through the queue's inline callback storage.
    std::uint32_t slot;
    if (!running_free_.empty()) {
      slot = running_free_.back();
      running_free_.pop_back();
      running_[slot] = std::move(job);
    } else {
      slot = static_cast<std::uint32_t>(running_.size());
      running_.push_back(std::move(job));
    }
    engine_.schedule_after(slice, [this, slot] { on_slice_done(slot); });
  }
}

void CpuResource::on_slice_done(std::uint32_t slot) {
  Job job = std::move(running_[slot]);
  running_free_.push_back(slot);
  ++idle_cpus_;
  if (job.remaining > 0.0) {
    ready_.push_back(std::move(job));  // preempted: back of the queue
  } else if (job.request.on_complete) {
    job.request.on_complete();
  }
  dispatch();
}

}  // namespace paradyn::rocc
