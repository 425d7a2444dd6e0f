#include "rocc/network.hpp"

#include <stdexcept>
#include <utility>

namespace paradyn::rocc {

NetworkResource::NetworkResource(des::Engine& engine, NetworkContention contention)
    : engine_(engine), contention_(contention) {}

SimTime NetworkResource::busy_time_total() const noexcept {
  SimTime total = 0.0;
  for (const SimTime t : busy_) total += t;
  return total;
}

void NetworkResource::submit(NetRequest request) {
  if (request.duration < 0.0) throw std::invalid_argument("NetworkResource: negative duration");
  request.duration *= slowdown_;
  busy_[static_cast<std::size_t>(request.pclass)] += request.duration;
  if (request.node >= 0 && static_cast<std::size_t>(request.node) < busy_node_.size()) {
    busy_node_[static_cast<std::size_t>(request.node)][static_cast<std::size_t>(request.pclass)] +=
        request.duration;
  }

  if (contention_ == NetworkContention::ContentionFree) {
    if (tracer_ != nullptr) {
      tracer_->complete("net", to_cstr(request.pclass), track_, engine_.now(), request.duration);
    }
    // Pure delay: park the completion in a reusable slot.  An event is
    // scheduled even for an empty callback so the event sequence (and thus
    // deterministic tie-breaking downstream) is unchanged from the
    // std::function implementation.
    std::uint32_t slot;
    if (!inflight_free_.empty()) {
      slot = inflight_free_.back();
      inflight_free_.pop_back();
      inflight_[slot] = std::move(request.on_complete);
    } else {
      slot = static_cast<std::uint32_t>(inflight_.size());
      inflight_.push_back(std::move(request.on_complete));
    }
    engine_.schedule_after(request.duration, [this, slot] { on_cf_done(slot); });
    return;
  }

  queue_.push_back(std::move(request));
  if (!server_busy_) start_next();
}

void NetworkResource::on_cf_done(std::uint32_t slot) {
  SmallCallback cb = std::move(inflight_[slot]);
  inflight_free_.push_back(slot);
  if (cb) cb();
}

void NetworkResource::start_next() {
  if (queue_.empty()) {
    server_busy_ = false;
    return;
  }
  server_busy_ = true;
  NetRequest req = queue_.pop_front();
  if (tracer_ != nullptr) {
    tracer_->complete("net", to_cstr(req.pclass), track_, engine_.now(), req.duration, "queued",
                      static_cast<double>(queue_.size()));
  }
  in_service_ = std::move(req.on_complete);
  engine_.schedule_after(req.duration, [this] { on_service_done(); });
}

void NetworkResource::on_service_done() {
  SmallCallback cb = std::move(in_service_);
  if (cb) cb();
  start_next();
}

}  // namespace paradyn::rocc
