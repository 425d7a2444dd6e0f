#include "support/heap_event_queue.hpp"

#include <algorithm>

namespace paradyn::des {

HeapEventHandle HeapEventQueue::push(SimTime time, Callback cb) {
  auto alive = std::make_shared<bool>(true);
  heap_.push_back(Node{time, next_seq_++, std::move(cb), alive});
  std::push_heap(heap_.begin(), heap_.end(), Earlier{});
  ++live_;
  return HeapEventHandle{std::move(alive)};
}

void HeapEventQueue::cancel(HeapEventHandle& handle) noexcept {
  if (handle.alive_ && *handle.alive_) {
    *handle.alive_ = false;
    --live_;
  }
  handle.alive_.reset();
}

void HeapEventQueue::drop_dead_top() {
  while (!heap_.empty() && !*heap_.front().alive) {
    std::pop_heap(heap_.begin(), heap_.end(), Earlier{});
    heap_.pop_back();
  }
}

std::optional<HeapEventQueue::Fired> HeapEventQueue::pop() {
  drop_dead_top();
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), Earlier{});
  Node node = std::move(heap_.back());
  heap_.pop_back();
  *node.alive = false;
  --live_;
  return Fired{node.time, std::move(node.callback)};
}

std::optional<SimTime> HeapEventQueue::peek_time() {
  drop_dead_top();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().time;
}

}  // namespace paradyn::des
