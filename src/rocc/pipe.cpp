#include "rocc/pipe.hpp"

#include <stdexcept>
#include <utility>

namespace paradyn::rocc {

Pipe::Pipe(std::int32_t capacity) : capacity_(capacity) {
  if (capacity <= 0) throw std::invalid_argument("Pipe: capacity must be > 0");
}

bool Pipe::try_put(const Sample& sample) {
  if (full()) {
    ++rejected_;
    return false;
  }
  buffer_.push_back(sample);
  ++accepted_;
  if (on_data_) {
    // Move out first: the callback may re-register.
    auto cb = std::exchange(on_data_, nullptr);
    cb();
  }
  return true;
}

std::optional<Sample> Pipe::try_get() {
  if (buffer_.empty()) return std::nullopt;
  Sample s = buffer_.pop_front();
  if (on_space_) {
    auto cb = std::exchange(on_space_, nullptr);
    cb();
  }
  return s;
}

void Pipe::set_capacity_limit(std::int32_t limit) {
  if (limit <= 0) throw std::invalid_argument("Pipe: capacity limit must be > 0");
  limit_ = limit;
  if (!full() && on_space_) {
    auto cb = std::exchange(on_space_, nullptr);
    cb();
  }
}

void Pipe::clear_capacity_limit() {
  limit_ = INT32_MAX;
  if (!full() && on_space_) {
    auto cb = std::exchange(on_space_, nullptr);
    cb();
  }
}

std::size_t Pipe::drain() {
  const std::size_t discarded = buffer_.size();
  buffer_.clear();
  if (discarded != 0 && on_space_) {
    auto cb = std::exchange(on_space_, nullptr);
    cb();
  }
  return discarded;
}

void Pipe::notify_on_data(SmallCallback cb) { on_data_ = std::move(cb); }

void Pipe::notify_on_space(SmallCallback cb) { on_space_ = std::move(cb); }

}  // namespace paradyn::rocc
