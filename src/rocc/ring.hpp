// FIFO ring for the model's queues.
//
// The CPU ready queue, the pipe buffers, the shared network server's queue
// and the daemon's child-batch queue all cycle push_back/pop_front for the
// whole run.  std::deque allocates and frees a chunk every few elements on
// that pattern; this ring reuses one power-of-two array instead.  It
// allocates on the first push and when a push finds it full (doubling), and
// never shrinks, so a queue that has reached its peak depth allocates
// nothing more.  Elements may be move-only (requests carry their
// completion callback inline).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace paradyn::rocc {

template <typename T>
class Ring {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "Ring relocates elements on growth without an exception path");

 public:
  Ring() noexcept = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, capacity_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots allocated: 0 until the first push, then a power of two.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(slots_ + wrap(head_ + size_), std::move(value));
    ++size_;
  }

  /// The i-th element from the front (i < size()).
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return slots_[wrap(head_ + i)]; }

  /// Remove and return the front element (the ring must not be empty).
  T pop_front() noexcept {
    T value = std::move(slots_[head_]);
    std::destroy_at(slots_ + head_);
    head_ = wrap(head_ + 1);
    --size_;
    return value;
  }

  /// Destroy every element; the capacity stays.
  void clear() noexcept {
    for (; size_ > 0; --size_) {
      std::destroy_at(slots_ + head_);
      head_ = wrap(head_ + 1);
    }
    head_ = 0;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 8;

  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept { return i & (capacity_ - 1); }

  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    T* slots = std::allocator<T>{}.allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = slots_ + wrap(head_ + i);
      std::construct_at(slots + i, std::move(*from));
      std::destroy_at(from);
    }
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace paradyn::rocc
