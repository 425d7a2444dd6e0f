// Open-addressing hash map keyed by a pair of 64-bit words: the profiler's
// open sample-lifecycle chains and per-track accumulators, looked up once
// or more per trace event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace paradyn::obs {

/// Hash map from (a, b) to V with linear probing and backward-shift
/// deletion.  Memory grows only when the table doubles, so a stream of
/// inserts and erases at a steady working-set size allocates nothing and
/// leaves no tombstones.
template <class V>
class PairMap {
 public:
  /// The value stored at (a, b), or nullptr.
  [[nodiscard]] V* find(std::uint64_t a, std::uint64_t b) noexcept {
    const std::size_t i = locate(a, b);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  /// Store `value` at (a, b) unless the key is present.  Returns the
  /// stored value and whether it was inserted.
  std::pair<V*, bool> emplace(std::uint64_t a, std::uint64_t b, const V& value) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(a, b);
    for (; slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].a == a && slots_[i].b == b) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{a, b, value, true};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Remove (a, b) if present.
  void erase(std::uint64_t a, std::uint64_t b) noexcept {
    std::size_t hole = locate(a, b);
    if (hole == kNone) return;
    // Shift every later entry of the probe run that may sit earlier into
    // the hole: one whose home is not cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask_; slots_[j].used; j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].a, slots_[j].b);
      const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (!stays) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].used = false;
    --size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    V value{};
    bool used = false;
  };

  static constexpr std::size_t kNone = ~std::size_t{0};

  [[nodiscard]] std::size_t home(std::uint64_t a, std::uint64_t b) const noexcept {
    // splitmix64 finalizer over the combined key.
    std::uint64_t x = a * 0x9e3779b97f4a7c15ull + b;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & mask_;
  }

  [[nodiscard]] std::size_t locate(std::uint64_t a, std::uint64_t b) const noexcept {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(a, b); slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].a == a && slots_[i].b == b) return i;
    }
    return kNone;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) (void)emplace(s.a, s.b, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace paradyn::obs
