// Pending-event set for the discrete-event engine.
//
// A two-tier calendar queue over slab-pooled event records, tuned for the
// engine's strongly time-clustered workload:
//
//  * Near tier — a window of `kNumBuckets` buckets, each `width` of
//    simulated time wide.  An event whose time falls inside the window is
//    insertion-sorted into its bucket's intrusive list; with the width
//    adapted to roughly one live event per bucket, push and pop are O(1)
//    amortized.  Each bucket also keeps its tail, and a push that sorts
//    after the tail appends there without a walk.  Every push at the
//    latest instant of its bucket does, because seq only grows — so a
//    burst of same-instant timers (every sampler firing at one period)
//    costs O(1) per push instead of an insertion sort of the burst.  A
//    cursor sweeps the window monotonically, so pop never rescans drained
//    buckets.
//  * Far tier — events beyond the window land in an unsorted staging
//    buffer of (time, seq, slot) tuples.  When the near tier drains, the
//    window advances: the staging buffer is sorted and merged into the
//    sorted ladder (one linear, cache-friendly pass over inline keys — the
//    comparator never touches per-slot storage), a fresh window is placed
//    at the ladder's earliest time with a width derived from the event
//    density near its head, and the leading run is migrated into buckets.
//
// Storage is structure-of-arrays: the hot traversal keys — (time, seq)
// ordering fields, intrusive links, lifecycle state, ABA generations —
// live in dense per-slot vectors, so bucket walks, sweeps, and ladder
// checks touch only packed key lines instead of dragging each record's
// callback bytes through the cache (the AoS record was ~128 bytes, of
// which a traversal used 21).  Callbacks alone stay in fixed slabs with
// stable addresses: fire() runs a callback in place while that callback
// may push new events and grow the key vectors, so callback storage must
// never move.  Slots are recycled through a free list; steady-state
// scheduling does not allocate.
//
// A record's (slot, generation) pair doubles as the cancellation handle;
// the generation counter is bumped on every recycle so a stale handle can
// never cancel the slot's next tenant (ABA protection).
//
// Ordering contract (identical to the binary-heap implementation this
// replaced, bit-for-bit — see tests/des/event_queue_diff_test.cpp): events
// pop in (time, insertion sequence) order, so two events scheduled for the
// same instant fire in the order they were scheduled.  Cancellation is
// lazy: a cancelled record stays linked but is skipped and recycled when
// the sweep reaches it.
//
// Event lifecycle: Pending (scheduled, cancellable) -> Firing (popped, its
// callback is executing; pending() is false and cancel() is a no-op) ->
// recycled.  cancel() moves Pending -> recycled directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "des/inline_function.hpp"
#include "des/time.hpp"

namespace paradyn::des {

class EventQueue;

/// Handle to a scheduled event; allows cancellation.  Default-constructed
/// handles refer to no event and are safe to cancel (a no-op).  A handle is
/// a (queue, slot, generation) triple — copying is trivial, and a handle
/// must not outlive its queue.
class EventHandle {
 public:
  EventHandle() noexcept = default;

  /// True if the event is still pending (not firing, not fired, not
  /// cancelled).  A stale handle whose slot was recycled reports false.
  [[nodiscard]] bool pending() const noexcept;

 private:
  friend class EventQueue;
  EventHandle(const EventQueue* queue, std::uint32_t slot, std::uint32_t generation) noexcept
      : queue_(queue), slot_(slot), generation_(generation) {}

  const EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  /// Inline capture budget per event: a moved-in rocc::SmallCallback (a
  /// 32-byte InlineFunction), a std::function, or the largest model capture
  /// (48 bytes: a forwarded Batch and its receiver), so a slot is one 64-byte
  /// InlineFunction.  Larger captures are a compile error, not a heap allocation.
  static constexpr std::size_t kCallbackCapacity = 48;
  using Callback = InlineFunction<kCallbackCapacity>;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Insert an event; returns a handle usable for cancellation.
  template <typename F>
  EventHandle push(SimTime time, F&& callback) {
    const std::uint32_t slot = acquire_slot();
    time_[slot] = time;
    seq_[slot] = next_seq_++;
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
      callback_of(slot) = std::forward<F>(callback);  // a ready callback moves in as is
    } else {
      callback_of(slot).emplace(std::forward<F>(callback));
    }
    state_[slot] = State::Pending;
    const std::uint32_t generation = generation_[slot];
    link(slot, time);
    ++live_;
    return EventHandle{this, slot, generation};
  }

  /// Cancel a pending event.  Safe on empty/stale/fired handles and on an
  /// event that is currently firing (no-op in all those cases).
  void cancel(EventHandle& handle) noexcept;

  /// The earliest live event, removed from the pending set and marked
  /// Firing.  Pass it to fire() to run the callback and recycle the slot.
  struct Fired {
    SimTime time = 0;
    std::uint32_t slot = 0;
  };
  [[nodiscard]] std::optional<Fired> pop();

  /// pop(), bounded: the earliest live event if its time is below `limit`
  /// (or equal to it, when `inclusive`), else nullopt with every live
  /// event left in place.  One sweep to the head serves both the bound
  /// check and the removal.
  [[nodiscard]] std::optional<Fired> pop_until(SimTime limit, bool inclusive);

  /// Invoke the popped event's callback, then recycle its record.
  void fire(const Fired& fired);

  /// Number of live (pending, non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Slots ever allocated (slab pool footprint; for tests and metrics —
  /// steady-state workloads should see this plateau while events churn).
  [[nodiscard]] std::size_t allocated_slots() const noexcept { return allocated_; }

 private:
  friend class EventHandle;

  enum class State : std::uint8_t { Free, Pending, Firing, Cancelled };

  static constexpr std::uint32_t kNpos = 0xffffffffu;
  /// Window size: more buckets means rarer (amortized-cheaper) ladder
  /// merges for large queues at 32 KiB of bucket heads; empty buckets cost
  /// nothing to skip because the sweep short-circuits on in_buckets_ == 0.
  static constexpr std::size_t kNumBuckets = 8192;
  static constexpr std::size_t kSlabShift = 8;  ///< 256 callbacks per slab.
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;

  /// Callback storage is the one column that must not move: fire() runs it
  /// in place while the callback may push events and grow the key vectors.
  [[nodiscard]] Callback& callback_of(std::uint32_t slot) noexcept {
    return slabs_[slot >> kSlabShift][slot & (kSlabSize - 1)];
  }

  static void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  std::uint32_t acquire_slot();
  void recycle(std::uint32_t slot) noexcept;

  /// Route a record into its bucket or the far tier.
  void link(std::uint32_t slot, SimTime time);
  void insert_bucket(std::size_t index, std::uint32_t slot) noexcept;
  /// Link a record that sorts after every record in the bucket.
  void append_bucket(std::size_t index, std::uint32_t slot) noexcept;
  [[nodiscard]] std::size_t bucket_index(SimTime time) const noexcept;

  /// Advance the window over the far tier.  Returns false when the far
  /// tier is empty (the queue holds no more events).
  bool advance_window();

  /// First pending record in the near tier, recycling cancelled records
  /// encountered on the way.  kNpos when the near tier is drained.
  std::uint32_t sweep_to_head() noexcept;

  // Per-slot key columns (SoA), indexed by slot id; grown only in
  // acquire_slot.  Traversals touch these and never the callback slabs.
  std::vector<SimTime> time_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint32_t> next_;        ///< Intrusive link: bucket or free list.
  std::vector<std::uint32_t> generation_;  ///< Bumped on recycle (ABA guard).
  std::vector<State> state_;

  // Callback slabs (stable addresses) + free list.
  std::vector<std::unique_ptr<Callback[]>> slabs_;
  std::uint32_t free_head_ = kNpos;
  std::size_t allocated_ = 0;

  // Near tier.  bucket_tail_[i] is valid only while bucket_head_[i] is not
  // kNpos (a bucket loses its tail record last).
  std::vector<std::uint32_t> bucket_head_;
  std::vector<std::uint32_t> bucket_tail_;
  std::size_t cursor_ = 0;          ///< First bucket that may hold records.
  std::size_t in_buckets_ = 0;      ///< Records linked in buckets (any state).
  bool window_valid_ = false;
  SimTime win_lo_ = 0.0;
  SimTime win_hi_ = 0.0;
  SimTime width_ = 1.0;
  SimTime inv_width_ = 1.0;  ///< 1/width_: bucket mapping multiplies, never divides.

  // Far tier.  The sort keys are carried inline so sorting and merging are
  // sequential over 24-byte tuples instead of chasing per-slot columns.
  struct FarEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Sorted by (time, seq) ascending; [0, ladder_head_) is consumed.
  std::vector<FarEntry> ladder_;
  std::size_t ladder_head_ = 0;
  /// Unsorted arrivals since the last window advance.
  std::vector<FarEntry> staging_;
  std::vector<FarEntry> scratch_;  ///< Merge target, kept to reuse capacity.

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

inline bool EventHandle::pending() const noexcept {
  if (queue_ == nullptr) return false;
  return queue_->generation_[slot_] == generation_ &&
         queue_->state_[slot_] == EventQueue::State::Pending;
}

}  // namespace paradyn::des
