// Conservative time-window PDES: a set of independent engines synchronized
// at fixed window boundaries.
//
// Each shard owns a full Engine (calendar queue, clock, trace sink).  The
// model guarantees a minimum cross-shard latency L — the *lookahead* — so a
// message sent at time t is never delivered before t + L.  Running every
// shard through the window [k*W, (k+1)*W) with W <= L is therefore safe:
// no message produced inside the window can be due inside it.  At each
// barrier the accumulated cross-shard messages are injected into their
// destination queues in a canonical order, making results independent of
// how many shards the model is cut into and of which thread runs which
// shard.
//
// Determinism contract:
//  * post() may only be called from the sending shard's own event context
//    (one writer per outbox, no locks needed).
//  * A message's window membership depends only on the *sender's* clock, so
//    the batch an injection lands in is identical for every shard count.
//  * Injections are sorted by (delivery_time, sender_key, per-sender seq)
//    before scheduling; destination queues break remaining ties by
//    insertion order, so locally-scheduled events at the same timestamp run
//    before injected ones — also a shard-count-invariant rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "des/engine.hpp"
#include "des/time.hpp"

namespace paradyn::des {

struct ShardSetConfig {
  std::size_t shards = 1;
  /// Window length == conservative lookahead, in microseconds.  Must be > 0
  /// for two or more shards: zero lookahead would admit a message due at the
  /// current instant, which the barrier could only honor by running the
  /// shards in lockstep.  A single shard may use 0, which runs the whole run
  /// as one window (no cross-shard messages are possible, so post() is never
  /// legal there).
  SimTime window_us = 0.0;
  /// Optional warm-up checkpoint (0 = none).  The run() loop stops every
  /// shard exactly at this time (inclusive semantics, like
  /// Engine::run_until) and invokes the checkpoint callback once.
  SimTime warmup_us = 0.0;
  /// End of simulated time (inclusive, like Engine::run_until).
  SimTime duration_us = 0.0;
};

class ShardSet {
 public:
  /// Runs `body(i)` for every i in [0, count).  The default executor is a
  /// serial loop; a thread-pool adapter may be injected with set_executor().
  /// Shards share no mutable state during a window, so any executor that
  /// completes all bodies before returning (and establishes happens-before
  /// edges on completion, as futures do) preserves bit-identical results.
  using Executor = std::function<void(std::size_t count, const std::function<void(std::size_t)>& body)>;

  explicit ShardSet(const ShardSetConfig& config);

  [[nodiscard]] std::size_t size() const noexcept { return engines_.size(); }
  [[nodiscard]] Engine& engine(std::size_t shard) { return engines_[shard]; }
  [[nodiscard]] const Engine& engine(std::size_t shard) const { return engines_[shard]; }

  /// Inject an executor (empty std::function restores the serial loop).
  void set_executor(Executor executor) { executor_ = std::move(executor); }

  /// Queue a cross-shard message.  Must be called from shard `from`'s event
  /// context while run() is inside a window.  `delivery_time` must be at or
  /// after the current window horizon — i.e. at least lookahead away — or
  /// the conservative contract is broken and this throws.  `sender_key`
  /// identifies the logical sender (e.g. a daemon index); together with a
  /// per-sender sequence number it gives injections a canonical total order.
  /// `deliver` is the event the destination engine runs, stored inline as
  /// every event is: a capture above Engine's 48-byte slot does not compile.
  void post(std::size_t from, std::size_t to, SimTime delivery_time, std::uint64_t sender_key,
            Engine::Callback deliver);

  /// Run all shards to duration_us, synchronizing every window boundary.
  /// `checkpoint` (optional) fires once with the warm-up time after every
  /// shard has reached warmup_us and that boundary's messages have been
  /// injected.
  void run(const std::function<void(SimTime)>& checkpoint = {});

  /// Sum of events executed across all shard engines.
  [[nodiscard]] std::uint64_t events_processed() const noexcept;

 private:
  struct Message {
    std::size_t to = 0;
    SimTime delivery_time = 0.0;
    std::uint64_t sender_key = 0;
    std::uint64_t seq = 0;
    Engine::Callback deliver;
  };

  void flush_outboxes();

  ShardSetConfig config_;
  std::deque<Engine> engines_;  // deque: stable addresses, Engine is not movable
  std::vector<std::vector<Message>> outboxes_;  // one per source shard
  std::vector<std::uint64_t> seq_;              // one per source shard: per-sender ordering
  std::vector<Message> pending_;  // one barrier's injections; keeps its capacity
  Executor executor_;
  SimTime horizon_ = 0.0;  // end of the window currently executing
};

}  // namespace paradyn::des
