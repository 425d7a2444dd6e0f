#include "des/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace paradyn::des {

ShardSet::ShardSet(const ShardSetConfig& config) : config_(config) {
  if (config_.shards == 0) throw std::invalid_argument("ShardSet: shard count must be >= 1");
  if (!(config_.window_us > 0.0) && !(config_.window_us == 0.0 && config_.shards == 1)) {
    throw std::invalid_argument(
        "ShardSet: window (lookahead) must be > 0 with two or more shards — zero lookahead "
        "cannot be synchronized conservatively");
  }
  if (!(config_.duration_us > 0.0)) throw std::invalid_argument("ShardSet: duration must be > 0");
  if (config_.warmup_us < 0.0 || config_.warmup_us >= config_.duration_us) {
    if (config_.warmup_us != 0.0) {
      throw std::invalid_argument("ShardSet: warmup must lie in [0, duration)");
    }
  }
  engines_.resize(config_.shards);
  outboxes_.resize(config_.shards);
  seq_.assign(config_.shards, 0);
}

void ShardSet::post(std::size_t from, std::size_t to, SimTime delivery_time,
                    std::uint64_t sender_key, Engine::Callback deliver) {
  if (from >= engines_.size() || to >= engines_.size()) {
    throw std::out_of_range("ShardSet::post: shard index out of range");
  }
  if (delivery_time < horizon_) {
    throw std::logic_error("ShardSet::post: delivery at " + std::to_string(delivery_time) +
                           "us is before the window horizon " + std::to_string(horizon_) +
                           "us — lookahead contract violated");
  }
  outboxes_[from].push_back(Message{to, delivery_time, sender_key, seq_[from]++, std::move(deliver)});
}

void ShardSet::flush_outboxes() {
  // Gather, order canonically, and inject.  The sort key never involves the
  // source shard index, so the injection order — and the (time, insertion)
  // order inside every destination queue — is invariant under re-sharding.
  for (auto& outbox : outboxes_) {
    for (auto& msg : outbox) pending_.push_back(std::move(msg));
    outbox.clear();
  }
  std::sort(pending_.begin(), pending_.end(), [](const Message& a, const Message& b) {
    if (a.delivery_time != b.delivery_time) return a.delivery_time < b.delivery_time;
    if (a.sender_key != b.sender_key) return a.sender_key < b.sender_key;
    return a.seq < b.seq;
  });
  for (auto& msg : pending_) {
    engines_[msg.to].schedule_at(msg.delivery_time, std::move(msg.deliver));
  }
  pending_.clear();
}

void ShardSet::run(const std::function<void(SimTime)>& checkpoint) {
  // Boundary grid: every window multiple below duration (none for a
  // zero-width one-shard window), plus the warm-up time and the duration
  // itself.  Interior boundaries are *exclusive*
  // (Engine::run_before) so an event at exactly k*W runs after that
  // boundary's injections; the warm-up and final boundaries are *inclusive*
  // (Engine::run_until) to match the single-engine run()/collect()
  // semantics.  The grid depends only on (W, warmup, duration) — never on
  // the shard count.
  struct Boundary {
    SimTime time;
    bool inclusive;
  };
  std::vector<Boundary> boundaries;
  for (SimTime t = config_.window_us; config_.window_us > 0.0 && t < config_.duration_us;
       t += config_.window_us) {
    boundaries.push_back({t, false});
  }
  if (config_.warmup_us > 0.0) boundaries.push_back({config_.warmup_us, true});
  boundaries.push_back({config_.duration_us, true});
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) { return a.time < b.time; });
  // Merge duplicates; inclusive wins (a warm-up or final boundary that lands
  // exactly on the window grid still owns events at that instant).
  std::vector<Boundary> merged;
  for (const Boundary& b : boundaries) {
    if (!merged.empty() && merged.back().time == b.time) {
      merged.back().inclusive = merged.back().inclusive || b.inclusive;
    } else {
      merged.push_back(b);
    }
  }

  for (const Boundary& b : merged) {
    horizon_ = b.time;
    const std::function<void(std::size_t)> body = [this, &b](std::size_t shard) {
      if (b.inclusive) {
        engines_[shard].run_until(b.time);
      } else {
        engines_[shard].run_before(b.time);
      }
    };
    if (executor_) {
      executor_(engines_.size(), body);
    } else {
      for (std::size_t s = 0; s < engines_.size(); ++s) body(s);
    }
    flush_outboxes();
    if (checkpoint && b.inclusive && b.time == config_.warmup_us) checkpoint(b.time);
  }
}

std::uint64_t ShardSet::events_processed() const noexcept {
  std::uint64_t total = 0;
  for (const Engine& e : engines_) total += e.events_processed();
  return total;
}

}  // namespace paradyn::des
