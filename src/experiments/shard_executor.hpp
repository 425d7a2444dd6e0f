// ThreadPool-backed executor for the conservative-window PDES shard loop.
//
// des::ShardSet runs each synchronized window by invoking `body(s)` for
// every shard; the default is a serial loop.  This adapter fans the bodies
// out over a ThreadPool — lane 0 runs inline on the caller (one lane
// always gets the calling thread; no point parking it), the rest are
// submitted and joined via futures, whose get() establishes the
// happens-before edge the ShardSet determinism contract requires.  Results
// are bit-identical to the serial loop: shards share no mutable state
// inside a window.
#pragma once

#include <algorithm>
#include <cstddef>
#include <future>
#include <vector>

#include "des/shard.hpp"
#include "experiments/thread_pool.hpp"

namespace paradyn::experiments {

/// Build a ShardSet executor on top of `pool`: at most `lanes` threads
/// touch a window (the caller plus lanes-1 pool workers), each running
/// shards `lane, lane+w, lane+2w, ...` in index order.  Lanes equal to the
/// shard count give every shard its own thread; the tools pass fewer to
/// clamp per-job shard workers when --jobs x --shards would oversubscribe
/// the machine.  Shards share no mutable state inside a window, so results
/// stay bit-identical to the serial loop for any lane count.  The pool must
/// outlive every run using the executor.  Worker exceptions propagate to
/// the caller through the futures.
[[nodiscard]] inline des::ShardSet::Executor shard_pool_executor(ThreadPool& pool,
                                                                std::size_t lanes) {
  return [&pool, lanes](std::size_t count, const std::function<void(std::size_t)>& body) {
    const std::size_t w = std::min(lanes, count);
    if (w <= 1) {
      for (std::size_t s = 0; s < count; ++s) body(s);
      return;
    }
    std::vector<std::future<void>> joins;
    joins.reserve(w - 1);
    for (std::size_t lane = 1; lane < w; ++lane) {
      joins.push_back(pool.submit([&body, lane, w, count] {
        for (std::size_t s = lane; s < count; s += w) body(s);
      }));
    }
    for (std::size_t s = 0; s < count; s += w) body(s);
    for (auto& join : joins) join.get();
  };
}

}  // namespace paradyn::experiments
