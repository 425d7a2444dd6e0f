// ThreadPool-backed executor for the conservative-window PDES shard loop.
//
// des::ShardSet runs each window by calling `body(s)` for every shard; this
// adapter runs lane 0 on the caller and submits the other lanes to a pool,
// joining them through futures, whose get() gives the happens-before edge
// the ShardSet determinism contract requires.
#pragma once

#include <algorithm>
#include <cstddef>
#include <future>
#include <vector>

#include "des/shard.hpp"
#include "experiments/thread_pool.hpp"

namespace paradyn::experiments {

/// A ShardSet executor on `pool`: at most `lanes` threads touch a window
/// (the caller plus lanes - 1 pool workers), lane l running shards l, l + w,
/// l + 2w, ... in index order.  ParallelRunner sizes `lanes` by its lane
/// rule; shards share no mutable state inside a window, so results are
/// bit-identical to the serial loop for any lane count.  The pool must
/// outlive every run using the executor.  Every lane finishes before the
/// executor returns or throws; worker exceptions reach the caller through
/// the futures.
[[nodiscard]] inline des::ShardSet::Executor shard_pool_executor(ThreadPool& pool,
                                                                std::size_t lanes) {
  return [&pool, lanes](std::size_t count, const std::function<void(std::size_t)>& body) {
    const std::size_t w = std::max<std::size_t>(1, std::min(lanes, count));
    std::vector<std::future<void>> joins;
    joins.reserve(w - 1);
    for (std::size_t lane = 1; lane < w; ++lane) {
      joins.push_back(pool.submit([&body, lane, w, count] {
        for (std::size_t s = lane; s < count; s += w) body(s);
      }));
    }
    try {
      for (std::size_t s = 0; s < count; s += w) body(s);
    } catch (...) {
      for (auto& join : joins) join.wait();  // no lane may outlive `body`
      throw;
    }
    for (auto& join : joins) join.wait();
    for (auto& join : joins) join.get();
  };
}

}  // namespace paradyn::experiments
