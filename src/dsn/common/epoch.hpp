// Epoch-barrier shard executor: the concurrency discipline shared by the
// MS-BFS engine, the obs registry merges, and the active-set simulator core.
// Work is partitioned into fixed shards; each epoch runs one function per
// shard in parallel and returns only when every shard has finished (the
// barrier), so the caller's serial sections between epochs observe a fully
// quiesced state and can merge per-shard results in shard order — the order
// that makes the merge independent of thread scheduling.
#pragma once

#include <cstddef>
#include <functional>

#include "dsn/common/thread_pool.hpp"

namespace dsn {

/// Runs per-shard functions over a fixed shard count with a full barrier
/// between epochs. shards == 1 (or a null pool) degrades to an inline serial
/// loop on the calling thread — no pool traffic, no synchronization — which
/// is also the determinism baseline the parallel path must reproduce.
class ShardEpoch {
 public:
  /// The pool is borrowed, not owned; it must outlive this object. A null
  /// pool forces inline execution regardless of the shard count.
  ShardEpoch(ThreadPool* pool, std::size_t shards)
      : pool_(shards > 1 ? pool : nullptr), shards_(shards == 0 ? 1 : shards) {}

  std::size_t shards() const { return shards_; }

  /// One epoch: run fn(shard) for every shard in [0, shards()), blocking
  /// until all complete. Exceptions from shard functions propagate (first
  /// one wins, matching ThreadPool::parallel_for).
  void run(const std::function<void(std::size_t)>& fn) const {
    if (pool_ == nullptr) {
      for (std::size_t s = 0; s < shards_; ++s) fn(s);
      return;
    }
    pool_->parallel_for(0, shards_, fn);
  }

 private:
  ThreadPool* pool_;
  std::size_t shards_;
};

}  // namespace dsn
