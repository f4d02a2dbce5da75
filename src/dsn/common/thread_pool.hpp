// Minimal thread pool with a blocking parallel_for, used to parallelize
// all-pairs BFS sweeps and per-point experiment sweeps across cores.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "dsn/common/mutex.hpp"
#include "dsn/common/thread_annotations.hpp"

namespace dsn {

/// Fixed-size worker pool. Tasks are std::function<void()>; exceptions thrown
/// by tasks propagate out of parallel_for (first one wins).
class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// The shard plan of every sharded sweep: `work` items split into
  /// min(work, 4 x workers) contiguous shards (at least 1), a few per worker
  /// so chunks stay balanced. Each shard owns its accumulator and the caller
  /// merges them in shard order.
  std::size_t shard_count(std::size_t work) const {
    return std::max<std::size_t>(1, std::min(work, 4 * size()));
  }

  /// Enqueue a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Enqueue a batch of tasks under one lock acquisition and a single wakeup
  /// broadcast. parallel_for uses this to push all its chunks at once instead
  /// of paying a lock/notify round-trip per chunk — the difference shows for
  /// fine-grained kernels issuing many small parallel loops.
  void submit_batch(std::vector<std::function<void()>> tasks);

  /// Block until all submitted tasks have completed. Must not be called from
  /// one of this pool's own workers (throws PreconditionError: it would wait
  /// for the calling task to finish).
  void wait_idle();

  /// Run fn(i) for i in [begin, end) across the pool, blocking until done.
  /// Work is distributed in contiguous chunks for cache friendliness.
  /// Reentrant: when called from inside one of this pool's own tasks the loop
  /// runs inline on the calling worker (nested parallel_for cannot deadlock).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Shared process-wide pool (lazily constructed; worker count from the
  /// DSN_THREADS environment variable when set, else hardware_concurrency).
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t index);

  /// Written only by the constructor; immutable (and lock-free to read)
  /// for the pool's whole concurrent lifetime.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ DSN_GUARDED_BY(mutex_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t active_ DSN_GUARDED_BY(mutex_) = 0;
  bool stop_ DSN_GUARDED_BY(mutex_) = false;
};

/// Convenience free function running on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace dsn
