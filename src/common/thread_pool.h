// Fixed-size worker pool for shard fan-out and connection handling in
// the serving layer, with an optional queue bound so overload turns into
// backpressure instead of unbounded memory growth.
//
// TrySubmit() honors `max_queue_depth`: it returns kUnavailable when the
// queue is full or the pool is shutting down, so callers can fail fast
// or run the task inline (the store's fan-out does the latter: a
// saturated pool slows the caller down rather than queueing).
//
// Shutdown is deterministic: every task TrySubmit accepted runs to
// completion before Shutdown (or the destructor) returns, and a
// TrySubmit that loses the race with Shutdown is refused. Nothing
// accepted is ever dropped.

#ifndef HPM_COMMON_THREAD_POOL_H_
#define HPM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hpm {

/// Pool configuration.
struct ThreadPoolOptions {
  /// Worker threads. Must be >= 1.
  int num_threads = 1;

  /// Queued-but-unstarted tasks TrySubmit tolerates before rejecting.
  /// 0 = unbounded (TrySubmit only rejects during shutdown).
  size_t max_queue_depth = 0;
};

/// A fixed set of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Starts `num_threads` workers with an unbounded queue.
  /// Precondition: num_threads >= 1.
  explicit ThreadPool(int num_threads)
      : ThreadPool(ThreadPoolOptions{num_threads, 0}) {}

  explicit ThreadPool(ThreadPoolOptions options);

  /// Shutdown(): runs every queued task, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `f` and returns a future for its result; kUnavailable when
  /// the queue already holds max_queue_depth tasks (backpressure) or the
  /// pool is shutting down. Safe to call from any thread, including pool
  /// workers — but a task that *blocks* on a future of another task can
  /// deadlock once every worker does it, so fan-out code should submit
  /// leaves only.
  template <typename F>
  auto TrySubmit(F&& f)
      -> StatusOr<std::future<std::invoke_result_t<F>>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        return Status::Unavailable("thread pool is shutting down");
      }
      if (options_.max_queue_depth > 0 &&
          queue_.size() >= options_.max_queue_depth) {
        return Status::Unavailable("thread pool queue is full");
      }
      queue_.push([task] { (*task)(); });
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    }
    condition_.notify_one();
    return future;
  }

  /// Tasks queued but not yet started (relaxed snapshot — exact only
  /// when no worker or submitter is concurrently active). The serving
  /// layer's load-shedding ladder reads this as its pressure signal.
  size_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }

  /// Stops the pool: every queued task still runs, then the workers
  /// join. Idempotent; afterwards TrySubmit returns kUnavailable.
  void Shutdown();

  /// hardware_concurrency, or 2 when the runtime cannot tell.
  static int DefaultThreadCount();

 private:
  void WorkerLoop();

  ThreadPoolOptions options_;
  std::mutex mutex_;
  std::condition_variable condition_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::atomic<size_t> queue_depth_{0};
  std::vector<std::thread> workers_;
};

}  // namespace hpm

#endif  // HPM_COMMON_THREAD_POOL_H_
