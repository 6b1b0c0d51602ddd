#include "common/thread_pool.h"

namespace hpm {

ThreadPool::ThreadPool(ThreadPoolOptions options) : options_(options) {
  HPM_CHECK(options_.num_threads >= 1);
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;  // Second call: already stopped.
    stopping_ = true;
  }
  condition_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      condition_.wait(lock,
                      [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop();
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    }
    task();
  }
}

int ThreadPool::DefaultThreadCount() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 2 : static_cast<int>(n);
}

}  // namespace hpm
