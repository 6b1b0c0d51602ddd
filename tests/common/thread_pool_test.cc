#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace hpm {
namespace {

TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPoolTest, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(2);
  auto result = pool.TrySubmit([] { return 6 * 7; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->get(), 42);
}

TEST(ThreadPoolTest, RunsManyTasksExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) {
    auto future = pool.TrySubmit(
        [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, TasksReturnDistinctValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(50);
  for (int i = 0; i < 50; ++i) {
    auto future = pool.TrySubmit([i] { return i * i; });
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  long long sum = 0;
  for (std::future<int>& f : futures) sum += f.get();
  // Sum of squares 0..49.
  EXPECT_EQ(sum, 49LL * 50 * 99 / 6);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(1);  // Single worker: tasks queue up behind the sleep.
    auto sleeper = pool.TrySubmit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
    ASSERT_TRUE(sleeper.ok());
    futures.push_back(std::move(*sleeper));
    for (int i = 0; i < 10; ++i) {
      auto future = pool.TrySubmit(
          [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      ASSERT_TRUE(future.ok());
      futures.push_back(std::move(*future));
    }
  }  // Destructor must let every queued task run before joining.
  EXPECT_EQ(ran.load(), 10);
  for (std::future<void>& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(ThreadPoolTest, SubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  auto outer = pool.TrySubmit([&pool] {
    // Fire-and-forget leaf task submitted from inside a worker.
    auto leaf = pool.TrySubmit([] {});
    if (!leaf.ok()) return -1;
    leaf->wait();
    return 7;
  });
  ASSERT_TRUE(outer.ok());
  EXPECT_EQ(outer->get(), 7);
}

TEST(ThreadPoolDeathTest, RejectsZeroThreads) {
  EXPECT_DEATH(ThreadPool{0}, "HPM_CHECK");
}

// ---- Bounded queue / backpressure -----------------------------------------

/// A pool whose single worker is parked on a latch, so the queue's
/// contents are fully under the test's control.
struct BlockedPool {
  explicit BlockedPool(size_t max_queue_depth)
      : pool(ThreadPoolOptions{1, max_queue_depth}) {
    auto parked = pool.TrySubmit([this] {
      started.store(true);
      gate.get_future().wait();
    });
    EXPECT_TRUE(parked.ok());
    if (parked.ok()) gate_future = std::move(*parked);
    // Wait until the worker has actually *started* the blocking task, so
    // later submissions sit in the queue rather than racing it.
    while (!started.load()) std::this_thread::yield();
  }
  ~BlockedPool() { Open(); }
  void Open() {
    if (!opened) {
      gate.set_value();
      opened = true;
    }
  }
  ThreadPool pool;
  std::atomic<bool> started{false};
  std::promise<void> gate;
  std::future<void> gate_future;
  bool opened = false;
};

TEST(ThreadPoolTest, TrySubmitRejectsWhenQueueIsFull) {
  BlockedPool blocked(2);
  auto a = blocked.pool.TrySubmit([] { return 1; });
  auto b = blocked.pool.TrySubmit([] { return 2; });
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(blocked.pool.queue_depth(), 2u);
  // Third queued task exceeds max_queue_depth=2: backpressure.
  auto c = blocked.pool.TrySubmit([] { return 3; });
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);
  blocked.Open();
  EXPECT_EQ(a->get(), 1);
  EXPECT_EQ(b->get(), 2);
}

TEST(ThreadPoolTest, TrySubmitUnboundedOnlyRejectsDuringShutdown) {
  ThreadPool pool(ThreadPoolOptions{1, 0});
  auto ok = pool.TrySubmit([] { return 5; });
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->get(), 5);
  pool.Shutdown();
  auto rejected = pool.TrySubmit([] { return 6; });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
}

TEST(ThreadPoolTest, QueueDepthAndInFlightTrackTheWorker) {
  BlockedPool blocked(0);
  EXPECT_EQ(blocked.pool.queue_depth(), 0u);
  auto queued = blocked.pool.TrySubmit([] {});
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(blocked.pool.queue_depth(), 1u);
  blocked.Open();
  queued->wait();
  EXPECT_EQ(blocked.pool.queue_depth(), 0u);
  blocked.gate_future.wait();
}

// ---- Deterministic shutdown ------------------------------------------------

TEST(ThreadPoolTest, ShutdownRunPendingExecutesEveryQueuedTask) {
  std::atomic<int> ran{0};
  BlockedPool blocked(0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(blocked.pool.TrySubmit([&ran] { ran.fetch_add(1); }).ok());
  }
  EXPECT_EQ(blocked.pool.queue_depth(), 8u);
  blocked.Open();
  blocked.pool.Shutdown();
  // Every queued task ran before Shutdown returned; none was dropped.
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  auto task = pool.TrySubmit([&ran] { ran.fetch_add(1); });
  ASSERT_TRUE(task.ok());
  task->wait();
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.TrySubmit([] {}).status().code(), StatusCode::kUnavailable);
}

// The shutdown-vs-submit race regression (run under TSan by
// scripts/check.sh): concurrent TrySubmit during Shutdown must yield, for
// every task, exactly one of {executed, kUnavailable rejection} — never a
// hang, double-run, or silent drop.
TEST(ThreadPoolTest, ConcurrentTrySubmitDuringShutdownNeverDropsSilently) {
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<ThreadPool>(ThreadPoolOptions{2, 4});
    std::atomic<int> ran{0};
    std::atomic<int> rejected{0};
    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 25;
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          auto result = pool->TrySubmit([&ran] { ran.fetch_add(1); });
          if (!result.ok()) {
            rejected.fetch_add(1);
            continue;
          }
          result->get();
        }
      });
    }
    // Race the shutdown against the submitters.
    pool->Shutdown();
    for (std::thread& t : submitters) t.join();
    EXPECT_EQ(ran.load() + rejected.load(), kSubmitters * kPerThread);
  }
}

}  // namespace
}  // namespace hpm
