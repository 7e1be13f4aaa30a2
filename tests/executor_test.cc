// The FIFO Executor (src/common/executor.h).

#include "common/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace xmlreval::common {
namespace {

// Everything accepted before destruction runs.
TEST(ExecutorTest, RunsAllTasksAndDrainsOnShutdown) {
  std::atomic<int> ran{0};
  {
    Executor::Options options;
    options.threads = 4;
    options.queue_capacity = 8;
    Executor executor(options);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(executor.Submit([&] { ran.fetch_add(1); }));
    }
  }  // destructor drains + joins
  EXPECT_EQ(ran.load(), 100);
}

// A Push accepted just before Shutdown's Close() must still run: a dropped
// task would hang any caller waiting on its completion. Hammer the
// Submit/Shutdown race and check accepted == executed every round.
TEST(ExecutorTest, SubmitRacingShutdownNeverDropsAcceptedTask) {
  for (int round = 0; round < 50; ++round) {
    Executor::Options options;
    options.threads = 2;
    options.queue_capacity = 4;
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    Executor executor(options);
    std::thread submitter([&] {
      while (executor.Submit([&] { executed.fetch_add(1); })) {
        accepted.fetch_add(1);
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 5)));
    executor.Shutdown();
    submitter.join();
    EXPECT_EQ(accepted.load(), executed.load()) << "round " << round;
  }
}

TEST(ExecutorTest, SubmitRefusedAfterShutdown) {
  Executor::Options options;
  options.threads = 2;
  Executor executor(options);
  executor.Shutdown();
  EXPECT_FALSE(executor.Submit([] {}));
  executor.Shutdown();  // idempotent
}

TEST(ExecutorTest, QueueDepthHookMirrorsQueueAndSettlesToZero) {
  std::atomic<int64_t> depth{0};
  std::atomic<int64_t> max_depth{0};
  Executor::Options options;
  options.threads = 2;
  options.depth_hook = [&](int64_t delta) {
    int64_t now = depth.fetch_add(delta) + delta;
    int64_t seen = max_depth.load();
    while (now > seen && !max_depth.compare_exchange_weak(seen, now)) {
    }
  };
  {
    Executor executor(options);
    std::atomic<bool> gate{false};
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i) {
      EXPECT_TRUE(executor.Submit([&] {
        while (!gate.load()) std::this_thread::yield();
        ran.fetch_add(1);
      }));
    }
    gate.store(true);
    executor.Shutdown();
    EXPECT_EQ(ran.load(), 32);
  }
  EXPECT_EQ(depth.load(), 0);
  EXPECT_GT(max_depth.load(), 0);
}

}  // namespace
}  // namespace xmlreval::common
