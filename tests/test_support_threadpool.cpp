//===- tests/test_support_threadpool.cpp - Worker pool unit tests ----------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

using namespace hotg::support;

namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::atomic<int> Sum{0};
  std::vector<std::future<void>> Futures;
  for (int I = 1; I <= 100; ++I)
    Futures.push_back(Pool.submit([&Sum, I](unsigned) {
      Sum.fetch_add(I, std::memory_order_relaxed);
    }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPool, WorkerIndicesAreStableAndInRange) {
  ThreadPool Pool(3);
  std::mutex M;
  std::set<unsigned> Seen;
  std::vector<std::future<void>> Futures;
  for (int I = 0; I != 64; ++I)
    Futures.push_back(Pool.submit([&](unsigned W) {
      std::lock_guard<std::mutex> Lock(M);
      Seen.insert(W);
    }));
  for (auto &F : Futures)
    F.get();
  ASSERT_FALSE(Seen.empty());
  EXPECT_LT(*Seen.rbegin(), 3u) << "indices must stay below the pool size";
}

TEST(ThreadPool, FuturesCarryTaskExceptions) {
  ThreadPool Pool(2);
  auto Ok = Pool.submit([](unsigned) {});
  auto Bad = Pool.submit(
      [](unsigned) { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(Ok.get());
  EXPECT_THROW(Bad.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsTheQueue) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I != 32; ++I)
      Pool.submit([&Ran](unsigned) {
        Ran.fetch_add(1, std::memory_order_relaxed);
      });
    // No explicit waits: the destructor must run every queued task.
  }
  EXPECT_EQ(Ran.load(), 32);
}

} // namespace
