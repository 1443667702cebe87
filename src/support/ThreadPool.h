//===- support/ThreadPool.h - Fixed-size worker pool -----------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool; hotg-serve runs its search sessions on
/// one (docs/serving.md). Tasks receive the index of the worker executing
/// them, so callers can maintain per-worker state without any locking
/// inside the task itself.
///
/// The destructor drains the queue: every submitted task runs before the
/// workers join. Submitters therefore must keep task-referenced state alive
/// until the pool is destroyed.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SUPPORT_THREADPOOL_H
#define HOTG_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace hotg::support {

/// Fixed-size pool of worker threads with worker-indexed tasks.
class ThreadPool {
public:
  /// Spawns \p NumWorkers threads (at least one).
  explicit ThreadPool(unsigned NumWorkers);

  /// Drains the queue (running every pending task) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task; the future becomes ready when the task returns (or
  /// carries the task's exception).
  std::future<void> submit(std::function<void(unsigned WorkerIndex)> Task);

private:
  struct Item {
    std::function<void(unsigned)> Fn;
    std::promise<void> Done;
  };

  void workerMain(unsigned Index);

  mutable std::mutex Mutex;
  std::condition_variable WakeUp;
  std::deque<Item> Queue;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace hotg::support

#endif // HOTG_SUPPORT_THREADPOOL_H
