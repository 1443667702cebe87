//===- support/ThreadPool.cpp - Fixed-size worker pool ---------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"

using namespace hotg;
using namespace hotg::support;

ThreadPool::ThreadPool(unsigned NumWorkers) {
  if (NumWorkers == 0)
    NumWorkers = 1;
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Workers.emplace_back([this, I] { workerMain(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WakeUp.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

std::future<void>
ThreadPool::submit(std::function<void(unsigned WorkerIndex)> Task) {
  Item It;
  It.Fn = std::move(Task);
  std::future<void> Result = It.Done.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(It));
  }
  WakeUp.notify_one();
  return Result;
}

void ThreadPool::workerMain(unsigned Index) {
  for (;;) {
    Item It;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeUp.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      It = std::move(Queue.front());
      Queue.pop_front();
    }
    // Account the busy time *before* fulfilling the promise: a caller
    // returning from future::get() must observe this job's contribution
    // in busyNanos().
    uint64_t Start = telemetry::monotonicNanos();
    std::exception_ptr Err;
    try {
      It.Fn(Index);
    } catch (...) {
      Err = std::current_exception();
    }
    BusyNs.fetch_add(telemetry::monotonicNanos() - Start,
                     std::memory_order_relaxed);
    if (Err)
      It.Done.set_exception(std::move(Err));
    else
      It.Done.set_value();
  }
}
