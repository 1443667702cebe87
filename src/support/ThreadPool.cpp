//===- support/ThreadPool.cpp - Fixed-size worker pool ---------------------===//

#include "support/ThreadPool.h"

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
    try {
      It.Fn(Index);
    } catch (...) {
      It.Done.set_exception(std::current_exception());
      continue;
    }
    It.Done.set_value();
  }
}
