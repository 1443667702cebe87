//===- smt/QueryCache.cpp - Memoizing solver-query cache -------------------===//

#include "smt/QueryCache.h"

using namespace hotg;
using namespace hotg::smt;

std::optional<PortableAnswer> QueryCache::lookup(const TermFingerprint &Fp,
                                                 uint64_t Generation,
                                                 QueryKind Kind,
                                                 uint64_t Epoch) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find({Fp, Generation, Kind, Epoch});
  if (It == Entries.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second;
}

void QueryCache::store(const TermFingerprint &Fp, uint64_t Generation,
                       QueryKind Kind, PortableAnswer Answer, uint64_t Epoch) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.try_emplace({Fp, Generation, Kind, Epoch}, std::move(Answer));
}

size_t QueryCache::evictGenerationsBelow(uint64_t Epoch,
                                         uint64_t MinGeneration) {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Dropped = 0;
  for (auto It = Entries.begin(); It != Entries.end();) {
    const Key &K = It->first;
    if (K.Epoch == Epoch && K.Generation != 0 &&
        K.Generation < MinGeneration) {
      It = Entries.erase(It);
      ++Dropped;
    } else {
      ++It;
    }
  }
  return Dropped;
}

size_t QueryCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}
