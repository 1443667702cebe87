//===- smt/QueryCache.h - Memoizing solver-query cache ---------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared, thread-safe memo of decided solver queries, layered in front
/// of both smt::SolverContext and core::ValiditySolver by the directed
/// search when its caller installs one (SearchOptions::SharedCache, the
/// cross-session fabric of hotg-serve, docs/serving.md). Keys are
///
///     (epoch, term fingerprint, sample-table generation, query kind)
///
/// where the fingerprint is the arena-independent structural digest of the
/// queried formula (TermArena::fingerprint) and the generation is the
/// number of IOF samples recorded when the query was decided — validity
/// answers depend on the antecedent A, so an answer is reusable only at
/// the exact generation it was computed for (the table is append-only,
/// hence generation equality ⇔ table equality *within one session*).
/// Pure satisfiability queries carry generation 0.
///
/// The epoch extends that soundness argument across sessions: hotg-serve
/// keeps one QueryCache alive across many DirectedSearch sessions, and two
/// sessions only grow identical sample tables when they run the same job
/// configuration — so the serving layer keys each session by a digest of
/// its full job configuration, and only same-epoch sessions share answers.
///
/// Values are arena-independent: a status byte plus the model rendered as
/// (variable name, value) pairs, so an answer computed in one session's
/// arena can be consumed in another's.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_QUERYCACHE_H
#define HOTG_SMT_QUERYCACHE_H

#include "smt/Term.h"
#include "support/Hashing.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hotg::smt {

/// Discriminates what a cached answer decides.
enum class QueryKind : uint8_t {
  Satisfiability, ///< SolverContext::checkFormula — SatResult in Status.
  Validity,       ///< core::ValiditySolver::checkPost — ValidityStatus.
};

/// An arena-independent query answer.
struct PortableAnswer {
  /// SatResult or ValidityStatus, depending on the key's QueryKind.
  uint8_t Status = 0;
  /// Variable assignment of the answer's model, by variable name.
  std::vector<std::pair<std::string, int64_t>> Model;
  /// Work the query cost where it was actually computed. Consumers fold
  /// these into their search-owned aggregates, so the aggregates come out
  /// identical whether the query was computed or answered from the cache.
  uint32_t Checks = 0;
  uint32_t SupportsExplored = 0;
  uint32_t Decisions = 0;
  uint32_t Propagations = 0;
  /// Validity-query work (zero for satisfiability answers).
  uint32_t ValiditySupports = 0;
  uint32_t GroundingsTried = 0;
  uint32_t GroundingsPruned = 0;
};

/// Thread-safe memoizing cache of decided queries.
class QueryCache {
public:
  /// Returns the cached answer for the key, counting a hit or miss.
  std::optional<PortableAnswer> lookup(const TermFingerprint &Fp,
                                       uint64_t Generation, QueryKind Kind,
                                       uint64_t Epoch = 0);

  /// Publishes an answer; the first writer wins (answers are deterministic
  /// functions of the key, so duplicates are identical).
  void store(const TermFingerprint &Fp, uint64_t Generation, QueryKind Kind,
             PortableAnswer Answer, uint64_t Epoch = 0);

  /// Generation-keyed eviction for long-lived caches: drops every entry of
  /// \p Epoch whose generation is in [1, MinGeneration). Generation-0
  /// entries (pure satisfiability, reusable at any table state) survive.
  /// Called by the serving layer when a session of that epoch finishes at
  /// MinGeneration — a concurrent same-epoch session still below that
  /// generation merely re-misses and recomputes the identical answer, so
  /// eviction affects performance, never results. Returns entries dropped.
  size_t evictGenerationsBelow(uint64_t Epoch, uint64_t MinGeneration);

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  size_t size() const;

private:
  struct Key {
    TermFingerprint Fp;
    uint64_t Generation = 0;
    QueryKind Kind = QueryKind::Satisfiability;
    uint64_t Epoch = 0;

    bool operator==(const Key &Other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      size_t Seed = static_cast<size_t>(K.Fp.Hi);
      hashCombine(Seed, static_cast<size_t>(K.Fp.Lo));
      hashCombine(Seed, static_cast<size_t>(K.Generation));
      hashCombine(Seed, static_cast<size_t>(K.Kind));
      hashCombine(Seed, static_cast<size_t>(K.Epoch));
      return Seed;
    }
  };

  mutable std::mutex Mutex;
  std::unordered_map<Key, PortableAnswer, KeyHash> Entries;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
};

} // namespace hotg::smt

#endif // HOTG_SMT_QUERYCACHE_H
