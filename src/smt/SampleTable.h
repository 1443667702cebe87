//===- smt/SampleTable.h - Uninterpreted function samples (IOF) ------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's IOF table (Figure 3, line 13): for every unknown function the
/// concrete input tuples and output values observed at execution time. The
/// samples become the antecedent A of POST(pc) = ∃X : A ⟹ pc and drive the
/// validity solver's function inversion (Section 7).
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_SAMPLETABLE_H
#define HOTG_SMT_SAMPLETABLE_H

#include "smt/Term.h"
#include "support/Hashing.h"

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <span>
#include <unordered_map>

namespace hotg::smt {

/// One recorded sample: output = f(args).
struct Sample {
  FuncId Func = 0;
  std::vector<int64_t> Args;
  int64_t Output = 0;
};

/// Per-session store of input/output samples for uninterpreted functions.
///
/// The paper suggests accumulating pairs "observed during all previous runs"
/// (end of Section 4.3); a SampleTable is therefore shared across the whole
/// directed search and only ever grows.
///
/// Samples are stored per function symbol, so samplesFor() and lookup() —
/// the validity solver's per-node reads — neither scan nor allocate. The
/// lookup index keys on views of the stored argument tuples; a copy
/// re-records every sample so that its index points into its own storage.
class SampleTable {
public:
  SampleTable() = default;
  SampleTable(const SampleTable &Other) { mergeFrom(Other); }
  SampleTable &operator=(const SampleTable &Other);
  SampleTable(SampleTable &&) = default;
  SampleTable &operator=(SampleTable &&) = default;

  /// Records output = f(args); the tuple is copied only when it is new.
  /// Recording a conflicting output for the same argument tuple is a fatal
  /// error (unknown functions are assumed deterministic, Theorem 3's
  /// hypothesis).
  void record(FuncId Func, std::span<const int64_t> Args, int64_t Output);
  void record(FuncId Func, std::initializer_list<int64_t> Args,
              int64_t Output) {
    record(Func, std::span<const int64_t>(Args.begin(), Args.size()), Output);
  }

  /// Returns the recorded output of \p Func at \p Args, if sampled.
  std::optional<int64_t> lookup(FuncId Func,
                                std::span<const int64_t> Args) const;
  std::optional<int64_t> lookup(FuncId Func,
                                std::initializer_list<int64_t> Args) const {
    return lookup(Func, std::span<const int64_t>(Args.begin(), Args.size()));
  }

  /// Returns every sample recorded for \p Func in insertion order. The
  /// reference is valid until the table is next modified.
  const std::vector<Sample> &samplesFor(FuncId Func) const;

  /// Every sample in insertion order, as a range of `const Sample &`.
  class OrderedSamples {
  public:
    class Iterator {
    public:
      Iterator(const SampleTable &Table,
               const std::pair<FuncId, size_t> *Pos)
          : Table(&Table), Pos(Pos) {}
      const Sample &operator*() const {
        return Table->ByFunc[Pos->first][Pos->second];
      }
      const Sample *operator->() const { return &**this; }
      Iterator &operator++() {
        ++Pos;
        return *this;
      }
      bool operator==(const Iterator &Other) const = default;

    private:
      const SampleTable *Table;
      const std::pair<FuncId, size_t> *Pos;
    };

    explicit OrderedSamples(const SampleTable &Table) : Table(Table) {}
    Iterator begin() const { return {Table, Table.Order.data()}; }
    Iterator end() const {
      return {Table, Table.Order.data() + Table.Order.size()};
    }
    size_t size() const { return Table.Order.size(); }

  private:
    const SampleTable &Table;
  };

  /// Returns all samples in insertion order.
  OrderedSamples allSamples() const { return OrderedSamples(*this); }

  /// Returns the sampled argument tuples of \p Func whose output is
  /// \p Output — the hash-inversion query of Section 7.
  std::vector<std::vector<int64_t>> preimagesOf(FuncId Func,
                                                int64_t Output) const;

  /// Copies every sample of \p Other into this table.
  void mergeFrom(const SampleTable &Other);

  /// Serializes every sample as one line "name arity arg... -> output",
  /// resolving symbols through \p Arena. The format survives across
  /// sessions (Section 7: pairs "could still be learned over time" and
  /// reused "in subsequent symbolic executions").
  std::string serialize(const TermArena &Arena) const;

  /// Parses serialize() output, interning function symbols in \p Arena
  /// and recording the samples. Returns false (with a message in
  /// \p Error when non-null) on malformed input; successfully parsed
  /// lines before the failure are kept.
  bool deserialize(std::string_view Text, TermArena &Arena,
                   std::string *Error = nullptr);

  size_t size() const { return Order.size(); }
  bool empty() const { return Order.empty(); }
  void clear();

private:
  /// A sampled point; Args views the argument tuple stored in ByFunc
  /// (or, for a probe, the caller's tuple).
  struct Key {
    FuncId Func;
    std::span<const int64_t> Args;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      size_t Seed = std::hash<FuncId>{}(K.Func);
      hashCombine(Seed, hashRange(K.Args));
      return Seed;
    }
  };
  struct KeyEq {
    bool operator()(const Key &A, const Key &B) const {
      return A.Func == B.Func && std::ranges::equal(A.Args, B.Args);
    }
  };

  /// The samples of each function symbol in insertion order, indexed by
  /// FuncId. Growing a list moves its samples, which keeps every Args
  /// buffer (and so every Index key) in place.
  std::vector<std::vector<Sample>> ByFunc;
  /// (function, position in its ByFunc list) of every sample, in
  /// insertion order.
  std::vector<std::pair<FuncId, size_t>> Order;
  std::unordered_map<Key, int64_t, KeyHash, KeyEq> Index;
};

} // namespace hotg::smt

#endif // HOTG_SMT_SAMPLETABLE_H
