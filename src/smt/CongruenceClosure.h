//===- smt/CongruenceClosure.h - EUF congruence closure ---------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Congruence closure over hash-consed terms: union-find with congruence
/// propagation (f(a) = f(b) whenever a = b) and disequality tracking. All
/// operators — including arithmetic ones — are treated as uninterpreted
/// here; arithmetic reasoning is layered on top by the theory solver. This
/// is the T_EUF half of the paper's T ∪ T_EUF, and what makes Example 5
/// (∀x,y with x=y: f(x)=f(y)) provable.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_CONGRUENCECLOSURE_H
#define HOTG_SMT_CONGRUENCECLOSURE_H

#include "smt/Term.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace hotg::smt {

/// Incremental congruence closure with constants and disequalities.
///
/// Conflicts arise when (a) two distinct integer constants are merged, or
/// (b) a merge joins two classes asserted distinct.
///
/// Backtracking: mark() opens an undo scope; every mutation after it —
/// union-find writes (including path compression), constant assignments,
/// disequality edges, use-list and signature-table growth, and the
/// conflict flag — is logged on a trail, and rollbackTo() restores the
/// exact pre-mark state. Marks nest and must be released LIFO. While no
/// mark is outstanding nothing is logged, so non-scoped use stays free.
class CongruenceClosure {
public:
  explicit CongruenceClosure(const TermArena &Arena) : Arena(Arena) {}

  /// A rollback point for the undo trail (see mark/rollbackTo).
  struct Mark {
    size_t TrailSize = 0;
    bool Conflict = false;
    std::vector<std::pair<TermId, TermId>> Pending;
  };

  /// Opens an undo scope: mutations are logged until the matching
  /// rollbackTo. Scopes nest (LIFO).
  Mark mark();

  /// Restores the exact state captured by \p M (including leaving a
  /// conflict entered inside the scope) and closes the scope.
  void rollbackTo(const Mark &M);

  /// Registers \p Term and all of its subterms.
  void addTerm(TermId Term);

  /// Asserts \p A = \p B (registering both). Returns false on conflict.
  bool assertEqual(TermId A, TermId B);

  /// Asserts \p A ≠ \p B (registering both). Returns false on conflict.
  bool assertDistinct(TermId A, TermId B);

  /// True when the asserted facts are contradictory.
  bool inConflict() const { return Conflict; }

  /// True when \p A and \p B are known equal (both are registered on
  /// demand, which may trigger congruence merges).
  bool areEqual(TermId A, TermId B);

  /// True when \p A and \p B are known distinct (asserted, via congruence,
  /// or by distinct constants). Registers both on demand.
  bool areDistinct(TermId A, TermId B);

  /// The integer constant of \p Term's class, if any member is a constant.
  /// Registers \p Term on demand.
  std::optional<int64_t> constantOf(TermId Term);

  /// Representative term of \p Term's class (for canonical grouping).
  TermId findRepr(TermId Term);

  /// Class unions performed so far, including ones later rolled back: a
  /// caller compares two readings to learn whether any class (and so any
  /// class constant) changed in between.
  size_t numMerges() const { return Merges; }

private:
  bool merge(TermId A, TermId B);
  void propagate();
  /// Fills \p Out with the congruence key of \p Term: kind/payload plus
  /// representative operand classes.
  void signatureOf(TermId Term, std::vector<uint64_t> &Out);
  /// Files \p Term under its signature, queueing a merge with every
  /// registered term of the same signature.
  void insertSignature(TermId Term);

  /// One logged mutation; applied in reverse on rollback.
  struct UndoRecord {
    enum class Kind : uint8_t {
      ParentInsert,    ///< addTerm registered A: erase Terms[A].
      ParentWrite,     ///< Terms[A].Parent had value B (merge root,
                       ///< compression).
      ConstWrite,      ///< Terms[A].Constant had value OldConst.
      DistinctInsert,  ///< Distincts[A].insert(B): erase it.
      DistinctErase,   ///< Distincts[A].erase(B): re-insert it.
      DistinctSetErase,///< Distincts.erase(A): restore SavedSets.back().
      UseAppend,       ///< UseList[A].push_back: pop it.
      UseSetErase,     ///< UseList.erase(A): restore SavedVecs.back().
      SigAppend,       ///< SigTable[Hash].push_back: pop it.
    };
    Kind K;
    TermId A = InvalidTerm;
    TermId B = InvalidTerm;
    size_t Hash = 0;
    std::optional<int64_t> OldConst = std::nullopt;
  };

  bool recording() const { return OutstandingMarks != 0; }
  void log(UndoRecord R) {
    if (recording())
      Trail.push_back(std::move(R));
  }

  const TermArena &Arena;
  bool Conflict = false;
  size_t OutstandingMarks = 0;
  size_t Merges = 0;
  std::vector<UndoRecord> Trail;
  /// The erased containers of DistinctSetErase / UseSetErase records, in
  /// trail order.
  std::vector<std::unordered_set<TermId>> SavedSets;
  std::vector<std::vector<TermId>> SavedVecs;
  /// Reused signatureOf buffers.
  std::vector<uint64_t> SigBuf, OtherSigBuf;

  /// Union-find parent and class constant of every registered term (the
  /// constant is read on class representatives), in one entry so that a
  /// registration or a lookup costs one hash probe.
  struct TermInfo {
    TermId Parent;
    std::optional<int64_t> Constant;
  };
  std::unordered_map<TermId, TermInfo> Terms;
  /// For each class representative, the set of class reps it is distinct
  /// from.
  std::unordered_map<TermId, std::unordered_set<TermId>> Distincts;
  /// Terms whose signature may change when a class is merged.
  std::unordered_map<TermId, std::vector<TermId>> UseList;
  /// Signature table mapping congruence keys to a witness term.
  std::unordered_map<size_t, std::vector<TermId>> SigTable;

  std::vector<std::pair<TermId, TermId>> Pending;
};

} // namespace hotg::smt

#endif // HOTG_SMT_CONGRUENCECLOSURE_H
