//===- smt/SolverContext.h - Incremental solver contexts -------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental satisfiability solving with a scoped assertion stack. A
/// SolverContext owns the full theory state of one conjunction of
/// comparison literals — normalized linear rows, the solver atom list,
/// congruence closure, and interval base domains — and maintains it as a
/// *fold* over assertLiteral() calls. push() opens a scope; pop() rolls
/// every state component back to the exact pre-push state (trail-based
/// undo: a CongruenceClosure mark, an interval-domain trail, size
/// snapshots of the append-only vectors, and tail truncation of the
/// propagation watch lists).
///
/// The fold invariant is what makes incremental reuse answer-identical to
/// solving from scratch: a fresh context that asserts the same literal
/// sequence reaches byte-identical state, and check() is a deterministic
/// function of that state, so retarget()-style prefix sharing can never
/// change an answer or a per-query statistic (docs/solver.md spells out
/// the determinism argument). It is the one solver object: every query
/// is a check() of an asserted stack or a checkFormula() of a formula.
/// core::DirectedSearch keeps one context for its satisfiability queries;
/// core::ValiditySolver keeps one per query, asserts
/// each grounding choice in its own scopes, and cuts every grounding under
/// a refuted stack; the §7 ad-hoc baseline checks its rewritten formula in
/// a fresh one.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_SOLVERCONTEXT_H
#define HOTG_SMT_SOLVERCONTEXT_H

#include "smt/CongruenceClosure.h"
#include "smt/Interval.h"
#include "smt/Linear.h"
#include "smt/Solver.h"

#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hotg::smt {

/// An incremental LIA+EUF context: a scoped stack of asserted comparison
/// literals plus the theory state derived from them.
class SolverContext {
public:
  explicit SolverContext(TermArena &Arena, SolverOptions Options = {});
  ~SolverContext();

  SolverContext(const SolverContext &) = delete;
  SolverContext &operator=(const SolverContext &) = delete;

  /// Opens a scope. Subsequent assertLiteral() calls land in it.
  void push();

  /// Discards the newest scope, restoring the exact prior state.
  void pop();

  size_t numScopes() const { return Frames.size(); }
  size_t numAssertedLiterals() const { return Lits.size(); }
  /// The asserted literals, in assertion order.
  std::span<const TermId> literals() const { return Lits; }

  /// True when an assertLiteral() call refuted the asserted stack
  /// (congruence conflict or an empty domain at the propagation fixpoint).
  /// Sticky until the refuting scope pops: every extension of a refuted
  /// stack is refuted too, and check() answers Unsat without searching.
  bool refuted() const { return RefutedAt.has_value(); }

  /// True when \p Atom is a registered solver atom whose base domain (the
  /// assert-time propagation result) does not contain \p Value: no model
  /// of the stack that agrees with the sample table has `Atom = Value`.
  /// Changes no state. False for a term that is not an atom of the
  /// asserted literals.
  bool excludes(TermId Atom, int64_t Value) const;

  /// Asserts comparison literal \p Lit in the current scope (or at the
  /// permanent base level when no scope is open), folding it into the
  /// incremental state: atom registration, congruence facts, and interval
  /// propagation run now, so check() only pays for the search. Returns
  /// false when the literal is outside the linear fragment — the context
  /// is then poisoned (check() answers Unknown) until the owning scope
  /// pops.
  bool assertLiteral(TermId Lit);

  /// Decides the conjunction of every asserted literal: one query, with
  /// the solver.check telemetry (the solver-check fault site, timer, span,
  /// counters and one SolverCheck trace event). The query's work is
  /// charged to a fresh per-query SolverStats, so budgets
  /// (Options.MaxDecisions) are per query, and then folded into
  /// \p CumStats.
  SatAnswer check(SolverStats &CumStats);

  /// Decides an arbitrary boolean formula as one query, with the same
  /// telemetry and fold as check(). Flat conjunctions of comparisons
  /// retarget() this context's assertion stack (the incremental fast
  /// path); disjunctive formulas fall back to support enumeration in
  /// scratch contexts, leaving this context's assertions untouched.
  SatAnswer checkFormula(TermId Formula, SolverStats &CumStats);

  /// Pops and pushes scopes until the asserted literal stack equals
  /// \p Literals, reusing the longest common prefix (one scope per
  /// literal). Only valid on contexts managed exclusively through
  /// retarget (no base-level assertions, one literal per scope).
  void retarget(std::span<const TermId> Literals);

  /// Flattens simplify(\p Formula) into its comparison literals, in
  /// source order. nullopt when the formula has disjunctive structure (or
  /// simplifies to a boolean constant). This is the shared decomposition
  /// used by checkFormula, retarget callers, and PathConstraint.
  static std::optional<std::vector<TermId>>
  conjunctiveLiterals(TermArena &Arena, TermId Formula);

private:
  struct Frame {
    size_t LitSize = 0;
    size_t AtomSize = 0;
    size_t RowSize = 0;
    CongruenceClosure::Mark CCMark;
    /// (index, previous value) for base-domain cells overwritten in this
    /// scope; replayed in reverse on pop.
    std::vector<std::pair<size_t, Interval>> DomainTrail;
  };

  /// Row or atom indices, one list per atom (or per function symbol): what
  /// propagation revisits when that atom's domain narrows.
  using WatchLists = std::vector<std::vector<uint32_t>>;

  class Engine; // Propagation and value search (SolverContext.cpp).
  friend class Engine;

  void registerAtom(TermId Atom);
  /// The raw query bodies behind check() and checkFormula(): no
  /// telemetry, work charged to \p QueryStats. The scratch contexts of the
  /// disjunctive path call solve() directly, so one query emits one event.
  SatAnswer solve(SolverStats &QueryStats);
  SatAnswer solveFormula(TermId Formula, SolverStats &QueryStats);
  /// Runs \p Solve (one solve or solveFormula call) under the
  /// solver-check fault site and the solver.check span and timer, then
  /// folds its work into \p CumStats and emits the per-query telemetry.
  template <typename SolveFn>
  SatAnswer instrumented(SolverStats &CumStats, SolveFn Solve);

  TermArena &Arena;
  SolverOptions Options;

  /// Asserted literals, in assertion order (the canonical query).
  std::vector<TermId> Lits;
  /// Original normalized row per processed literal (GJ runs on copies at
  /// check time; these are never mutated, only truncated on pop).
  std::vector<LinearAtom> Rows;
  std::vector<TermId> Atoms;
  std::unordered_map<TermId, size_t> AtomIndex;
  /// Base domains: the interval fixpoint of all asserted rows.
  std::vector<Interval> Domains;

  /// What propagation must revisit when an atom's domain narrows, kept
  /// with the atom and row vectors and truncated LIFO by pop(). RowWatches
  /// and ArgUsers are indexed by atom; AppArgs holds each application's
  /// argument forms (empty for variables), extracted once at registration;
  /// FuncApps lists the application atoms of each function symbol.
  WatchLists RowWatches;
  WatchLists ArgUsers;
  std::vector<std::vector<LinearExpr>> AppArgs;
  WatchLists FuncApps;

  CongruenceClosure CC;

  /// Pure memo of normalizeComparison results (never rolled back).
  std::unordered_map<TermId, std::optional<LinearAtom>> NormCache;

  std::vector<Frame> Frames;
  /// Scope depth (Frames.size() at the time; 0 = base level) that poisoned /
  /// refuted the context; sticky until the owning scope pops. Asserts after
  /// either flag are recorded but not processed (matching the from-scratch
  /// fold).
  std::optional<size_t> PoisonedAt;
  std::optional<size_t> RefutedAt;
};

} // namespace hotg::smt

#endif // HOTG_SMT_SOLVERCONTEXT_H
