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
/// undo: a CongruenceClosure mark, an interval-domain trail, and size
/// snapshots of the append-only vectors).
///
/// The fold invariant is what makes incremental reuse answer-identical to
/// solving from scratch: a fresh context that asserts the same literal
/// sequence reaches byte-identical state, and check() is a deterministic
/// function of that state, so retarget()-style prefix sharing can never
/// change an answer or a per-query statistic (docs/solver.md spells out
/// the determinism argument). smt::Solver::check is a thin wrapper over a
/// fresh context; core::DirectedSearch keeps one context per frontier
/// group; core::ValiditySolver keeps one per query, asserts each grounding
/// choice in its own scopes, and cuts every grounding under a refuted
/// stack.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_SOLVERCONTEXT_H
#define HOTG_SMT_SOLVERCONTEXT_H

#include "smt/CongruenceClosure.h"
#include "smt/Interval.h"
#include "smt/Linear.h"
#include "smt/Solver.h"

#include <map>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hotg::smt {

/// Context-level reuse accounting (scheduling facts, not query work: these
/// describe how much asserted state was shared, and may legitimately vary
/// between serial and speculative schedules that produce identical
/// answers).
struct ContextStats {
  uint64_t ScopePushes = 0;
  uint64_t ScopePops = 0;
  /// Literals retarget() kept asserted instead of re-asserting.
  uint64_t PrefixLiteralsReused = 0;
  /// Propagation rounds spent maintaining base domains at assert time
  /// (charged here, never to per-query SolverStats).
  uint64_t AssertPropagations = 0;
  /// Refutation-memo traffic (EnableRefutationMemo only).
  uint64_t MemoHits = 0;
  uint64_t MemoProbes = 0;
};

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

  /// Asserts comparison literal \p Lit in the current scope (or at the
  /// permanent base level when no scope is open), folding it into the
  /// incremental state: atom registration, congruence facts, and interval
  /// propagation run now, so check() only pays for the search. Returns
  /// false when the literal is outside the linear fragment — the context
  /// is then poisoned (check() answers Unknown) until the owning scope
  /// pops.
  bool assertLiteral(TermId Lit);

  /// Decides the conjunction of every asserted literal. Work is charged to
  /// \p QueryStats; budgets (Options.MaxDecisions) are read from it, so
  /// sharing one QueryStats across several check() calls shares the
  /// budget, matching the one-query-many-supports accounting of
  /// Solver::check.
  SatAnswer check(SolverStats &QueryStats);

  /// Decides an arbitrary boolean formula. Flat conjunctions of
  /// comparisons retarget() this context's assertion stack (the
  /// incremental fast path); disjunctive formulas fall back to support
  /// enumeration in scratch contexts, leaving this context's assertions
  /// untouched. Semantically identical to the historic Solver::check.
  SatAnswer checkFormula(TermId Formula, SolverStats &QueryStats);

  /// checkFormula plus the solver.check telemetry (timer, counters, one
  /// SolverCheck trace event) — what Solver::check emits per query.
  SatAnswer checkFormulaWithTelemetry(TermId Formula,
                                      SolverStats &QueryStats);

  /// check() of the asserted stack with the same per-query telemetry and
  /// cumulative-stats fold as checkFormulaWithTelemetry. For callers that
  /// manage the assertion stack themselves (core::ValiditySolver's
  /// grounding enumeration) and still want one solver.check event per
  /// query.
  SatAnswer checkWithTelemetry(SolverStats &CumStats);

  /// Pops and pushes scopes until the asserted literal stack equals
  /// \p Literals, reusing the longest common prefix (one scope per
  /// literal). Only valid on contexts managed exclusively through
  /// retarget (no base-level assertions, one literal per scope).
  void retarget(std::span<const TermId> Literals);

  /// Drops every scope and base-level assertion; keeps the pure
  /// normalization cache (it is arena-keyed and never stale).
  void reset();

  const SolverOptions &options() const { return Options; }
  const ContextStats &contextStats() const { return Stats; }

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
    /// Base domains snapshot at scope entry (prefix state for the
    /// refutation memo).
    std::vector<Interval> EntryDomains;
    bool PoisonedHere = false;
    bool RefutedHere = false;
    /// Candidate assignments proven refutable (resp. not refutable) by
    /// the prefix ending at this frame; see docs/solver.md.
    std::set<std::pair<TermId, int64_t>> MemoRefuted;
    std::set<std::pair<TermId, int64_t>> MemoUnknown;
  };

  class Engine; // Check-time search engine (SolverContext.cpp).
  friend class Engine;

  void registerAtom(TermId Atom);
  void setDomain(size_t Idx, const Interval &NewDom);
  /// Propagates the asserted rows to their interval fixpoint and records
  /// the tightened base domains; false on an empty domain.
  bool propagateBase();
  /// The shared body of the *WithTelemetry entries: runs \p Check (one
  /// check or checkFormula call) under the solver-check fault site and the
  /// solver.check span and timer, then folds its work into \p CumStats
  /// and emits the per-query telemetry.
  template <typename CheckFn>
  SatAnswer checkWithTelemetryImpl(SolverStats &CumStats, CheckFn Check);
  /// Memo lookup: was (Atom = Value) proven refuted by a still-asserted
  /// prefix?
  bool memoRefuted(TermId Atom, int64_t Value) const;
  /// Called when the search refuted candidate (Atom = Value) under the full
  /// assertion set: probes whether the prefix alone refutes it and records
  /// the verdict in the owning memo.
  void notePrefixCandidate(TermId Atom, int64_t Value);
  /// True when the prefix (everything but the newest scope) refutes
  /// forcing \p Atom to \p Value; the probe half of notePrefixCandidate.
  bool prefixRefutes(TermId Atom, int64_t Value);

  TermArena &Arena;
  SolverOptions Options;
  ContextStats Stats;

  /// Asserted literals, in assertion order (the canonical query).
  std::vector<TermId> Lits;
  /// Original normalized row per processed literal (GJ runs on copies at
  /// check time; these are never mutated, only truncated on pop).
  std::vector<LinearAtom> Rows;
  std::vector<TermId> Atoms;
  std::map<TermId, size_t> AtomIndex;
  /// Base domains: the interval fixpoint of all asserted rows.
  std::vector<Interval> Domains;
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

  /// Memo entries proven against the base level only.
  std::set<std::pair<TermId, int64_t>> BaseMemoRefuted;
  std::set<std::pair<TermId, int64_t>> BaseMemoUnknown;
};

} // namespace hotg::smt

#endif // HOTG_SMT_SOLVERCONTEXT_H
