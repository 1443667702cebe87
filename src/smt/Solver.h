//===- smt/Solver.h - Quantifier-free LIA+EUF satisfiability ---------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint solver used by classic (DART-style) test generation: given
/// a quantifier-free formula over linear integer arithmetic with
/// uninterpreted functions, find a satisfying assignment or prove there is
/// none. The validity/strategy solver of higher-order test generation
/// (core/ValiditySolver.h) is layered on top of the same machinery.
///
/// Architecture: the boolean structure is split into conjunctive supports
/// (formulas produced by symbolic execution are small); each support is
/// decided by congruence closure + interval bound propagation + value
/// branching with sample-guided candidate selection. Every SAT answer is
/// re-verified by evaluating the formula under the model, so a SAT result
/// is always trustworthy; UNSAT is reported only when every support was
/// refuted by propagation (a sound proof); everything else is UNKNOWN.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_SOLVER_H
#define HOTG_SMT_SOLVER_H

#include "smt/Model.h"
#include "smt/SampleTable.h"
#include "smt/Term.h"
#include "support/Deadline.h"

#include <span>
#include <string>

namespace hotg::smt {

/// Outcome of a satisfiability query.
enum class SatResult { Sat, Unsat, Unknown };

/// Returns "sat"/"unsat"/"unknown".
const char *satResultName(SatResult Result);

/// Tuning knobs for the solver.
struct SolverOptions {
  /// Preferred domain for otherwise-unconstrained branch candidates.
  int64_t PreferredLo = -1000000;
  int64_t PreferredHi = 1000000;
  /// Enumerate a finite domain exhaustively when at most this wide.
  int64_t SmallDomainWidth = 16;
  /// Maximum branching candidates for an under-constrained atom.
  unsigned MaxBranchCandidates = 16;
  /// Search-node budget across all supports of one query.
  unsigned MaxDecisions = 20000;
  /// Maximum number of conjunctive supports explored per query.
  unsigned MaxSupports = 512;
  /// Optional IOF table: constrains UF applications at sampled points and
  /// seeds branching candidates (the Section 7 hash-inversion behaviour).
  const SampleTable *Samples = nullptr;
  /// Deterministic seed for probe candidates.
  uint64_t Seed = 0x5eed;
  /// SolverContext only: memoize candidate assignments the asserted
  /// *prefix* already refutes, and skip them without spending a decision
  /// in later checks over the same prefix. Off by default because it makes
  /// per-query decision counts depend on which checks ran earlier in the
  /// same context; core::ValiditySolver turns it on (its contexts live
  /// inside one query, so the query stays deterministic), and
  /// core::DirectedSearch keeps it off to preserve the jobs-invariant
  /// stats (docs/solver.md).
  bool EnableRefutationMemo = false;
  /// Wall-clock stop controls (docs/robustness.md). Both are inactive by
  /// default, in which case the search loop never reads the clock and the
  /// solver stays fully deterministic. When the deadline expires (or the
  /// token is cancelled) mid-query the answer degrades to
  /// Unknown{"deadline expired"} / Unknown{"cancelled"} — never a wrong
  /// Sat/Unsat.
  support::Deadline Deadline;
  support::CancelToken Cancel;
};

/// Result of Solver::check.
struct SatAnswer {
  SatResult Result = SatResult::Unknown;
  /// Populated when Result == Sat; verified against the query.
  Model ModelValue;
  /// Human-readable explanation for Unknown answers.
  std::string Reason;

  bool isSat() const { return Result == SatResult::Sat; }
  bool isUnsat() const { return Result == SatResult::Unsat; }
};

/// Statistics accumulated across every check() call since construction (or
/// the last resetStats()). Per-query numbers are reported through the
/// telemetry event stream (one `solver_check` event per query).
///
/// Checks/SupportsExplored/Decisions/Propagations are deterministic
/// functions of the query stream: they are identical whether a query ran
/// in a reused incremental context, a fresh one, or on a parallel worker.
/// The Scope*/PrefixLiteralsReused fields describe how much asserted
/// state was shared, which depends on the schedule (like
/// SearchResult::CacheHits) — identical answers, varying reuse.
struct SolverStats {
  unsigned Checks = 0;
  unsigned SupportsExplored = 0;
  unsigned Decisions = 0;
  unsigned Propagations = 0;
  uint64_t ScopePushes = 0;
  uint64_t ScopePops = 0;
  uint64_t PrefixLiteralsReused = 0;
};

/// Quantifier-free LIA+EUF satisfiability solver.
class Solver {
public:
  explicit Solver(TermArena &Arena, SolverOptions Options = {})
      : Arena(Arena), Options(Options) {}

  /// Decides boolean formula \p Formula.
  SatAnswer check(TermId Formula);

  /// Decides the conjunction of \p Literals.
  SatAnswer checkConjunction(std::span<const TermId> Literals);

  const SolverStats &stats() const { return Stats; }
  void resetStats() { Stats = SolverStats{}; }
  const SolverOptions &options() const { return Options; }
  void setOptions(const SolverOptions &NewOptions) { Options = NewOptions; }

private:
  TermArena &Arena;
  SolverOptions Options;
  SolverStats Stats;
};

} // namespace hotg::smt

#endif // HOTG_SMT_SOLVER_H
