//===- smt/Solver.h - Satisfiability query and answer types ----------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value types of a quantifier-free LIA+EUF satisfiability query: the
/// options a query runs under, its answer, and the work it cost. The
/// solver itself is smt::SolverContext (smt/SolverContext.h); the
/// validity/strategy solver of higher-order test generation
/// (core/ValiditySolver.h) is layered on top of it.
///
/// Every Sat answer is re-verified by evaluating the query under the
/// model, so a Sat result is always trustworthy; Unsat is reported only
/// when propagation refuted every support (a sound proof); everything else
/// is Unknown.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_SOLVER_H
#define HOTG_SMT_SOLVER_H

#include "smt/Model.h"
#include "smt/SampleTable.h"
#include "smt/Term.h"
#include "support/Deadline.h"

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
  /// Wall-clock stop controls (docs/robustness.md). Both are inactive by
  /// default, in which case the search loop never reads the clock and the
  /// solver stays fully deterministic. When the deadline expires (or the
  /// token is cancelled) mid-query the answer degrades to
  /// Unknown{"deadline expired"} / Unknown{"cancelled"} — never a wrong
  /// Sat/Unsat.
  support::Deadline Deadline;
  support::CancelToken Cancel;
};

/// Result of a satisfiability query.
struct SatAnswer {
  SatResult Result = SatResult::Unknown;
  /// Populated when Result == Sat; verified against the query.
  Model ModelValue;
  /// Human-readable explanation for Unknown answers.
  std::string Reason;

  bool isSat() const { return Result == SatResult::Sat; }
  bool isUnsat() const { return Result == SatResult::Unsat; }
};

/// Work of one query, or accumulated across queries. Per-query numbers are
/// also reported through the telemetry event stream (one `solver_check`
/// event per query).
///
/// Every field is a deterministic function of the query stream: it is
/// identical whether a query ran in a reused incremental context or a
/// fresh one.
struct SolverStats {
  unsigned Checks = 0;
  unsigned SupportsExplored = 0;
  unsigned Decisions = 0;
  unsigned Propagations = 0;
};

} // namespace hotg::smt

#endif // HOTG_SMT_SOLVER_H
