//===- core/ValiditySolver.h - Test generation from validity proofs ------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validity/strategy solver of higher-order test generation
/// (Section 4.2): decide
///
///     ∀f₁..fₘ ∃X : A ⟹ pc
///
/// where the fᵢ are the uninterpreted function symbols of pc and A is the
/// conjunction of recorded IOF samples — and, when the formula is valid,
/// extract a *test-generation strategy*: a concrete assignment to X in
/// which every UF application is justified by a sample or by congruence.
///
/// Algorithm ("ground-then-verify", generalizing the paper's Section 7
/// procedure): for each conjunctive support of pc, enumerate groundings of
/// its UF applications — bind an application's arguments to a recorded
/// sample tuple, pair it with an earlier application of the same symbol
/// (the congruence move behind Example 5), or leave it unbound — solve the
/// resulting existential LIA+EUF problem, and then verify that the model
/// *forces* every literal for all interpretations of the unbound
/// applications (net coefficient of every unbound congruence class must be
/// zero). Models that fail only because some literal depends on an unbound
/// application at concrete arguments yield a *learning plan*: run an
/// intermediate test to sample the function there (multi-step test
/// generation, Example 7).
///
/// The enumeration is one depth-first search over an incremental solver
/// context: each choice's literals are asserted when it is made and popped
/// on backtrack, so a partial grounding refuted at assert time cuts its
/// whole subtree, and only complete groundings reach the inner solver's
/// search. A sample binding the context's domains already exclude is cut
/// the same way before it is asserted (docs/solver.md).
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_CORE_VALIDITYSOLVER_H
#define HOTG_CORE_VALIDITYSOLVER_H

#include "dse/Summary.h"
#include "smt/Model.h"
#include "smt/SampleTable.h"
#include "smt/Solver.h"
#include "smt/Term.h"

#include <memory>
#include <string>
#include <vector>

namespace hotg::core {

/// Outcome of a validity query.
enum class ValidityStatus : uint8_t {
  /// A strategy exists: ModelValue assigns X so that pc holds for every
  /// interpretation of the function symbols consistent with the samples.
  Valid,
  /// No strategy was found (the formula is invalid or beyond the solver's
  /// groundings); no learning opportunity either.
  NotValid,
  /// No one-shot strategy, but sampling the functions in `Learn` at the
  /// argument tuples reached by `ModelValue` may enable one — the paper's
  /// multi-step test generation.
  NeedsSamples,
  /// Budgets exhausted.
  Unknown,
};

/// Returns "valid"/"not-valid"/"needs-samples"/"unknown".
const char *validityStatusName(ValidityStatus Status);

/// One sampling obligation of a multi-step plan.
struct LearnRequest {
  smt::FuncId Func = 0;
  std::vector<int64_t> Args;
};

/// Result of ValiditySolver::checkPost.
struct ValidityAnswer {
  ValidityStatus Status = ValidityStatus::Unknown;
  /// Valid: the strategy's input assignment. NeedsSamples: the candidate
  /// intermediate input assignment whose run learns the missing samples.
  smt::Model ModelValue;
  /// NeedsSamples: the function points that must be observed.
  std::vector<LearnRequest> Learn;
  std::string Reason;
};

/// Tuning knobs.
struct ValidityOptions {
  /// Maximum groundings (tried or pruned) explored per query, across all
  /// of its supports.
  unsigned MaxGroundings = 2048;
  /// Maximum conjunctive supports of pc explored.
  unsigned MaxSupports = 128;
  /// Enable multi-step learning plans.
  bool AllowLearning = true;
  /// How strategies are searched for (see StrategyMode).
  enum class StrategyMode : uint8_t {
    /// The full procedure of this reproduction: enumerate sample/congruence
    /// groundings and verify forcedness.
    GroundThenVerify,
    /// The paper's Section 7 "partial implementation": rewrite literals of
    /// the form f(args) = c into the disjunction of sampled preimages and
    /// fall back to plain satisfiability. "Simple to implement but handles
    /// only limited cases" — kept as a comparable baseline; no congruence
    /// strategies (Example 5), no antecedent arithmetic (Example 6), no
    /// learning plans (Example 7).
    AdHocInversion,
  } Mode = StrategyMode::GroundThenVerify;
  /// Summaries of MiniLang functions (Section 8's compositional
  /// extension): `sum:<name>` applications may be grounded by
  /// instantiating a recorded disjunct instead of a concrete sample.
  /// Null disables compositional grounding.
  const dse::SummaryTable *Summaries = nullptr;
  /// Options of the inner existential LIA+EUF solver.
  smt::SolverOptions SolverOpts;
};

/// Statistics of the last checkPost call. GroundingsTried counts complete
/// groundings checked by the inner solver; GroundingsPruned counts the
/// groundings of subtrees cut because a partial grounding's literals are
/// refuted, at assert time or by the domains before it (each would have
/// answered Unsat).
/// Tried + Pruned is the enumeration size, and both spend the
/// MaxGroundings budget one unit per grounding.
struct ValidityStats {
  unsigned SupportsExplored = 0;
  unsigned GroundingsTried = 0;
  unsigned GroundingsPruned = 0;
};

class SupportValidity; // The per-support enumeration (ValiditySolver.cpp).

/// Decides POST(pc) validity and extracts strategies.
///
/// One solver may answer many queries: the enumeration state and its
/// incremental solver context are kept between checkPost calls (every
/// query pops the context back to its empty stack, which restores exactly
/// the state of a fresh one), so a long-lived solver reuses their buffers.
class ValiditySolver {
public:
  /// \p Samples is the IOF table forming the antecedent A; it must outlive
  /// the solver. Pass an empty table to reproduce the "no antecedent"
  /// ablation (Example 4 / Example 6 failures).
  ValiditySolver(smt::TermArena &Arena, const smt::SampleTable &Samples,
                 ValidityOptions Options = {});
  ~ValiditySolver();

  ValiditySolver(const ValiditySolver &) = delete;
  ValiditySolver &operator=(const ValiditySolver &) = delete;

  /// Decides ∀F ∃X : A ⟹ \p PathCondition.
  ValidityAnswer checkPost(smt::TermId PathCondition);

private:
  /// checkPost minus telemetry (mode dispatch and support enumeration).
  ValidityAnswer checkPostImpl(smt::TermId PathCondition);

  /// The Section 7 baseline procedure (StrategyMode::AdHocInversion).
  ValidityAnswer checkAdHoc(smt::TermId PathCondition);

public:

  const ValidityStats &stats() const { return Stats; }

private:
  smt::TermArena &Arena;
  const smt::SampleTable &Samples;
  ValidityOptions Options;
  ValidityStats Stats;
  /// Created by the first ground-then-verify query.
  std::unique_ptr<SupportValidity> Support;
};

} // namespace hotg::core

#endif // HOTG_CORE_VALIDITYSOLVER_H
