//===- tests/test_smt_cores.cpp - Unsat cores and core-guided pruning -----------===//
//
// Coverage for unsat-core extraction (docs/solver.md): cores are
// probe-verified subsets of the asserted literals that refute on their
// own; extraction never changes an answer; and core-guided grounding
// pruning in the validity solver skips groundings without changing the
// enumeration or its outcome.
//
//===----------------------------------------------------------------------===//

#include "core/ValiditySolver.h"
#include "smt/Solver.h"
#include "smt/SolverContext.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hotg;
using namespace hotg::smt;

namespace {

//===----------------------------------------------------------------------===//
// Unsat-core extraction
//===----------------------------------------------------------------------===//

class UnsatCoreTest : public ::testing::Test {
protected:
  TermArena Arena;
  SampleTable Samples;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId Z = Arena.mkVar("z");
  FuncId F = Arena.getOrCreateFunc("f", 1);

  TermId f(TermId T) { return Arena.mkUFApp(F, {{T}}); }
  TermId c(int64_t V) { return Arena.mkIntConst(V); }

  SatAnswer checkCore(const std::vector<TermId> &Lits) {
    SolverOptions Options;
    Options.Samples = &Samples;
    Options.ExtractUnsatCores = true;
    Solver S(Arena, Options);
    return S.checkConjunction(Lits);
  }

  SatResult resultOf(const std::vector<TermId> &Lits) {
    SolverOptions Options;
    Options.Samples = &Samples;
    Solver S(Arena, Options);
    return S.checkConjunction(Lits).Result;
  }

  /// The core property: the core is a subset of the asserted literals
  /// and refutes on its own. Cores are not minimized, so padding literals
  /// may remain.
  void expectStandaloneCore(const std::vector<TermId> &Input,
                            const std::vector<TermId> &Core) {
    ASSERT_FALSE(Core.empty());
    for (TermId L : Core)
      EXPECT_NE(std::find(Input.begin(), Input.end(), L), Input.end())
          << "core literal not in the input: " << Arena.toString(L);
    EXPECT_EQ(resultOf(Core), SatResult::Unsat)
        << "the core must refute standalone";
  }
};

TEST_F(UnsatCoreTest, IntervalContradictionCoreIsStandaloneUnsat) {
  std::vector<TermId> Lits{Arena.mkLe(c(0), Y), Arena.mkLe(c(0), Z),
                           Arena.mkLe(c(5), X), Arena.mkLe(X, c(3))};
  SatAnswer Answer = checkCore(Lits);
  ASSERT_EQ(Answer.Result, SatResult::Unsat);
  expectStandaloneCore(Lits, Answer.UnsatCore);
}

TEST_F(UnsatCoreTest, CongruenceConflictCore) {
  // x = y forces f(x) = f(y); the padding z bound is irrelevant.
  std::vector<TermId> Lits{Arena.mkLe(c(17), Z), Arena.mkEq(X, Y),
                           Arena.mkEq(f(X), c(0)),
                           Arena.mkEq(f(Y), c(1))};
  SatAnswer Answer = checkCore(Lits);
  ASSERT_EQ(Answer.Result, SatResult::Unsat);
  expectStandaloneCore(Lits, Answer.UnsatCore);
}

TEST_F(UnsatCoreTest, SamplePinConflictCore) {
  Samples.record(F, {1}, 2);
  std::vector<TermId> Lits{Arena.mkLe(Y, c(9)), Arena.mkEq(X, c(1)),
                           Arena.mkEq(f(X), c(3))};
  SatAnswer Answer = checkCore(Lits);
  ASSERT_EQ(Answer.Result, SatResult::Unsat);
  expectStandaloneCore(Lits, Answer.UnsatCore);
}

TEST_F(UnsatCoreTest, DisjunctiveFormulaUnionsPerSupportCores) {
  // Each disjunct is refuted by its own pair of bounds; the reported core
  // is the union, and the union still refutes conjunctively.
  TermId Left = Arena.mkAnd(Arena.mkLe(c(5), X), Arena.mkLe(X, c(3)));
  TermId Right = Arena.mkAnd(Arena.mkLe(c(7), Y), Arena.mkLe(Y, c(2)));
  SolverOptions Options;
  Options.ExtractUnsatCores = true;
  Solver S(Arena, Options);
  SatAnswer Answer = S.check(Arena.mkOr(Left, Right));
  ASSERT_EQ(Answer.Result, SatResult::Unsat);
  ASSERT_FALSE(Answer.UnsatCore.empty());
  EXPECT_EQ(resultOf(Answer.UnsatCore), SatResult::Unsat);
}

TEST_F(UnsatCoreTest, ExtractionNeverChangesTheAnswer) {
  // Differential: the same queries with extraction off — identical
  // Result and model on the sat side, identical Result on the unsat side.
  Samples.record(F, {1}, 2);
  std::vector<std::vector<TermId>> Queries{
      {Arena.mkLe(c(5), X), Arena.mkLe(X, c(3))},
      {Arena.mkEq(X, Y), Arena.mkEq(f(X), c(0)), Arena.mkEq(f(Y), c(1))},
      {Arena.mkEq(X, c(1)), Arena.mkEq(f(X), c(3))},
      {Arena.mkLe(c(3), X), Arena.mkLt(X, Y), Arena.mkLe(Y, c(5))},
  };
  for (const auto &Q : Queries) {
    SatAnswer WithCores = checkCore(Q);
    SatResult Plain = resultOf(Q);
    EXPECT_EQ(WithCores.Result, Plain);
    if (WithCores.Result != SatResult::Unsat) {
      EXPECT_TRUE(WithCores.UnsatCore.empty());
    }
  }
}

//===----------------------------------------------------------------------===//
// Structured unknown reasons
//===----------------------------------------------------------------------===//

TEST(UnknownReasonCounters, DecisionBudgetSubCounterIsBumped) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  uint64_t Before = Reg.counter("solver.unknown.decision_budget").value();

  TermArena Arena;
  TermId X = Arena.mkVar("x");
  SolverOptions Options;
  Options.MaxDecisions = 0;
  SolverContext Ctx(Arena, Options);
  SolverStats Stats;
  SatAnswer Answer = Ctx.checkFormulaWithTelemetry(
      Arena.mkAnd(Arena.mkLe(Arena.mkIntConst(3), X),
                  Arena.mkLt(X, Arena.mkIntConst(9))),
      Stats);
  ASSERT_EQ(Answer.Result, SatResult::Unknown);
  EXPECT_EQ(Answer.Reason, "decision budget exhausted");
  EXPECT_EQ(Reg.counter("solver.unknown.decision_budget").value(),
            Before + 1);
}

//===----------------------------------------------------------------------===//
// Core-guided grounding pruning in the validity solver
//===----------------------------------------------------------------------===//

class CorePruningTest : public ::testing::Test {
protected:
  TermArena Arena;
  SampleTable Samples;
  TermId X = Arena.mkVar("x");
  FuncId F = Arena.getOrCreateFunc("f", 1);

  TermId f(TermId T) { return Arena.mkUFApp(F, {{T}}); }
  TermId c(int64_t V) { return Arena.mkIntConst(V); }

  std::pair<core::ValidityAnswer, core::ValidityStats>
  solve(TermId Pc, bool Pruning) {
    core::ValidityOptions Options;
    Options.CoreGuidedPruning = Pruning;
    core::ValiditySolver Solver(Arena, Samples, Options);
    core::ValidityAnswer Answer = Solver.checkPost(Pc);
    return {std::move(Answer), Solver.stats()};
  }
};

TEST_F(CorePruningTest, SiblingGroundingsSharingACoreAreSkipped) {
  // The support literals alone are contradictory (f(x) can't equal both
  // 1 and 2), so the first grounding's core refutes every sibling before
  // the inner solver sees it.
  Samples.record(F, {0}, 1);
  Samples.record(F, {1}, 1);
  Samples.record(F, {2}, 1);
  TermId Pc = Arena.mkAnd(Arena.mkEq(f(X), c(1)), Arena.mkEq(f(X), c(2)));

  auto [Off, OffStats] = solve(Pc, false);
  auto [On, OnStats] = solve(Pc, true);

  EXPECT_EQ(On.Status, Off.Status);
  EXPECT_EQ(OffStats.GroundingsPruned, 0u);
  EXPECT_GT(OnStats.GroundingsPruned, 0u)
      << "sibling groundings of the contradictory support must be pruned";
  EXPECT_LT(OnStats.GroundingsTried, OffStats.GroundingsTried);
  EXPECT_EQ(OnStats.GroundingsTried + OnStats.GroundingsPruned,
            OffStats.GroundingsTried + OffStats.GroundingsPruned)
      << "pruning must not change the enumeration size";
}

TEST_F(CorePruningTest, PrunedGroundingsSpendTheBudget) {
  // A pruned grounding behaves exactly like an Unsat answer, including
  // its budget unit: the grounding-budget Unknown fires at the same point
  // with pruning on or off.
  Samples.record(F, {0}, 1);
  Samples.record(F, {1}, 1);
  Samples.record(F, {2}, 1);
  TermId Pc = Arena.mkAnd(Arena.mkEq(f(X), c(1)), Arena.mkEq(f(X), c(2)));

  core::ValidityOptions Options;
  Options.MaxGroundings = 2;
  for (bool Pruning : {false, true}) {
    Options.CoreGuidedPruning = Pruning;
    core::ValiditySolver Solver(Arena, Samples, Options);
    core::ValidityAnswer A = Solver.checkPost(Pc);
    EXPECT_EQ(A.Status, core::ValidityStatus::Unknown)
        << "pruning=" << Pruning;
    EXPECT_EQ(A.Reason, "grounding budget exhausted")
        << "pruning=" << Pruning;
    EXPECT_EQ(Solver.stats().GroundingsTried +
                  Solver.stats().GroundingsPruned,
              2u)
        << "pruning=" << Pruning;
  }
}

TEST_F(CorePruningTest, ValidAnswersSurvivePruning) {
  // A satisfiable strategy query: pruning must not skip the grounding
  // that carries the strategy.
  Samples.record(F, {42}, 567);
  TermId Y = Arena.mkVar("y");
  TermId Pc = Arena.mkEq(X, f(Y));
  auto [Off, OffStats] = solve(Pc, false);
  auto [On, OnStats] = solve(Pc, true);
  ASSERT_EQ(Off.Status, core::ValidityStatus::Valid);
  ASSERT_EQ(On.Status, core::ValidityStatus::Valid);
  EXPECT_EQ(On.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1),
            Off.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1));
  EXPECT_EQ(On.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1),
            Off.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1));
}

} // namespace
