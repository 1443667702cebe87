//===- tests/test_smt_incremental.cpp - Incremental solver contexts -------------===//
//
// The incremental architecture (docs/solver.md) rests on one invariant:
// a SolverContext's state is a fold over its asserted literal sequence,
// and pop() restores the exact pre-push state. These tests pin the
// invariant at two levels — the CongruenceClosure undo trail and the
// SolverContext scope stack (including retarget prefix sharing). Across
// commits, tests/golden/ pins the search output these contexts produce.
//
//===----------------------------------------------------------------------===//

#include "smt/CongruenceClosure.h"
#include "smt/SolverContext.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace hotg;
using namespace hotg::smt;

namespace {

//===----------------------------------------------------------------------===//
// CongruenceClosure undo trail
//===----------------------------------------------------------------------===//

class CongruenceTrailTest : public ::testing::Test {
protected:
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId Z = Arena.mkVar("z");
};

TEST_F(CongruenceTrailTest, RollbackUndoesMerges) {
  CongruenceClosure CC(Arena);
  ASSERT_TRUE(CC.assertEqual(X, Y));
  CongruenceClosure::Mark M = CC.mark();
  ASSERT_TRUE(CC.assertEqual(Y, Z));
  EXPECT_TRUE(CC.areEqual(X, Z));
  CC.rollbackTo(M);
  EXPECT_TRUE(CC.areEqual(X, Y)) << "pre-mark fact must survive";
  EXPECT_FALSE(CC.areEqual(X, Z)) << "in-scope merge must be undone";
}

TEST_F(CongruenceTrailTest, RollbackUndoesConflict) {
  CongruenceClosure CC(Arena);
  TermId One = Arena.mkIntConst(1);
  TermId Two = Arena.mkIntConst(2);
  ASSERT_TRUE(CC.assertEqual(X, One));
  CongruenceClosure::Mark M = CC.mark();
  EXPECT_FALSE(CC.assertEqual(X, Two)) << "1 = 2 is a conflict";
  EXPECT_TRUE(CC.inConflict());
  CC.rollbackTo(M);
  EXPECT_FALSE(CC.inConflict());
  ASSERT_TRUE(CC.constantOf(X).has_value());
  EXPECT_EQ(*CC.constantOf(X), 1);
}

TEST_F(CongruenceTrailTest, RollbackUndoesCongruenceAndDisequalities) {
  CongruenceClosure CC(Arena);
  FuncId F = Arena.getOrCreateFunc("f", 1);
  TermId FX = Arena.mkUFApp(F, std::vector<TermId>{X});
  TermId FY = Arena.mkUFApp(F, std::vector<TermId>{Y});
  CongruenceClosure::Mark M = CC.mark();
  ASSERT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.areEqual(FX, FY)) << "congruence must fire";
  ASSERT_TRUE(CC.assertDistinct(FX, Z));
  EXPECT_TRUE(CC.areDistinct(FX, Z));
  CC.rollbackTo(M);
  EXPECT_FALSE(CC.areEqual(FX, FY));
  EXPECT_FALSE(CC.areDistinct(FX, Z));
}

TEST_F(CongruenceTrailTest, MarksNestLifo) {
  CongruenceClosure CC(Arena);
  CongruenceClosure::Mark Outer = CC.mark();
  ASSERT_TRUE(CC.assertEqual(X, Y));
  CongruenceClosure::Mark Inner = CC.mark();
  ASSERT_TRUE(CC.assertEqual(Y, Z));
  CC.rollbackTo(Inner);
  EXPECT_TRUE(CC.areEqual(X, Y));
  EXPECT_FALSE(CC.areEqual(Y, Z));
  CC.rollbackTo(Outer);
  EXPECT_FALSE(CC.areEqual(X, Y));
}

//===----------------------------------------------------------------------===//
// SolverContext scopes: the fold invariant
//===----------------------------------------------------------------------===//

class IncrementalContextTest : public ::testing::Test {
protected:
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId Z = Arena.mkVar("z");

  TermId eqc(TermId T, int64_t C) { return Arena.mkEq(T, Arena.mkIntConst(C)); }
  TermId ltc(TermId T, int64_t C) { return Arena.mkLt(T, Arena.mkIntConst(C)); }
  TermId gec(TermId T, int64_t C) { return Arena.mkGe(T, Arena.mkIntConst(C)); }

  /// Answers must agree down to the model's variable assignment — the
  /// bit-identical-result guarantee of docs/solver.md.
  static void expectSameAnswer(const SatAnswer &A, const SatAnswer &B,
                               const char *What) {
    EXPECT_EQ(A.Result, B.Result) << What;
    EXPECT_EQ(A.ModelValue.varAssignments(), B.ModelValue.varAssignments())
        << What;
  }

  SatAnswer freshConjunction(std::span<const TermId> Lits, SolverStats &S,
                             SolverOptions Options = {}) {
    SolverContext Fresh(Arena, Options);
    return Fresh.checkFormula(Arena.mkAnd(Lits), S);
  }

  /// Asserts \p Lits one scope each and expects the stack to be refuted at
  /// assert time, with a fresh context's answer from check().
  void expectRefutedAtAssert(std::span<const TermId> Lits,
                             const SolverOptions &Options = {}) {
    SolverContext Ctx(Arena, Options);
    for (TermId Lit : Lits) {
      Ctx.push();
      Ctx.assertLiteral(Lit);
    }
    EXPECT_TRUE(Ctx.refuted());
    SolverStats S, FS;
    expectSameAnswer(Ctx.check(S), freshConjunction(Lits, FS, Options),
                     "incremental vs fresh");
    EXPECT_EQ(FS.Decisions, 0u) << "fresh propagation alone must refute";
  }
};

TEST_F(IncrementalContextTest, FoldMatchesFreshSolver) {
  std::vector<TermId> Lits = {gec(X, 3), ltc(X, 10), eqc(Y, 7),
                              Arena.mkEq(Z, Arena.mkAdd(std::vector<TermId>{X, Y}))};
  SolverContext Ctx(Arena);
  for (TermId Lit : Lits) {
    Ctx.push();
    EXPECT_TRUE(Ctx.assertLiteral(Lit));
  }
  SolverStats CtxStats;
  SatAnswer Incremental = Ctx.check(CtxStats);

  SolverStats FreshStats;
  SatAnswer Fresh = freshConjunction(Lits, FreshStats);
  expectSameAnswer(Incremental, Fresh, "fold vs fresh");
  EXPECT_EQ(CtxStats.Decisions, FreshStats.Decisions);
  EXPECT_EQ(CtxStats.Propagations, FreshStats.Propagations);
}

TEST_F(IncrementalContextTest, PopRestoresExactState) {
  SolverContext Ctx(Arena);
  Ctx.push();
  ASSERT_TRUE(Ctx.assertLiteral(eqc(X, 5)));
  SolverStats Before;
  SatAnswer First = Ctx.check(Before);
  ASSERT_EQ(First.Result, SatResult::Sat);

  Ctx.push();
  ASSERT_TRUE(Ctx.assertLiteral(eqc(X, 6)));
  SolverStats Conflicted;
  EXPECT_EQ(Ctx.check(Conflicted).Result, SatResult::Unsat);
  Ctx.pop();

  SolverStats After;
  SatAnswer Second = Ctx.check(After);
  expectSameAnswer(First, Second, "check after pop");
  EXPECT_EQ(Before.Decisions, After.Decisions)
      << "pop must restore the exact pre-push search state";
  EXPECT_EQ(Before.Propagations, After.Propagations);
}

TEST_F(IncrementalContextTest, RetargetReusesCommonPrefix) {
  std::vector<TermId> Prefix = {gec(X, 0), ltc(X, 100), eqc(Y, 7)};
  std::vector<TermId> SibA = Prefix;
  SibA.push_back(ltc(Z, 5));
  std::vector<TermId> SibB = Prefix;
  SibB.push_back(gec(Z, 5));

  telemetry::Counter &Reused =
      telemetry::Registry::global().counter("solver.prefix_literals_reused");
  SolverContext Ctx(Arena);
  Ctx.retarget(SibA);
  SolverStats StatsA;
  SatAnswer AnsA = Ctx.check(StatsA);
  uint64_t ReusedBefore = Reused.value();
  Ctx.retarget(SibB);
  SolverStats StatsB;
  SatAnswer AnsB = Ctx.check(StatsB);

  EXPECT_EQ(Reused.value() - ReusedBefore, Prefix.size())
      << "the sibling retarget must keep the shared prefix asserted";

  SolverStats FreshA, FreshB;
  expectSameAnswer(AnsA, freshConjunction(SibA, FreshA), "sibling A");
  expectSameAnswer(AnsB, freshConjunction(SibB, FreshB), "sibling B");
  EXPECT_EQ(StatsA.Decisions, FreshA.Decisions);
  EXPECT_EQ(StatsB.Decisions, FreshB.Decisions);
}

TEST_F(IncrementalContextTest, PoisonIsScopedToItsFrame) {
  SolverContext Ctx(Arena);
  Ctx.push();
  ASSERT_TRUE(Ctx.assertLiteral(eqc(X, 4)));
  Ctx.push();
  // A disjunction is not a comparison literal: the context poisons itself
  // rather than guessing.
  EXPECT_FALSE(Ctx.assertLiteral(Arena.mkOr(eqc(Y, 1), eqc(Y, 2))));
  SolverStats Poisoned;
  EXPECT_EQ(Ctx.check(Poisoned).Result, SatResult::Unknown);
  Ctx.pop();
  SolverStats Clean;
  EXPECT_EQ(Ctx.check(Clean).Result, SatResult::Sat)
      << "poison must not outlive its owning scope";
}

TEST_F(IncrementalContextTest, RetargetSiblingsMatchFreshSolving) {
  // Sibling queries over a shared prefix: answers, models and work must be
  // identical to fresh solving (the fold invariant).
  SolverContext Ctx(Arena);

  std::vector<TermId> Prefix = {gec(X, 0), ltc(X, 8), eqc(Y, 3),
                                Arena.mkEq(Z, Arena.mkAdd(std::vector<TermId>{X, Y}))};
  unsigned IncrementalDecisions = 0, FreshDecisions = 0;
  for (int64_t Flip = 0; Flip != 8; ++Flip) {
    std::vector<TermId> Query = Prefix;
    Query.push_back(Flip % 2 ? Arena.mkNe(X, Arena.mkIntConst(Flip))
                             : eqc(X, Flip));
    Ctx.retarget(Query);
    SolverStats QS;
    SatAnswer Incremental = Ctx.check(QS);
    IncrementalDecisions += QS.Decisions;

    SolverStats FS;
    SatAnswer Fresh = freshConjunction(Query, FS);
    FreshDecisions += FS.Decisions;
    expectSameAnswer(Incremental, Fresh,
                     ("sibling #" + std::to_string(Flip)).c_str());
  }
  EXPECT_EQ(IncrementalDecisions, FreshDecisions)
      << "prefix reuse must not change the work of a query";
}

TEST_F(IncrementalContextTest, CheckFormulaLeavesAssertionsUntouched) {
  SolverContext Ctx(Arena);
  Ctx.push();
  ASSERT_TRUE(Ctx.assertLiteral(eqc(X, 1)));
  size_t Scopes = Ctx.numScopes();
  size_t Lits = Ctx.numAssertedLiterals();

  // Disjunctive formulas route through scratch contexts.
  TermId Disjunctive = Arena.mkOr(eqc(Y, 1), eqc(Y, 2));
  SolverStats QS;
  SatAnswer Answer = Ctx.checkFormula(Disjunctive, QS);
  EXPECT_EQ(Answer.Result, SatResult::Sat);
  EXPECT_EQ(Ctx.numScopes(), Scopes);
  EXPECT_EQ(Ctx.numAssertedLiterals(), Lits);

  SolverContext Fresh(Arena);
  SolverStats FS;
  SatAnswer FreshAnswer = Fresh.checkFormula(Disjunctive, FS);
  expectSameAnswer(Answer, FreshAnswer, "disjunctive scratch path");
}

TEST_F(IncrementalContextTest, CheckWithTelemetryFoldsCumulativeStats) {
  SolverContext Ctx(Arena);
  Ctx.push();
  ASSERT_TRUE(Ctx.assertLiteral(gec(X, 2)));
  SolverStats Cum;
  SatAnswer First = Ctx.check(Cum);
  EXPECT_EQ(First.Result, SatResult::Sat);
  EXPECT_EQ(Cum.Checks, 1u);
  SatAnswer Second = Ctx.check(Cum);
  expectSameAnswer(First, Second, "repeated check");
  EXPECT_EQ(Cum.Checks, 2u) << "cumulative stats must fold across queries";
}

TEST_F(IncrementalContextTest, NewBoundWakesRowsFromEarlierScopes) {
  // x1 <= x2 - 1, x2 <= x3 - 1, x3 <= x4 - 1 (one scope each), then
  // x4 <= 2: the new bound must travel back through all three earlier
  // rows, so x1 >= 0 is refuted when it is asserted.
  TermId V[] = {Arena.mkVar("x1"), Arena.mkVar("x2"), Arena.mkVar("x3"),
                Arena.mkVar("x4")};
  TermId One = Arena.mkIntConst(1);
  std::vector<TermId> Lits;
  for (size_t I = 0; I + 1 != std::size(V); ++I)
    Lits.push_back(Arena.mkLe(V[I], Arena.mkSub(V[I + 1], One)));
  Lits.push_back(Arena.mkLe(V[3], Arena.mkIntConst(2)));
  Lits.push_back(gec(V[0], 0));
  expectRefutedAtAssert(Lits);
}

TEST_F(IncrementalContextTest, SamplePinArrivesThroughArgumentAndMerge) {
  // f(3) = 7 is sampled. f(x + 1) >= 8, then x = y, then y = 2: the last
  // merge gives x the constant 2, which determines the argument form x + 1
  // and pins f(x + 1) to 7.
  SampleTable Samples;
  FuncId F = Arena.getOrCreateFunc("f", 1);
  Samples.record(F, {3}, 7);
  TermId FX1 = Arena.mkUFApp(
      F, std::vector<TermId>{Arena.mkAdd(X, Arena.mkIntConst(1))});
  TermId Lits[] = {gec(FX1, 8), Arena.mkEq(X, Y), eqc(Y, 2)};
  expectRefutedAtAssert(Lits, {.Samples = &Samples});
}

TEST_F(IncrementalContextTest, CongruenceJoinAcrossScopes) {
  // f(x) >= 5 and f(y) <= 4 clash once x = 3 and y = 3 make the two
  // applications congruent, each equality in its own scope.
  FuncId F = Arena.getOrCreateFunc("f", 1);
  TermId FX = Arena.mkUFApp(F, std::vector<TermId>{X});
  TermId FY = Arena.mkUFApp(F, std::vector<TermId>{Y});
  TermId Lits[] = {gec(FX, 5), Arena.mkLe(FY, Arena.mkIntConst(4)),
                   eqc(X, 3), eqc(Y, 3)};
  expectRefutedAtAssert(Lits);
}

TEST_F(IncrementalContextTest, PopAfterRefutationRestoresWatchLists) {
  // y = 3 refutes the stack (f(y) joins f(x)); after its pop, y = 4 must be
  // decided exactly as a fresh context decides the surviving stack.
  FuncId F = Arena.getOrCreateFunc("f", 1);
  TermId FX = Arena.mkUFApp(F, std::vector<TermId>{X});
  TermId FY = Arena.mkUFApp(F, std::vector<TermId>{Y});
  std::vector<TermId> Stack = {gec(FX, 5), eqc(X, 3),
                               Arena.mkLe(FY, Arena.mkIntConst(4))};
  SolverContext Ctx(Arena);
  for (TermId Lit : Stack) {
    Ctx.push();
    ASSERT_TRUE(Ctx.assertLiteral(Lit));
  }
  Ctx.push();
  Ctx.assertLiteral(eqc(Y, 3));
  ASSERT_TRUE(Ctx.refuted());
  Ctx.pop();
  ASSERT_FALSE(Ctx.refuted());

  Stack.push_back(eqc(Y, 4));
  Ctx.push();
  ASSERT_TRUE(Ctx.assertLiteral(Stack.back()));
  EXPECT_FALSE(Ctx.refuted());
  SolverStats S, FS;
  SatAnswer Incremental = Ctx.check(S);
  EXPECT_EQ(Incremental.Result, SatResult::Sat);
  expectSameAnswer(Incremental, freshConjunction(Stack, FS), "after pop");
  EXPECT_EQ(S.Decisions, FS.Decisions);
  EXPECT_EQ(S.Propagations, FS.Propagations);
}

TEST_F(IncrementalContextTest, PropagationBudgetLeavesRefutationToCheck) {
  // x <= y - 1 and y <= x - 1 over [0, 10^9] would need about 10^9 bound
  // steps to empty a domain. The visit budget stops propagation early
  // (sound: domains stay wider than the fixpoint), and check()'s
  // Fourier–Motzkin step refutes the pair.
  TermId One = Arena.mkIntConst(1);
  TermId Lits[] = {gec(X, 0),
                   Arena.mkLe(X, Arena.mkIntConst(1000000000)),
                   gec(Y, 0),
                   Arena.mkLe(Y, Arena.mkIntConst(1000000000)),
                   Arena.mkLe(X, Arena.mkSub(Y, One)),
                   Arena.mkLe(Y, Arena.mkSub(X, One))};
  SolverContext Ctx(Arena);
  for (TermId Lit : Lits) {
    Ctx.push();
    ASSERT_TRUE(Ctx.assertLiteral(Lit));
    EXPECT_FALSE(Ctx.refuted());
  }
  SolverStats S;
  EXPECT_EQ(Ctx.check(S).Result, SatResult::Unsat);
  EXPECT_EQ(S.Decisions, 0u);
}

} // namespace
