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

  SatAnswer freshConjunction(std::span<const TermId> Lits, SolverStats &S) {
    SolverContext Fresh(Arena);
    return Fresh.checkFormula(Arena.mkAnd(Lits), S);
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

} // namespace
