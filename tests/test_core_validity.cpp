//===- tests/test_core_validity.cpp - Validity solver on the paper's formulas -----===//

#include "core/ValiditySolver.h"

#include "core/Post.h"
#include "dse/Summary.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace hotg;
using namespace hotg::core;
using namespace hotg::smt;

namespace {

class ValidityTest : public ::testing::Test {
protected:
  TermArena Arena;
  SampleTable Samples;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  FuncId H = Arena.getOrCreateFunc("h", 1);
  FuncId F = Arena.getOrCreateFunc("f", 1);

  TermId h(TermId T) { return Arena.mkUFApp(H, {{T}}); }
  TermId f(TermId T) { return Arena.mkUFApp(F, {{T}}); }

  ValidityAnswer check(TermId Pc, bool AllowLearning = true) {
    ValidityOptions Options;
    Options.AllowLearning = AllowLearning;
    ValiditySolver Solver(Arena, Samples, Options);
    return Solver.checkPost(Pc);
  }
};

TEST_F(ValidityTest, Section42ObscureAlternate) {
  // ∃x, y : x = h(y) with sample h(42) = 567: valid; the strategy is
  // "fix y = 42, set x to 567".
  Samples.record(H, {42}, 567);
  ValidityAnswer A = check(Arena.mkEq(X, h(Y)));
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1), 42);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1), 567);
}

TEST_F(ValidityTest, UnsampledEqualityIsOnlyLearnable) {
  // ∃x, y : x = h(y) with NO samples: no one-shot strategy (the paper's
  // point that satisfiability checking would wrongly invent h), but a
  // learning plan exists.
  ValidityAnswer A = check(Arena.mkEq(X, h(Y)));
  EXPECT_EQ(A.Status, ValidityStatus::NeedsSamples);
  ASSERT_EQ(A.Learn.size(), 1u);
  EXPECT_EQ(A.Learn[0].Func, H);

  ValidityAnswer OneShot = check(Arena.mkEq(X, h(Y)),
                                 /*AllowLearning=*/false);
  EXPECT_EQ(OneShot.Status, ValidityStatus::NotValid);
}

TEST_F(ValidityTest, Example4WithoutSamplesInvalid) {
  // ∃x, y : h(x) > 0 ∧ y = 10 — invalid without samples (h could be
  // constantly 0), learnable with multi-step.
  TermId Pc = Arena.mkAnd(Arena.mkGt(h(X), Arena.mkIntConst(0)),
                          Arena.mkEq(Y, Arena.mkIntConst(10)));
  EXPECT_EQ(check(Pc, /*AllowLearning=*/false).Status,
            ValidityStatus::NotValid);
}

TEST_F(ValidityTest, Example4WithSampleValid) {
  // With h(1) = 5 recorded the formula becomes valid: x = 1, y = 10.
  Samples.record(H, {1}, 5);
  TermId Pc = Arena.mkAnd(Arena.mkGt(h(X), Arena.mkIntConst(0)),
                          Arena.mkEq(Y, Arena.mkIntConst(10)));
  ValidityAnswer A = check(Pc);
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1), 1);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1), 10);
}

TEST_F(ValidityTest, Example4NegativeSampleStaysInvalid) {
  // A sample with h(3) = -7 does not help h(x) > 0.
  Samples.record(H, {3}, -7);
  TermId Pc = Arena.mkGt(h(X), Arena.mkIntConst(0));
  EXPECT_EQ(check(Pc, /*AllowLearning=*/false).Status,
            ValidityStatus::NotValid);
}

TEST_F(ValidityTest, Example5CongruenceStrategy) {
  // ∃x, y : f(x) = f(y) is valid via x = y — no samples needed.
  ValidityAnswer A = check(Arena.mkEq(f(X), f(Y)));
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  auto VX = A.ModelValue.varValue(Arena.getOrCreateVar("x"));
  auto VY = A.ModelValue.varValue(Arena.getOrCreateVar("y"));
  ASSERT_TRUE(VX && VY);
  EXPECT_EQ(*VX, *VY) << "the strategy must set x = y";
}

TEST_F(ValidityTest, Example6AntecedentProvesOffset) {
  // ∃x, y : (f(0)=0 ∧ f(1)=1) ⟹ f(x) = f(y) + 1: valid via x=1, y=0.
  Samples.record(F, {0}, 0);
  Samples.record(F, {1}, 1);
  TermId Pc = Arena.mkEq(f(X), Arena.mkAdd(f(Y), Arena.mkIntConst(1)));
  ValidityAnswer A = check(Pc);
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1), 1);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1), 0);
}

TEST_F(ValidityTest, Example6WithoutAntecedentGeneratesNoTest) {
  // Without the antecedent the formula is invalid; the solver may prove
  // NotValid or give up with Unknown — either way no test is generated,
  // which is Example 6's claim.
  TermId Pc = Arena.mkEq(f(X), Arena.mkAdd(f(Y), Arena.mkIntConst(1)));
  ValidityAnswer A = check(Pc, /*AllowLearning=*/false);
  EXPECT_NE(A.Status, ValidityStatus::Valid);
  EXPECT_NE(A.Status, ValidityStatus::NeedsSamples);
}

TEST_F(ValidityTest, Example7TwoStepPlan) {
  // ∃x, y : (h(42)=567) ⟹ (x = h(y) ∧ y = 10): the one-shot check fails
  // (h(10) unknown) but the plan asks to learn h at 10.
  Samples.record(H, {42}, 567);
  TermId Pc = Arena.mkAnd(Arena.mkEq(X, h(Y)),
                          Arena.mkEq(Y, Arena.mkIntConst(10)));
  ValidityAnswer A = check(Pc);
  ASSERT_EQ(A.Status, ValidityStatus::NeedsSamples);
  ASSERT_EQ(A.Learn.size(), 1u);
  EXPECT_EQ(A.Learn[0].Func, H);
  EXPECT_EQ(A.Learn[0].Args, std::vector<int64_t>{10});
  // The candidate intermediate assignment fixes y = 10.
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1), 10);

  // After learning h(10) = 66 the strategy completes.
  Samples.record(H, {10}, 66);
  ValidityAnswer Second = check(Pc);
  ASSERT_EQ(Second.Status, ValidityStatus::Valid);
  EXPECT_EQ(Second.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1), 66);
  EXPECT_EQ(Second.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1), 10);
}

TEST_F(ValidityTest, Example3MutualHashHasNoStrategy) {
  // ∃x, y : x = h(y) ∧ y = h(x) — not valid (Example 3). With learning
  // it is at best a plan; one-shot must reject.
  Samples.record(H, {42}, 567);
  Samples.record(H, {33}, 123);
  TermId Pc = Arena.mkAnd(Arena.mkEq(X, h(Y)), Arena.mkEq(Y, h(X)));
  ValidityAnswer A = check(Pc, /*AllowLearning=*/false);
  EXPECT_NE(A.Status, ValidityStatus::Valid);
}

TEST_F(ValidityTest, UFFreeFormulaDegeneratestoSatisfiability) {
  TermId Pc = Arena.mkAnd(Arena.mkEq(X, Arena.mkIntConst(5)),
                          Arena.mkLt(Y, X));
  ValidityAnswer A = check(Pc);
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1), 5);

  EXPECT_EQ(check(Arena.mkAnd(Arena.mkEq(X, Arena.mkIntConst(1)),
                              Arena.mkEq(X, Arena.mkIntConst(2))))
                .Status,
            ValidityStatus::NotValid);
}

TEST_F(ValidityTest, BooleanConstants) {
  EXPECT_EQ(check(Arena.mkTrue()).Status, ValidityStatus::Valid);
  EXPECT_EQ(check(Arena.mkFalse()).Status, ValidityStatus::NotValid);
}

TEST_F(ValidityTest, DisjunctionUsesAnySupport) {
  // (x = h(y) ∧ false-ish branch) ∨ x = 3: the UF-free disjunct gives a
  // strategy regardless of samples.
  TermId Pc = Arena.mkOr(Arena.mkEq(X, h(Y)),
                         Arena.mkEq(X, Arena.mkIntConst(3)));
  ValidityAnswer A = check(Pc, /*AllowLearning=*/false);
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
}

TEST_F(ValidityTest, HashCollisionDisjunction) {
  // Section 7's inversion with collisions: two sampled arguments map to
  // the same output; either preimage is an acceptable strategy.
  Samples.record(H, {5}, 100);
  Samples.record(H, {9}, 100);
  ValidityAnswer A = check(Arena.mkEq(h(X), Arena.mkIntConst(100)));
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  int64_t V = A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1);
  EXPECT_TRUE(V == 5 || V == 9) << "got " << V;
}

TEST_F(ValidityTest, MultiArgumentSampleBinding) {
  // 4-ary hash inversion (the keyword-lexer shape).
  FuncId H4 = Arena.getOrCreateFunc("h4", 4);
  Samples.record(H4, {119, 104, 105, 108}, 52);
  TermId A0 = Arena.mkVar("a0"), A1 = Arena.mkVar("a1");
  TermId A2 = Arena.mkVar("a2"), A3 = Arena.mkVar("a3");
  TermId Args[4] = {A0, A1, A2, A3};
  TermId Pc = Arena.mkEq(Arena.mkUFApp(H4, Args), Arena.mkIntConst(52));
  ValidityAnswer A = check(Pc);
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("a0"), -1), 119);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("a3"), -1), 108);
}

TEST_F(ValidityTest, StatsArePopulated) {
  Samples.record(H, {1}, 2);
  ValidityOptions Options;
  ValiditySolver Solver(Arena, Samples, Options);
  Solver.checkPost(Arena.mkEq(X, h(Y)));
  EXPECT_GE(Solver.stats().SupportsExplored, 1u);
  EXPECT_GE(Solver.stats().GroundingsTried, 1u);
  EXPECT_EQ(Solver.stats().GroundingsPruned, 0u);
}

// Unknown answers carry a structured reason (docs/robustness.md), mirroring
// the inner solver's Unknown taxonomy at the validity layer.

TEST_F(ValidityTest, GroundingBudgetExhaustionIsReported) {
  Samples.record(H, {42}, 567);
  ValidityOptions Options;
  Options.MaxGroundings = 0;
  ValiditySolver Solver(Arena, Samples, Options);
  ValidityAnswer A = Solver.checkPost(Arena.mkEq(X, h(Y)));
  EXPECT_EQ(A.Status, ValidityStatus::Unknown);
  EXPECT_EQ(A.Reason, "grounding budget exhausted");
}

TEST_F(ValidityTest, SupportBudgetExhaustionIsReported) {
  // A disjunctive POST with more supports than the budget allows, none of
  // them provable: the enumerator gives up rather than concluding.
  Samples.record(H, {42}, 567);
  TermId Lit = Arena.mkEq(X, h(Y));
  TermId F = Arena.mkOr(Arena.mkAnd(Lit, Arena.mkEq(X, Arena.mkIntConst(1))),
                        Arena.mkAnd(Lit, Arena.mkEq(X, Arena.mkIntConst(2))));
  ValidityOptions Options;
  Options.MaxSupports = 1;
  ValiditySolver Solver(Arena, Samples, Options);
  ValidityAnswer A = Solver.checkPost(F);
  if (A.Status == ValidityStatus::Unknown) {
    EXPECT_EQ(A.Reason, "support budget exhausted");
  }
}

TEST_F(ValidityTest, ExpiredDeadlineIsReported) {
  Samples.record(H, {42}, 567);
  ValidityOptions Options;
  Options.SolverOpts.Deadline = support::Deadline::afterNanos(0);
  ValiditySolver Solver(Arena, Samples, Options);
  ValidityAnswer A = Solver.checkPost(Arena.mkEq(X, h(Y)));
  EXPECT_EQ(A.Status, ValidityStatus::Unknown);
  EXPECT_EQ(A.Reason, "deadline expired");
}

TEST_F(ValidityTest, CancellationIsReported) {
  Samples.record(H, {42}, 567);
  ValidityOptions Options;
  Options.SolverOpts.Cancel = support::CancelToken::create();
  Options.SolverOpts.Cancel.requestCancel();
  ValiditySolver Solver(Arena, Samples, Options);
  ValidityAnswer A = Solver.checkPost(Arena.mkEq(X, h(Y)));
  EXPECT_EQ(A.Status, ValidityStatus::Unknown);
  EXPECT_EQ(A.Reason, "cancelled");
}

TEST_F(ValidityTest, InactiveStopControlsDoNotPerturbAnswers) {
  Samples.record(H, {42}, 567);
  ValidityOptions Options;
  Options.SolverOpts.Deadline = support::Deadline::afterMillis(60 * 60 * 1000);
  ValiditySolver Solver(Arena, Samples, Options);
  ValidityAnswer A = Solver.checkPost(Arena.mkEq(X, h(Y)));
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1), 42);
}

//===----------------------------------------------------------------------===//
// Subtree cuts: a partial grounding refuted at assert time cuts every
// grounding below it, and each cut grounding is counted as pruned.
//===----------------------------------------------------------------------===//

class SubtreeCutTest : public ValidityTest {
protected:
  ValidityAnswer solve(TermId Pc, ValidityOptions Options = {}) {
    telemetry::Counter &Pushes =
        telemetry::Registry::global().counter("solver.scope_pushes");
    uint64_t PushesBefore = Pushes.value();
    ValiditySolver Solver(Arena, Samples, Options);
    ValidityAnswer Answer = Solver.checkPost(Pc);
    Stats = Solver.stats();
    ScopePushes = Pushes.value() - PushesBefore;
    return Answer;
  }

  /// f(x) = 1 ∧ f(x) = 2 with three samples of f: four groundings of
  /// f(x) (three samples, unbound), all under a contradictory support.
  TermId contradictorySupport() {
    Samples.record(F, {0}, 1);
    Samples.record(F, {1}, 1);
    Samples.record(F, {2}, 1);
    return Arena.mkAnd(Arena.mkEq(f(X), Arena.mkIntConst(1)),
                       Arena.mkEq(f(X), Arena.mkIntConst(2)));
  }

  ValidityStats Stats;
  /// Solver scopes the last solve() opened: one per asserted literal.
  uint64_t ScopePushes = 0;
};

TEST_F(SubtreeCutTest, ContradictorySupportIsCutAtTheRoot) {
  ValidityAnswer A = solve(contradictorySupport());
  EXPECT_EQ(A.Status, ValidityStatus::NotValid);
  EXPECT_EQ(Stats.GroundingsTried, 0u)
      << "no grounding of a refuted support reaches the inner solver";
  EXPECT_EQ(Stats.GroundingsPruned, 4u)
      << "the cut counts the full enumeration";
}

TEST_F(SubtreeCutTest, CutGroundingsSpendTheBudget) {
  // The cut charges the budget exactly as checking grounding by grounding
  // would: two units, then the budget-bound Unknown.
  ValidityOptions Options;
  Options.MaxGroundings = 2;
  ValidityAnswer A = solve(contradictorySupport(), Options);
  EXPECT_EQ(A.Status, ValidityStatus::Unknown);
  EXPECT_EQ(A.Reason, "grounding budget exhausted");
  EXPECT_EQ(Stats.GroundingsTried + Stats.GroundingsPruned, 2u);
}

TEST_F(SubtreeCutTest, ValidAnswersSurviveTheCut) {
  Samples.record(F, {42}, 567);
  ValidityAnswer A = solve(Arena.mkEq(X, f(Y)));
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("y"), -1), 42);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1), 567);
}

TEST_F(SubtreeCutTest, SummarySubtreesAreCountedByWalkingThem) {
  // sum:g(v) = h(v) when v > 0, else 0. Instantiating the first disjunct
  // at x registers h(x), whose two samples add groundings below that
  // choice only: 3 (disjunct 1: h sampled twice or unbound) + 1
  // (disjunct 2) + 1 (g(x) unbound) = 5, where a product over the
  // support's applications would say 3.
  FuncId G = Arena.getOrCreateFunc("sum:g", 1);
  VarId V = Arena.getOrCreateVar("g.v");
  TermId Formal = Arena.mkVar(V);
  dse::SummaryTable Summaries;
  Summaries.registerFunction(G, {V});
  Summaries.record(G, {Arena.mkGt(Formal, Arena.mkIntConst(0)), h(Formal)});
  Summaries.record(G, {Arena.mkLe(Formal, Arena.mkIntConst(0)),
                       Arena.mkIntConst(0)});
  Samples.record(H, {1}, 5);
  Samples.record(H, {2}, 7);
  TermId GX = Arena.mkUFApp(G, {{X}});
  TermId Pc = Arena.mkAnd(Arena.mkEq(GX, Arena.mkIntConst(1)),
                          Arena.mkEq(GX, Arena.mkIntConst(2)));

  ValidityOptions Options;
  Options.Summaries = &Summaries;
  ValidityAnswer A = solve(Pc, Options);
  EXPECT_EQ(A.Status, ValidityStatus::NotValid);
  EXPECT_EQ(Stats.GroundingsTried, 0u);
  EXPECT_EQ(Stats.GroundingsPruned, 5u);

  // The walk clamps to the budget like the closed form does.
  Options.MaxGroundings = 4;
  A = solve(Pc, Options);
  EXPECT_EQ(A.Status, ValidityStatus::Unknown);
  EXPECT_EQ(A.Reason, "grounding budget exhausted");
  EXPECT_EQ(Stats.GroundingsTried + Stats.GroundingsPruned, 4u);
}

TEST_F(SubtreeCutTest, DisjunctivePreconditionIsCheckedAsAFormula) {
  // A precondition disjunction (a `||` branch in the callee) cannot be
  // asserted on the stack; the grounding is checked as a formula instead.
  FuncId G = Arena.getOrCreateFunc("sum:g", 1);
  VarId V = Arena.getOrCreateVar("g.v");
  TermId Formal = Arena.mkVar(V);
  dse::SummaryTable Summaries;
  Summaries.registerFunction(G, {V});
  Summaries.record(G, {Arena.mkOr(Arena.mkLt(Formal, Arena.mkIntConst(0)),
                                  Arena.mkGt(Formal, Arena.mkIntConst(10))),
                       Arena.mkIntConst(7)});
  TermId Pc = Arena.mkEq(Arena.mkUFApp(G, {{X}}), Arena.mkIntConst(7));

  ValidityOptions Options;
  Options.Summaries = &Summaries;
  ValidityAnswer A = solve(Pc, Options);
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  int64_t XValue = A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), 5);
  EXPECT_TRUE(XValue < 0 || XValue > 10) << "x = " << XValue;
  EXPECT_EQ(Stats.GroundingsTried, 1u);
}

//===----------------------------------------------------------------------===//
// Domain filter: a sample binding that the propagated domains already
// exclude is cut before anything is asserted, and counted exactly as the
// assert-time cut would count it.
//===----------------------------------------------------------------------===//

TEST_F(SubtreeCutTest, SampleOutputOutsidePinnedDomainIsCutUnasserted) {
  // f(x) = 3 pins f(x)'s domain to {3}. Sample f(2) = 5 is cut without a
  // scope (1 pruned); f(1) = 3 asserts x = 1 and is a strategy (1 tried).
  // Scopes: the support literal and x = 1.
  Samples.record(F, {2}, 5);
  Samples.record(F, {1}, 3);
  ValidityAnswer A = solve(Arena.mkEq(f(X), Arena.mkIntConst(3)));
  ASSERT_EQ(A.Status, ValidityStatus::Valid);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1), 1);
  EXPECT_EQ(Stats.GroundingsTried, 1u);
  EXPECT_EQ(Stats.GroundingsPruned, 1u);
  EXPECT_EQ(ScopePushes, 2u) << "the cut sample must open no scope";
}

TEST_F(SubtreeCutTest, ArgumentOutsideItsDomainIsCutUnasserted) {
  // x > 5 ∧ f(x) = 3 with sample f(2) = 3: the output fits, but x's domain
  // [6, ∞) excludes the sampled argument, so the sample is cut (1 pruned).
  // Unbound is checked (1 tried) and only learnable: f(6) is unsampled.
  // Scopes: the two support literals.
  Samples.record(F, {2}, 3);
  ValidityAnswer A =
      solve(Arena.mkAnd(Arena.mkGt(X, Arena.mkIntConst(5)),
                        Arena.mkEq(f(X), Arena.mkIntConst(3))));
  EXPECT_EQ(A.Status, ValidityStatus::NeedsSamples);
  EXPECT_EQ(Stats.GroundingsTried, 1u);
  EXPECT_EQ(Stats.GroundingsPruned, 1u);
  EXPECT_EQ(ScopePushes, 2u) << "the cut sample must open no scope";
}

TEST_F(SubtreeCutTest, NestedApplicationSubtreeIsCountedUnderTheCut) {
  // f(h(x)) = 3 with samples f(1) = 5, h(0) = 1, h(4) = 7. The worklist is
  // [f(h(x)), h(x)]. Sample f(1) = 5 is excluded by f(h(x))'s domain {3};
  // its subtree is h(x)'s 2 samples + unbound = 3 pruned. Under f(h(x))
  // unbound, h(0) = 1 pins f(h(x)) to 5 and is cut at assert time
  // (1 pruned); h(4) = 7 and h unbound are checked (2 tried, learnable).
  // Scopes: the support literal, x = 0 and x = 4.
  Samples.record(F, {1}, 5);
  Samples.record(H, {0}, 1);
  Samples.record(H, {4}, 7);
  ValidityAnswer A = solve(Arena.mkEq(f(h(X)), Arena.mkIntConst(3)));
  EXPECT_EQ(A.Status, ValidityStatus::NeedsSamples);
  EXPECT_EQ(Stats.GroundingsTried, 2u);
  EXPECT_EQ(Stats.GroundingsPruned, 4u);
  EXPECT_EQ(ScopePushes, 3u) << "the cut sample must open no scope";
}

TEST_F(SubtreeCutTest, FilteredCutSpendsTheBudgetLikeTheAssertTimeCut) {
  // f(a) = 3 ∧ h(y) = 0 with samples f(2) = 5, h(1) = 0, h(2) = 0 and a
  // budget of 2: the f(2) = 5 subtree holds 3 groundings, so the cut
  // spends the budget and the answer is Unknown. With a = x the domain
  // filter cuts it; with a = x + 1 the output check does not apply (the
  // argument is no atom) and the assert-time cut does, after one scope.
  Samples.record(F, {2}, 5);
  Samples.record(H, {1}, 0);
  Samples.record(H, {2}, 0);
  ValidityOptions Options;
  Options.MaxGroundings = 2;
  auto Query = [&](TermId Arg) {
    return Arena.mkAnd(Arena.mkEq(f(Arg), Arena.mkIntConst(3)),
                       Arena.mkEq(h(Y), Arena.mkIntConst(0)));
  };

  ValidityAnswer Filtered = solve(Query(X), Options);
  ValidityStats FilteredStats = Stats;
  EXPECT_EQ(ScopePushes, 2u) << "the support literals only";

  ValidityAnswer AssertTime =
      solve(Query(Arena.mkAdd(X, Arena.mkIntConst(1))), Options);
  EXPECT_EQ(ScopePushes, 3u) << "the support literals and x + 1 = 2";

  for (const ValidityAnswer *A : {&Filtered, &AssertTime}) {
    EXPECT_EQ(A->Status, ValidityStatus::Unknown);
    EXPECT_EQ(A->Reason, "grounding budget exhausted");
  }
  EXPECT_EQ(FilteredStats.GroundingsTried, 0u);
  EXPECT_EQ(FilteredStats.GroundingsPruned, 2u);
  EXPECT_EQ(Stats.GroundingsTried, FilteredStats.GroundingsTried);
  EXPECT_EQ(Stats.GroundingsPruned, FilteredStats.GroundingsPruned);
}

} // namespace
