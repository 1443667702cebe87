//===- tests/test_smt_solver.cpp - Satisfiability solver unit + property tests ----===//

#include "smt/SolverContext.h"

#include "smt/Simplify.h"
#include "support/Random.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace hotg;
using namespace hotg::smt;

namespace {

class SolverTest : public ::testing::Test {
protected:
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId Z = Arena.mkVar("z");

  SatAnswer check(TermId F, SolverOptions Options = {}) {
    SolverContext Ctx(Arena, Options);
    SolverStats Stats;
    SatAnswer Answer = Ctx.checkFormula(F, Stats);
    if (Answer.isSat()) {
      // Every SAT answer must verify (model-soundness invariant).
      EXPECT_TRUE(Answer.ModelValue.evalBool(Arena, F))
          << "model does not satisfy " << Arena.toString(F);
    }
    return Answer;
  }

  /// Default options with \p Samples attached.
  static SolverOptions withSamples(const SampleTable &Samples) {
    SolverOptions Options;
    Options.Samples = &Samples;
    return Options;
  }
};

TEST_F(SolverTest, TrivialConstants) {
  EXPECT_EQ(check(Arena.mkTrue()).Result, SatResult::Sat);
  EXPECT_EQ(check(Arena.mkFalse()).Result, SatResult::Unsat);
}

TEST_F(SolverTest, SimpleEquality) {
  SatAnswer A = check(Arena.mkEq(X, Arena.mkIntConst(567)));
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), 0), 567);
}

TEST_F(SolverTest, ContradictionIsUnsat) {
  TermId F = Arena.mkAnd(Arena.mkEq(X, Arena.mkIntConst(1)),
                         Arena.mkEq(X, Arena.mkIntConst(2)));
  EXPECT_EQ(check(F).Result, SatResult::Unsat);
}

TEST_F(SolverTest, PaperExampleOneAlternate) {
  // Example 1's alternate constraint y = 42 ∧ x = 567 ∧ y = 10 is UNSAT.
  TermId F = Arena.mkAnd(
      {{Arena.mkEq(Y, Arena.mkIntConst(42)),
        Arena.mkEq(X, Arena.mkIntConst(567)),
        Arena.mkEq(Y, Arena.mkIntConst(10))}});
  EXPECT_EQ(check(F).Result, SatResult::Unsat);
}

TEST_F(SolverTest, InequalityChain) {
  // 3 <= x < y <= 5 forces x=3..4, y=4..5.
  TermId F = Arena.mkAnd(
      {{Arena.mkLe(Arena.mkIntConst(3), X), Arena.mkLt(X, Y),
        Arena.mkLe(Y, Arena.mkIntConst(5))}});
  SatAnswer A = check(F);
  ASSERT_TRUE(A.isSat());
}

TEST_F(SolverTest, EmptyIntervalChainIsUnsat) {
  // x < y ∧ y < x.
  TermId F = Arena.mkAnd(Arena.mkLt(X, Y), Arena.mkLt(Y, X));
  EXPECT_EQ(check(F).Result, SatResult::Unsat);
}

TEST_F(SolverTest, LinearCombination) {
  // x + y = 10 ∧ x - y = 4 → x = 7, y = 3.
  TermId F = Arena.mkAnd(
      Arena.mkEq(Arena.mkAdd(X, Y), Arena.mkIntConst(10)),
      Arena.mkEq(Arena.mkSub(X, Y), Arena.mkIntConst(4)));
  SatAnswer A = check(F);
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), 0), 7);
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("y"), 0), 3);
}

TEST_F(SolverTest, ScaledCoefficients) {
  // 3x = 7 has no integer solution.
  TermId F = Arena.mkEq(Arena.mkMul(Arena.mkIntConst(3), X),
                        Arena.mkIntConst(7));
  EXPECT_EQ(check(F).Result, SatResult::Unsat);
  // 3x = 9 does.
  TermId G = Arena.mkEq(Arena.mkMul(Arena.mkIntConst(3), X),
                        Arena.mkIntConst(9));
  SatAnswer A = check(G);
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), 0), 3);
}

TEST_F(SolverTest, DisequalityForcesOtherValue) {
  // 0 <= x <= 1 ∧ x ≠ 0 → x = 1.
  TermId F = Arena.mkAnd(
      {{Arena.mkLe(Arena.mkIntConst(0), X),
        Arena.mkLe(X, Arena.mkIntConst(1)),
        Arena.mkNe(X, Arena.mkIntConst(0))}});
  SatAnswer A = check(F);
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1), 1);
}

TEST_F(SolverTest, FiniteDomainExhaustionIsUnsat) {
  // 0 <= x <= 2 ∧ x ≠ 0 ∧ x ≠ 1 ∧ x ≠ 2.
  TermId F = Arena.mkAnd(
      {{Arena.mkLe(Arena.mkIntConst(0), X),
        Arena.mkLe(X, Arena.mkIntConst(2)),
        Arena.mkNe(X, Arena.mkIntConst(0)),
        Arena.mkNe(X, Arena.mkIntConst(1)),
        Arena.mkNe(X, Arena.mkIntConst(2))}});
  EXPECT_EQ(check(F).Result, SatResult::Unsat);
}

TEST_F(SolverTest, DisjunctionPicksSatisfiableBranch) {
  // (x = 1 ∧ x = 2) ∨ x = 5.
  TermId F = Arena.mkOr(
      Arena.mkAnd(Arena.mkEq(X, Arena.mkIntConst(1)),
                  Arena.mkEq(X, Arena.mkIntConst(2))),
      Arena.mkEq(X, Arena.mkIntConst(5)));
  SatAnswer A = check(F);
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), 0), 5);
}

TEST_F(SolverTest, NegationViaNNF) {
  // ¬(x < 5 ∨ x > 10) ≡ 5 <= x <= 10.
  TermId F = Arena.mkNot(Arena.mkOr(Arena.mkLt(X, Arena.mkIntConst(5)),
                                    Arena.mkGt(X, Arena.mkIntConst(10))));
  SatAnswer A = check(F);
  ASSERT_TRUE(A.isSat());
  int64_t V = A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), -1);
  EXPECT_GE(V, 5);
  EXPECT_LE(V, 10);
}

TEST_F(SolverTest, UFCongruenceConflict) {
  // x = y ∧ h(x) ≠ h(y) is UNSAT by congruence.
  FuncId H = Arena.getOrCreateFunc("h", 1);
  TermId HX = Arena.mkUFApp(H, {{X}});
  TermId HY = Arena.mkUFApp(H, {{Y}});
  TermId F = Arena.mkAnd(Arena.mkEq(X, Y), Arena.mkNe(HX, HY));
  SatAnswer A = check(F);
  EXPECT_NE(A.Result, SatResult::Sat)
      << "congruence violation must not be satisfiable";
}

TEST_F(SolverTest, UFFreeChoiceIsSat) {
  // h(x) = 5 is satisfiable: the solver invents an interpretation.
  FuncId H = Arena.getOrCreateFunc("h", 1);
  TermId F = Arena.mkEq(Arena.mkUFApp(H, {{X}}), Arena.mkIntConst(5));
  SatAnswer A = check(F);
  ASSERT_TRUE(A.isSat());
}

TEST_F(SolverTest, SamplesConstrainFunctions) {
  // With sample h(42) = 567: h(y) = 567 ∧ y = 42 is SAT, while
  // h(y) = 111 ∧ y = 42 is not satisfiable consistently with the table.
  SampleTable Samples;
  FuncId H = Arena.getOrCreateFunc("h", 1);
  Samples.record(H, {42}, 567);

  TermId HY = Arena.mkUFApp(H, {{Y}});
  TermId Sat = Arena.mkAnd(Arena.mkEq(HY, Arena.mkIntConst(567)),
                           Arena.mkEq(Y, Arena.mkIntConst(42)));
  EXPECT_TRUE(check(Sat, withSamples(Samples)).isSat());

  TermId Unsat = Arena.mkAnd(Arena.mkEq(HY, Arena.mkIntConst(111)),
                             Arena.mkEq(Y, Arena.mkIntConst(42)));
  EXPECT_NE(check(Unsat, withSamples(Samples)).Result, SatResult::Sat);
}

TEST_F(SolverTest, SampleGuidedInversion) {
  // The Section 7 pattern: h(x) = 567 with a sample h(42) = 567 should be
  // solved by steering x to the sampled argument.
  SampleTable Samples;
  FuncId H = Arena.getOrCreateFunc("h", 1);
  Samples.record(H, {42}, 567);
  Samples.record(H, {7}, 99);

  TermId F = Arena.mkEq(Arena.mkUFApp(H, {{X}}), Arena.mkIntConst(567));
  SatAnswer A = check(F, withSamples(Samples));
  ASSERT_TRUE(A.isSat());
}

TEST_F(SolverTest, ArgumentSampleCandidatesFollowAtomOrder) {
  // x feeds f(x, g(x)) and g(x). Registering f(x, g(x)) registers g(x)
  // inside it, so the applications reading x are listed g before f,
  // against their atom order. Branching on x must still try the sampled
  // argument values in atom order — f's 7 before g's 5 — so the model
  // picks x = 7, as a scan of every atom does.
  SampleTable Samples;
  FuncId F = Arena.getOrCreateFunc("f", 2);
  FuncId G = Arena.getOrCreateFunc("g", 1);
  Samples.record(F, {7, 1}, 3);
  Samples.record(G, {5}, 9);
  TermId GX = Arena.mkUFApp(G, {{X}});
  TermId FX = Arena.mkUFApp(F, {{X, GX}});

  SolverContext Ctx(Arena, withSamples(Samples));
  Ctx.assertLiteral(Arena.mkGe(X, Arena.mkIntConst(0)));
  Ctx.assertLiteral(Arena.mkGt(FX, Arena.mkIntConst(-100)));
  SolverStats Stats;
  SatAnswer A = Ctx.check(Stats);
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.varIdOf(X), -1), 7);
  EXPECT_EQ(A.ModelValue.evalInt(Arena, GX), 9);
  EXPECT_EQ(A.ModelValue.evalInt(Arena, FX), 3);
  EXPECT_EQ(Stats.Decisions, 3u);
}

TEST_F(SolverTest, ThreeVariableSystem) {
  // x + y + z = 6 ∧ x = y ∧ y = z → all 2.
  TermId Sum = Arena.mkAdd({{X, Y, Z}});
  TermId F = Arena.mkAnd(
      {{Arena.mkEq(Sum, Arena.mkIntConst(6)), Arena.mkEq(X, Y),
        Arena.mkEq(Y, Z)}});
  SatAnswer A = check(F);
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), 0), 2);
}

TEST_F(SolverTest, StatsArePopulated) {
  SolverContext Ctx(Arena);
  SolverStats Stats;
  TermId F = Arena.mkAnd(Arena.mkEq(X, Arena.mkIntConst(1)),
                         Arena.mkLt(Y, X));
  SatAnswer A = Ctx.checkFormula(F, Stats);
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(Stats.Checks, 1u);
  EXPECT_GE(Stats.SupportsExplored, 1u);
  EXPECT_GE(Stats.Propagations, 1u);
}

//===----------------------------------------------------------------------===//
// Property sweep: random conjunctions of linear literals built around a
// known witness are always found satisfiable with a verified model.
//===----------------------------------------------------------------------===//

class SolverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverPropertyTest, PlantedWitnessAlwaysFound) {
  RandomGen Rng(GetParam());
  TermArena Arena;
  const unsigned NumVars = 4;
  std::vector<TermId> Vars;
  std::vector<int64_t> Witness;
  for (unsigned I = 0; I != NumVars; ++I) {
    Vars.push_back(Arena.mkVar("v" + std::to_string(I)));
    Witness.push_back(Rng.nextInRange(-50, 50));
  }

  for (int Round = 0; Round != 30; ++Round) {
    std::vector<TermId> Literals;
    unsigned NumLits = 1 + static_cast<unsigned>(Rng.nextBelow(5));
    for (unsigned L = 0; L != NumLits; ++L) {
      // Random linear expression over the witness.
      int64_t Constant = 0;
      std::vector<TermId> Summands;
      for (unsigned V = 0; V != NumVars; ++V) {
        int64_t Coeff = Rng.nextInRange(-3, 3);
        if (Coeff == 0)
          continue;
        Summands.push_back(
            Arena.mkMul(Arena.mkIntConst(Coeff), Vars[V]));
        Constant += Coeff * Witness[V];
      }
      if (Summands.empty())
        Summands.push_back(Arena.mkIntConst(0));
      TermId Lhs = Arena.mkAdd(Summands);
      // Pick a relation that the witness satisfies.
      switch (Rng.nextBelow(3)) {
      case 0:
        Literals.push_back(Arena.mkEq(Lhs, Arena.mkIntConst(Constant)));
        break;
      case 1:
        Literals.push_back(Arena.mkLe(
            Lhs, Arena.mkIntConst(Constant +
                                  static_cast<int64_t>(Rng.nextBelow(5)))));
        break;
      default:
        Literals.push_back(Arena.mkGe(
            Lhs, Arena.mkIntConst(Constant -
                                  static_cast<int64_t>(Rng.nextBelow(5)))));
        break;
      }
    }
    TermId F = Arena.mkAnd(Literals);
    SolverContext Ctx(Arena);
    SolverStats Stats;
    SatAnswer A = Ctx.checkFormula(F, Stats);
    // Refutation soundness: a formula with a planted witness must never be
    // declared UNSAT. (Dense underdetermined systems may honestly return
    // Unknown — the solver's completeness envelope is the simple fragment
    // exercised below.)
    ASSERT_NE(A.Result, SatResult::Unsat)
        << "refuted a satisfiable formula: " << Arena.toString(F);
    if (A.isSat()) {
      ASSERT_TRUE(A.ModelValue.evalBool(Arena, F))
          << "unverified model for " << Arena.toString(F);
    }
  }
}

TEST_P(SolverPropertyTest, SimpleFragmentIsComplete) {
  // The fragment dynamic symbolic execution actually produces: literals
  // over at most two variables with unit coefficients. Here SAT answers
  // are required, not just allowed.
  RandomGen Rng(GetParam());
  TermArena Arena;
  const unsigned NumVars = 4;
  std::vector<TermId> Vars;
  std::vector<int64_t> Witness;
  for (unsigned I = 0; I != NumVars; ++I) {
    Vars.push_back(Arena.mkVar("w" + std::to_string(I)));
    Witness.push_back(Rng.nextInRange(-100, 100));
  }

  for (int Round = 0; Round != 40; ++Round) {
    std::vector<TermId> Literals;
    unsigned NumLits = 1 + static_cast<unsigned>(Rng.nextBelow(6));
    for (unsigned L = 0; L != NumLits; ++L) {
      unsigned A = static_cast<unsigned>(Rng.nextBelow(NumVars));
      unsigned B = static_cast<unsigned>(Rng.nextBelow(NumVars));
      bool TwoVars = Rng.chance(1, 2) && A != B;
      TermId Lhs = TwoVars ? Arena.mkSub(Vars[A], Vars[B]) : Vars[A];
      int64_t LhsVal = TwoVars ? Witness[A] - Witness[B] : Witness[A];
      switch (Rng.nextBelow(4)) {
      case 0:
        Literals.push_back(Arena.mkEq(Lhs, Arena.mkIntConst(LhsVal)));
        break;
      case 1:
        Literals.push_back(Arena.mkNe(
            Lhs, Arena.mkIntConst(LhsVal + 1 +
                                  static_cast<int64_t>(Rng.nextBelow(9)))));
        break;
      case 2:
        Literals.push_back(Arena.mkLe(
            Lhs, Arena.mkIntConst(LhsVal +
                                  static_cast<int64_t>(Rng.nextBelow(10)))));
        break;
      default:
        Literals.push_back(Arena.mkGe(
            Lhs, Arena.mkIntConst(LhsVal -
                                  static_cast<int64_t>(Rng.nextBelow(10)))));
        break;
      }
    }
    TermId F = Arena.mkAnd(Literals);
    SolverContext Ctx(Arena);
    SolverStats Stats;
    SatAnswer Answer = Ctx.checkFormula(F, Stats);
    ASSERT_TRUE(Answer.isSat())
        << "simple-fragment formula reported "
        << satResultName(Answer.Result) << ": " << Arena.toString(F);
    ASSERT_TRUE(Answer.ModelValue.evalBool(Arena, F));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// Every Unknown answer carries a structured reason string
// (docs/robustness.md): budgets, stop controls, and fragment limits each
// report distinctly so callers (and the search telemetry) can tell a
// resource cliff from an expressiveness cliff.

TEST_F(SolverTest, DecisionBudgetExhaustionIsReported) {
  SolverOptions Options;
  Options.MaxDecisions = 0;
  SatAnswer A = check(Arena.mkEq(X, Arena.mkIntConst(567)), Options);
  EXPECT_EQ(A.Result, SatResult::Unknown);
  EXPECT_EQ(A.Reason, "decision budget exhausted");
}

TEST_F(SolverTest, SupportBudgetExhaustionIsReported) {
  // First support is unsatisfiable, the budget bars exploring the second:
  // no conclusion about the disjunction is possible.
  TermId Contradiction = Arena.mkAnd(Arena.mkEq(X, Arena.mkIntConst(1)),
                                     Arena.mkEq(X, Arena.mkIntConst(2)));
  TermId F = Arena.mkOr(Contradiction, Arena.mkEq(X, Arena.mkIntConst(3)));
  SolverOptions Options;
  Options.MaxSupports = 1;
  SatAnswer A = check(F, Options);
  EXPECT_EQ(A.Result, SatResult::Unknown);
  EXPECT_EQ(A.Reason, "support budget exhausted");
}

TEST_F(SolverTest, ExpiredDeadlineIsReported) {
  SolverOptions Options;
  Options.Deadline = support::Deadline::afterNanos(0);
  SatAnswer A = check(Arena.mkEq(X, Arena.mkIntConst(567)), Options);
  EXPECT_EQ(A.Result, SatResult::Unknown);
  EXPECT_EQ(A.Reason, "deadline expired");
}

TEST_F(SolverTest, CancellationIsReported) {
  SolverOptions Options;
  Options.Cancel = support::CancelToken::create();
  Options.Cancel.requestCancel();
  SatAnswer A = check(Arena.mkEq(X, Arena.mkIntConst(567)), Options);
  EXPECT_EQ(A.Result, SatResult::Unknown);
  EXPECT_EQ(A.Reason, "cancelled");
}

TEST_F(SolverTest, InactiveStopControlsDoNotPerturbAnswers) {
  // A generous deadline must behave exactly like no deadline: the poll
  // returns None and the query completes normally.
  SolverOptions Options;
  Options.Deadline = support::Deadline::afterMillis(60 * 60 * 1000);
  SatAnswer A = check(Arena.mkEq(X, Arena.mkIntConst(567)), Options);
  ASSERT_TRUE(A.isSat());
  EXPECT_EQ(A.ModelValue.varValueOr(Arena.getOrCreateVar("x"), 0), 567);
}

TEST(UnknownReasonCounters, DecisionBudgetSubCounterIsBumped) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  uint64_t Before = Reg.counter("solver.unknown.decision_budget").value();

  TermArena Arena;
  TermId X = Arena.mkVar("x");
  SolverOptions Options;
  Options.MaxDecisions = 0;
  SolverContext Ctx(Arena, Options);
  SolverStats Stats;
  SatAnswer Answer = Ctx.checkFormula(
      Arena.mkAnd(Arena.mkLe(Arena.mkIntConst(3), X),
                  Arena.mkLt(X, Arena.mkIntConst(9))),
      Stats);
  ASSERT_EQ(Answer.Result, SatResult::Unknown);
  EXPECT_EQ(Answer.Reason, "decision budget exhausted");
  EXPECT_EQ(Reg.counter("solver.unknown.decision_budget").value(),
            Before + 1);
}

} // namespace
