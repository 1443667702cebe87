//===- tests/test_policy_sweep.cpp - Parameterized invariants over policies -------===//
//
// TEST_P sweeps: invariants that must hold for every concretization policy
// (and several budgets), run over the example corpus. These complement the
// per-example integration tests with breadth.
//
//===----------------------------------------------------------------------===//

#include "app/Examples.h"
#include "core/Search.h"
#include "dse/SymbolicExecutor.h"
#include "interp/Interp.h"

#include <gtest/gtest.h>

using namespace hotg;
using namespace hotg::app;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;

namespace {

struct SweepParam {
  const char *Example;
  ConcretizationPolicy Policy;
};

// How gtest shows a parameter in test listings. Without it gtest dumps the
// struct's raw bytes -- a string-literal address and uninitialised padding --
// so the listed test names would change from one build or run to the next.
void PrintTo(const SweepParam &Param, std::ostream *OS) {
  *OS << Param.Example << '/' << policyName(Param.Policy);
}

std::string paramName(const ::testing::TestParamInfo<SweepParam> &Info) {
  std::string Name = Info.param.Example;
  Name += "_";
  Name += policyName(Info.param.Policy);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

class PolicySweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PolicySweepTest, SearchInvariants) {
  ExampleProgram Example = exampleByName(GetParam().Example);
  lang::Program Prog = compileExample(Example);
  NativeRegistry Natives;
  registerExampleNatives(Natives);

  SearchOptions Options;
  Options.Policy = GetParam().Policy;
  Options.MaxTests = 20;
  Options.InitialInput = Example.InitialInput;
  DirectedSearch Search(Prog, Natives, Example.Entry, Options);
  SearchResult R = Search.run();

  // Budget respected; at least the initial run happened.
  EXPECT_GE(R.testsRun(), 1u);
  EXPECT_LE(R.testsRun(), 20u);

  // Coverage never exceeds the program's branch-direction space.
  EXPECT_LE(R.Cov.coveredDirections(), R.Cov.totalDirections());

  // Sound policies never diverge (Theorems 2/3); unsound may.
  if (GetParam().Policy != ConcretizationPolicy::Unsound)
    EXPECT_EQ(R.Divergences, 0u);

  // Every reported bug is reproducible with the concrete interpreter.
  Interpreter Interp(Prog, Natives);
  for (const BugRecord &Bug : R.Bugs) {
    RunResult Replay = Interp.run(Example.Entry, Bug.Input);
    EXPECT_EQ(Replay.Status, Bug.Status)
        << "bug input " << Bug.Input.toString() << " did not reproduce";
    if (Bug.Status == RunStatus::ErrorHit) {
      ASSERT_TRUE(Replay.Error.has_value());
      EXPECT_EQ(Replay.Error->Site, Bug.Site);
    }
  }

  // Test records are consistent: every diverged record comes from a
  // derived (non-initial) test; intermediate runs only under HigherOrder.
  if (!R.Tests.empty())
    EXPECT_FALSE(R.Tests.front().Diverged) << "the seed test cannot diverge";
  for (const TestRecord &T : R.Tests)
    if (T.Intermediate)
      EXPECT_EQ(GetParam().Policy, ConcretizationPolicy::HigherOrder);
}

std::vector<SweepParam> allParams() {
  std::vector<SweepParam> Params;
  for (const char *Name :
       {"obscure", "foo", "foo_bis", "bar", "pub", "eq_pair", "offset",
        "assign_then_test", "chained_hash", "nonlinear"})
    for (ConcretizationPolicy Policy :
         {ConcretizationPolicy::Unsound, ConcretizationPolicy::Sound,
          ConcretizationPolicy::SoundDelayed,
          ConcretizationPolicy::HigherOrder})
      Params.push_back({Name, Policy});
  return Params;
}

INSTANTIATE_TEST_SUITE_P(Examples, PolicySweepTest,
                         ::testing::ValuesIn(allParams()), paramName);

//===----------------------------------------------------------------------===//
// Per-policy executor invariants on the example corpus.
//===----------------------------------------------------------------------===//

class ExecutorSweepTest
    : public ::testing::TestWithParam<ConcretizationPolicy> {};

TEST_P(ExecutorSweepTest, PathConstraintSatisfiedByOwnInput) {
  // The generating input is always a model of its own path constraint
  // (completeness direction of Definition 2 restricted to the run itself).
  for (const ExampleProgram &Example : allExamples()) {
    lang::Program Prog = compileExample(Example);
    NativeRegistry Natives;
    registerExampleNatives(Natives);
    smt::TermArena Arena;
    smt::SampleTable Samples;

    ExecOptions Options;
    Options.Policy = GetParam();
    SymbolicExecutor Exec(Prog, Natives, Arena, Options);
    TestInput Input = Example.InitialInput ? *Example.InitialInput
                                           : TestInput{{0, 0}};
    PathResult PR = Exec.execute(Example.Entry, Input, &Samples);

    smt::Model M;
    M.attachSamples(&Samples);
    lang::Program &P = Prog;
    InputLayout Layout(*P.findFunction(Example.Entry));
    for (unsigned I = 0; I != Layout.size(); ++I)
      M.setVar(Arena.getOrCreateVar(Layout.name(I)), Input.Cells[I]);

    for (const dse::PathEntry &E : PR.PC.Entries) {
      auto V = M.evalBoolChecked(Arena, E.Constraint);
      // Under Unsound/Sound the constraint may reference only inputs and
      // constants, so checked evaluation succeeds; under HigherOrder the
      // IOF table supplies every application the run performed.
      ASSERT_TRUE(V.has_value())
          << Example.Name << ": constraint not evaluable: "
          << Arena.toString(E.Constraint);
      EXPECT_TRUE(*V) << Example.Name << " (" << policyName(GetParam())
                      << "): own input violates "
                      << Arena.toString(E.Constraint);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ExecutorSweepTest,
    ::testing::Values(ConcretizationPolicy::Unsound,
                      ConcretizationPolicy::Sound,
                      ConcretizationPolicy::SoundDelayed,
                      ConcretizationPolicy::HigherOrder),
    [](const ::testing::TestParamInfo<ConcretizationPolicy> &Info) {
      std::string Name = policyName(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

} // namespace
