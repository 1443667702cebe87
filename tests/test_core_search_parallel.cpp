//===- tests/test_core_search_parallel.cpp - Parallel search determinism ---------===//
//
// The parallel candidate-evaluation pipeline (docs/parallelism.md) is a
// scheduling optimization: for ANY --jobs value the SearchResult must be
// bit-identical to the serial search — same test sequence, bugs, coverage,
// divergences, and per-query work aggregates. These tests sweep Jobs over
// {1, 2, 4} on the Section 7 keyword lexer and over {1, 4} on every
// example program, under all four concretization policies, and pin down
// the search-owned solver-stat aggregation
// (SolverQueryStats / ValidityQueryStats) that replaced the throwaway
// per-candidate stats.
//
//===----------------------------------------------------------------------===//

#include "app/Examples.h"
#include "app/KeywordLexer.h"
#include "app/PacketParser.h"
#include "core/Search.h"
#include "lang/Parser.h"
#include "support/Support.h"

#include <gtest/gtest.h>

using namespace hotg;
using namespace hotg::app;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;

namespace {

void expectSameResult(const SearchResult &A, const SearchResult &B,
                      const char *What) {
  ASSERT_EQ(A.Tests.size(), B.Tests.size()) << What;
  for (size_t I = 0; I != A.Tests.size(); ++I) {
    EXPECT_EQ(A.Tests[I].Input.Cells, B.Tests[I].Input.Cells)
        << What << " test #" << I;
    EXPECT_EQ(A.Tests[I].Status, B.Tests[I].Status) << What << " #" << I;
    EXPECT_EQ(A.Tests[I].Diverged, B.Tests[I].Diverged) << What << " #" << I;
    EXPECT_EQ(A.Tests[I].Intermediate, B.Tests[I].Intermediate)
        << What << " #" << I;
  }
  ASSERT_EQ(A.Bugs.size(), B.Bugs.size()) << What;
  for (size_t I = 0; I != A.Bugs.size(); ++I) {
    EXPECT_EQ(A.Bugs[I].Input.Cells, B.Bugs[I].Input.Cells) << What;
    EXPECT_EQ(A.Bugs[I].Status, B.Bugs[I].Status) << What;
    EXPECT_EQ(A.Bugs[I].Site, B.Bugs[I].Site) << What;
    EXPECT_EQ(A.Bugs[I].FoundAtTest, B.Bugs[I].FoundAtTest) << What;
  }
  EXPECT_TRUE(A.Cov == B.Cov) << What << ": coverage differs";
  EXPECT_EQ(A.Divergences, B.Divergences) << What;
  EXPECT_EQ(A.SolverCalls, B.SolverCalls) << What;
  EXPECT_EQ(A.ValidityCalls, B.ValidityCalls) << What;
  EXPECT_EQ(A.MultiStepRuns, B.MultiStepRuns) << What;
  // Per-query work folds to the same totals whether a query ran inline or
  // was consumed from the speculation cache.
  EXPECT_EQ(A.SolverQueryStats.Checks, B.SolverQueryStats.Checks) << What;
  EXPECT_EQ(A.SolverQueryStats.SupportsExplored,
            B.SolverQueryStats.SupportsExplored)
      << What;
  EXPECT_EQ(A.SolverQueryStats.Decisions, B.SolverQueryStats.Decisions)
      << What;
  EXPECT_EQ(A.SolverQueryStats.Propagations, B.SolverQueryStats.Propagations)
      << What;
  EXPECT_EQ(A.ValidityQueryStats.SupportsExplored,
            B.ValidityQueryStats.SupportsExplored)
      << What;
  EXPECT_EQ(A.ValidityQueryStats.GroundingsTried,
            B.ValidityQueryStats.GroundingsTried)
      << What;
  EXPECT_EQ(A.ValidityQueryStats.GroundingsPruned,
            B.ValidityQueryStats.GroundingsPruned)
      << What;
}

class ParallelSearchTest : public ::testing::TestWithParam<
                               std::tuple<ConcretizationPolicy, bool>> {
protected:
  void SetUp() override {
    App = buildKeywordLexer({6, 2});
    DiagnosticEngine Diags;
    auto Parsed = lang::parseAndCheck(App.Source, Diags);
    ASSERT_TRUE(Parsed) << Diags.render("lexer");
    Prog = std::move(*Parsed);
    Natives.registerDefaultHashes();
  }

  SearchResult runWithJobs(unsigned Jobs) {
    SearchOptions Options;
    Options.Policy = std::get<0>(GetParam());
    Options.MaxTests = 48;
    Options.InitialInput = App.identifierInput();
    Options.RandomLo = 32;
    Options.RandomHi = 126;
    Options.SkipCoveredTargets = false;
    Options.Order = std::get<1>(GetParam())
                        ? SearchOptions::OrderKind::DepthFirst
                        : SearchOptions::OrderKind::BreadthFirst;
    Options.Jobs = Jobs;
    DirectedSearch Search(Prog, Natives, App.Entry, Options);
    return Search.run();
  }

  LexerApp App;
  lang::Program Prog;
  NativeRegistry Natives;
};

TEST_P(ParallelSearchTest, IdenticalResultForAnyJobsValue) {
  SearchResult Serial = runWithJobs(1);
  EXPECT_EQ(Serial.CacheHits + Serial.CacheMisses, 0u)
      << "jobs=1 must not touch the query cache";
  for (unsigned Jobs : {2u, 4u}) {
    SearchResult Parallel = runWithJobs(Jobs);
    expectSameResult(Serial, Parallel,
                     (testing::PrintToString(Jobs) + " jobs").c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ParallelSearchTest,
    ::testing::Combine(::testing::Values(ConcretizationPolicy::Unsound,
                                         ConcretizationPolicy::Sound,
                                         ConcretizationPolicy::SoundDelayed,
                                         ConcretizationPolicy::HigherOrder),
                       ::testing::Bool()),
    [](const auto &Info) {
      std::string Name = policyName(std::get<0>(Info.param));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + (std::get<1>(Info.param) ? "_dfs" : "_bfs");
    });

/// Every example program at jobs 1 and 4: identical results and work
/// aggregates, and identical exported IOF sample tables.
class ExampleJobsSweep : public ::testing::TestWithParam<ConcretizationPolicy> {
};

TEST_P(ExampleJobsSweep, SameWorkAtJobs1And4) {
  for (const ExampleProgram &Example : allExamples()) {
    lang::Program Prog = compileExample(Example);
    NativeRegistry Natives;
    registerExampleNatives(Natives);

    auto Run = [&](unsigned Jobs) {
      SearchOptions Options;
      Options.Policy = GetParam();
      Options.MaxTests = 24;
      Options.Jobs = Jobs;
      Options.InitialInput = Example.InitialInput;
      Options.SkipCoveredTargets = false;
      DirectedSearch Search(Prog, Natives, Example.Entry, Options);
      SearchResult Result = Search.run();
      return std::make_pair(std::move(Result), Search.exportSamples());
    };

    auto [Serial, SerialSamples] = Run(1);
    auto [Parallel, ParallelSamples] = Run(4);
    expectSameResult(Serial, Parallel, Example.Name.c_str());
    EXPECT_EQ(SerialSamples, ParallelSamples)
        << Example.Name << ": learned IOF tables must match";
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ExampleJobsSweep,
                         ::testing::Values(ConcretizationPolicy::Unsound,
                                           ConcretizationPolicy::Sound,
                                           ConcretizationPolicy::SoundDelayed,
                                           ConcretizationPolicy::HigherOrder),
                         [](const auto &Info) {
                           std::string Name = policyName(Info.param);
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST(SearchQueryStats, ClassicAggregatesAcrossTheWholeSearch) {
  // The satisfiability work of a search is aggregated in the
  // SearchResult: one solver check per classic candidate, so
  // Checks == SolverCalls. The packet parser is
  // used because under unsound concretization the lexer's hashed branches
  // leave no negatable linear constraints at all.
  PacketApp App = buildPacketParser();
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(App.Source, Diags);
  ASSERT_TRUE(Prog) << Diags.render("packet");
  NativeRegistry Natives;
  registerPacketNatives(Natives);

  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::Unsound;
  Options.MaxTests = 24;
  Options.InitialInput = App.validPacket(1, {1, 2});
  Options.SkipCoveredTargets = false;
  DirectedSearch Search(*Prog, Natives, App.Entry, Options);
  SearchResult R = Search.run();

  EXPECT_GT(R.SolverCalls, 0u);
  EXPECT_EQ(R.SolverQueryStats.Checks, R.SolverCalls);
  EXPECT_EQ(R.ValidityQueryStats.SupportsExplored, 0u);
  EXPECT_EQ(R.ValidityQueryStats.GroundingsTried, 0u);
}

TEST(SearchQueryStats, HigherOrderAggregatesValidityWork) {
  LexerApp App = buildKeywordLexer({4, 1});
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(App.Source, Diags);
  ASSERT_TRUE(Prog) << Diags.render("lexer");
  NativeRegistry Natives;
  Natives.registerDefaultHashes();

  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::HigherOrder;
  Options.MaxTests = 24;
  Options.InitialInput = App.identifierInput();
  Options.SkipCoveredTargets = false;
  DirectedSearch Search(*Prog, Natives, App.Entry, Options);
  SearchResult R = Search.run();

  EXPECT_GT(R.ValidityCalls, 0u);
  EXPECT_GT(R.ValidityQueryStats.SupportsExplored, 0u);
  EXPECT_GT(R.ValidityQueryStats.GroundingsTried, 0u);
  EXPECT_EQ(R.SolverQueryStats.Checks, 0u)
      << "higher-order candidates query the validity solver only";
}

} // namespace
