//===- tests/test_core_search_unit.cpp - Search/coverage/random-baseline units ----===//

#include "app/KeywordLexer.h"
#include "app/PacketParser.h"
#include "core/Coverage.h"
#include "core/Search.h"
#include "lang/Parser.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace hotg;
using namespace hotg::app;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;

namespace {

TEST(Coverage, BranchDirectionsAreIndependent) {
  Coverage Cov(3);
  EXPECT_EQ(Cov.totalDirections(), 6u);
  EXPECT_EQ(Cov.coveredDirections(), 0u);
  Cov.noteBranch(1, true);
  EXPECT_TRUE(Cov.isCovered(1, true));
  EXPECT_FALSE(Cov.isCovered(1, false));
  Cov.noteBranch(1, false);
  EXPECT_EQ(Cov.coveredDirections(), 2u);
  EXPECT_FALSE(Cov.isCovered(2, true));
}

TEST(Coverage, NoteTraceAndErrorSites) {
  Coverage Cov(2);
  Cov.noteTrace({{0, true}, {1, false}, {0, true}});
  EXPECT_EQ(Cov.coveredDirections(), 2u);
  Cov.noteErrorSite(0);
  Cov.noteErrorSite(0);
  EXPECT_EQ(Cov.errorSitesReached(), 1u);
  EXPECT_TRUE(Cov.errorSiteReached(0));
  EXPECT_FALSE(Cov.errorSiteReached(1));
}

TEST(Coverage, MergeCombines) {
  Coverage A(2), B(2);
  A.noteBranch(0, true);
  B.noteBranch(1, false);
  B.noteErrorSite(3);
  A.mergeFrom(B);
  EXPECT_TRUE(A.isCovered(0, true));
  EXPECT_TRUE(A.isCovered(1, false));
  EXPECT_TRUE(A.errorSiteReached(3));
}

TEST(Coverage, InvalidBranchIsIgnored) {
  Coverage Cov(1);
  Cov.noteBranch(lang::InvalidBranch, true);
  EXPECT_EQ(Cov.coveredDirections(), 0u);
}

class SearchUnitTest : public ::testing::Test {
protected:
  void compile(std::string_view Source) {
    DiagnosticEngine Diags;
    auto Parsed = lang::parseAndCheck(Source, Diags);
    ASSERT_TRUE(Parsed) << Diags.render();
    Prog = std::move(*Parsed);
  }

  lang::Program Prog;
  NativeRegistry Natives;
};

TEST_F(SearchUnitTest, CoversLinearBranchesExhaustively) {
  compile("fun f(x: int) -> int {\n"
          "  if (x == 1000) { return 1; }\n"
          "  if (x == -77) { return 2; }\n"
          "  if (x < -1000000) { return 3; }\n"
          "  return 0;\n"
          "}");
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::Unsound;
  Options.MaxTests = 16;
  TestInput Init;
  Init.Cells = {0};
  Options.InitialInput = Init;
  DirectedSearch Search(Prog, Natives, "f", Options);
  SearchResult R = Search.run();
  EXPECT_EQ(R.Cov.coveredDirections(), 6u) << "all branch directions";
  EXPECT_EQ(R.Divergences, 0u) << "no imprecision, no divergences";
}

TEST_F(SearchUnitTest, FindsAssertAndFaultBugs) {
  compile("fun f(x: int, y: int) -> int {\n"
          "  if (x == 7) { assert(y != 0); }\n"
          "  if (x == 9) { return 10 / y; }\n"
          "  return 0;\n"
          "}");
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::Unsound;
  Options.MaxTests = 32;
  Options.SkipCoveredTargets = false;
  TestInput Init;
  Init.Cells = {1, 0};
  Options.InitialInput = Init;
  DirectedSearch Search(Prog, Natives, "f", Options);
  SearchResult R = Search.run();
  EXPECT_TRUE(R.foundStatus(RunStatus::AssertFailed));
  EXPECT_TRUE(R.foundStatus(RunStatus::DivByZero));
}

TEST_F(SearchUnitTest, UnconstrainedInputsKeepParentValues) {
  // The paper: "by picking randomly and then fixing the value of y".
  compile("fun f(x: int, y: int) -> int {\n"
          "  if (x == 5) { error(\"e\"); }\n"
          "  return y;\n"
          "}");
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::Unsound;
  Options.MaxTests = 8;
  TestInput Init;
  Init.Cells = {0, 1234};
  Options.InitialInput = Init;
  DirectedSearch Search(Prog, Natives, "f", Options);
  SearchResult R = Search.run();
  ASSERT_TRUE(R.foundErrorSite(0));
  for (const BugRecord &Bug : R.Bugs)
    EXPECT_EQ(Bug.Input.Cells[1], 1234) << "y was never constrained";
}

TEST_F(SearchUnitTest, ExploresLoopIterationsWithoutSkipping) {
  compile("fun f(n: int) -> int {\n"
          "  var i: int = 0;\n"
          "  var s: int = 0;\n"
          "  while (i < n) { s = s + i; i = i + 1; }\n"
          "  if (s == 6) { error(\"sum\"); }\n"
          "  return s;\n"
          "}");
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::Unsound;
  Options.MaxTests = 24;
  Options.SkipCoveredTargets = false;
  TestInput Init;
  Init.Cells = {0};
  Options.InitialInput = Init;
  DirectedSearch Search(Prog, Natives, "f", Options);
  SearchResult R = Search.run();
  // s == 6 requires n == 4 (0+1+2+3); reached by unrolling the loop.
  EXPECT_TRUE(R.foundErrorSite(0));
}

TEST_F(SearchUnitTest, BudgetIsRespected) {
  compile("fun f(x: int) -> int {\n"
          "  if (x == 1) { return 1; }\n"
          "  if (x == 2) { return 2; }\n"
          "  if (x == 3) { return 3; }\n"
          "  return 0;\n"
          "}");
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::Unsound;
  Options.MaxTests = 2;
  DirectedSearch Search(Prog, Natives, "f", Options);
  SearchResult R = Search.run();
  EXPECT_LE(R.testsRun(), 2u);
}

TEST_F(SearchUnitTest, DepthFirstOrderWorks) {
  compile("fun f(x: int, y: int) -> int {\n"
          "  if (x > 0) { if (y > 0) { if (x > y) { error(\"deep\"); } } }\n"
          "  return 0;\n"
          "}");
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::Unsound;
  Options.Order = SearchOptions::OrderKind::DepthFirst;
  Options.MaxTests = 16;
  TestInput Init;
  Init.Cells = {-1, -1};
  Options.InitialInput = Init;
  DirectedSearch Search(Prog, Natives, "f", Options);
  SearchResult R = Search.run();
  EXPECT_TRUE(R.foundErrorSite(0));
}

TEST_F(SearchUnitTest, RandomBaselineFindsShallowBugsOnly) {
  compile("fun f(x: int) -> int {\n"
          "  if (x > 50) { error(\"easy\"); }\n"
          "  if (x == 123456789) { error(\"needle\"); }\n"
          "  return 0;\n"
          "}");
  SearchResult R =
      runRandomSearch(Prog, Natives, "f", /*NumTests=*/128, 0, 99, 3);
  EXPECT_TRUE(R.foundErrorSite(0)) << "~50% per test";
  EXPECT_FALSE(R.foundErrorSite(1)) << "needle outside random range";
  EXPECT_EQ(R.testsRun(), 128u);
}

TEST_F(SearchUnitTest, SamplesAccumulateAcrossRuns) {
  compile("extern hash(int) -> int;\n"
          "fun f(x: int, y: int) -> int {\n"
          "  if (x == hash(y)) { error(\"hit\"); }\n"
          "  return 0;\n"
          "}");
  NativeRegistry HashNatives;
  HashNatives.registerDefaultHashes();
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::HigherOrder;
  Options.MaxTests = 8;
  TestInput Init;
  Init.Cells = {33, 42};
  Options.InitialInput = Init;
  DirectedSearch Search(Prog, HashNatives, "f", Options);
  SearchResult R = Search.run();
  EXPECT_TRUE(R.foundErrorSite(0));
  EXPECT_GE(Search.samples().size(), 1u);
}

TEST_F(SearchUnitTest, HigherOrderSearchEmitsTelemetryEvents) {
  compile("extern hash(int) -> int;\n"
          "fun f(x: int, y: int) -> int {\n"
          "  if (x == hash(y)) { error(\"hit\"); }\n"
          "  return 0;\n"
          "}");
  NativeRegistry HashNatives;
  HashNatives.registerDefaultHashes();
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::HigherOrder;
  Options.MaxTests = 8;
  TestInput Init;
  Init.Cells = {33, 42};
  Options.InitialInput = Init;

  telemetry::RecordingTraceSink Rec;
  telemetry::ScopedSink Guard(&Rec);
  DirectedSearch Search(Prog, HashNatives, "f", Options);
  SearchResult R = Search.run();

  EXPECT_TRUE(R.foundErrorSite(0));
  EXPECT_GE(Rec.countOf(telemetry::EventKind::ValidityQuery), 1u)
      << "a HigherOrder search must consult the validity solver";
  EXPECT_GE(Rec.countOf(telemetry::EventKind::SampleLearned), 1u)
      << "executing hash() must record IOF samples";
  EXPECT_GE(Rec.countOf(telemetry::EventKind::TestRun), 1u);
  EXPECT_GE(Rec.countOf(telemetry::EventKind::Candidate), 1u);
  EXPECT_GE(Rec.countOf(telemetry::EventKind::BugFound), 1u);

  // Every test_run event carries the per-test record of the tentpole
  // spec: input cells, policy, status, coverage delta, elapsed time.
  for (const telemetry::Event &E : Rec.events()) {
    if (E.kind() != telemetry::EventKind::TestRun)
      continue;
    ASSERT_NE(E.find("cells"), nullptr);
    ASSERT_NE(E.find("policy"), nullptr);
    EXPECT_EQ(E.find("policy")->Str, "higher-order");
    ASSERT_NE(E.find("status"), nullptr);
    ASSERT_NE(E.find("new_coverage"), nullptr);
    ASSERT_NE(E.find("us"), nullptr);
  }
}

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
