//===- tests/test_core_search_robustness.cpp - Fault-tolerant search ------------===//
//
// Query-fault recovery, stop controls, and degraded-mode behaviour of the
// directed search (docs/robustness.md). The headline guarantee: an
// injected fault at any recoverable site may cost retries, but the
// SearchResult stays bit-identical to the fault-free search — recovery is
// invisible in the deterministic fields and visible only in
// InlineRetries / telemetry.
//
//===----------------------------------------------------------------------===//

#include "app/KeywordLexer.h"
#include "core/Search.h"
#include "lang/Parser.h"
#include "smt/QueryCache.h"
#include "support/Deadline.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace hotg;
using namespace hotg::app;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;
using namespace hotg::support;

namespace {

/// The deterministic subset of SearchResult (everything except
/// InlineRetries and context-reuse stats) must match the fault-free run.
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
  EXPECT_EQ(A.SolverQueryStats.Checks, B.SolverQueryStats.Checks) << What;
  EXPECT_EQ(A.SolverQueryStats.Decisions, B.SolverQueryStats.Decisions)
      << What;
  EXPECT_EQ(A.ValidityQueryStats.GroundingsTried,
            B.ValidityQueryStats.GroundingsTried)
      << What;
  EXPECT_EQ(A.ValidityQueryStats.GroundingsPruned,
            B.ValidityQueryStats.GroundingsPruned)
      << What;
  EXPECT_EQ(A.Stopped, B.Stopped) << What;
}

/// Installs a FaultInjector for one scope; always disarms on exit so a
/// failing assertion cannot leak faults into unrelated tests.
class ScopedInjector {
public:
  explicit ScopedInjector(const std::string &Spec) {
    std::string Error;
    Injector = FaultInjector::parse(Spec, Error);
    EXPECT_NE(Injector, nullptr) << Spec << ": " << Error;
    setFaultInjector(Injector.get());
  }
  ~ScopedInjector() { setFaultInjector(nullptr); }
  FaultInjector *operator->() { return Injector.get(); }

private:
  std::unique_ptr<FaultInjector> Injector;
};

class SearchRobustnessTest : public ::testing::Test {
protected:
  void SetUp() override {
    App = buildKeywordLexer({6, 2});
    DiagnosticEngine Diags;
    auto Parsed = lang::parseAndCheck(App.Source, Diags);
    ASSERT_TRUE(Parsed) << Diags.render("lexer");
    Prog = std::move(*Parsed);
    Natives.registerDefaultHashes();
  }

  SearchOptions baseOptions() {
    SearchOptions Options;
    Options.Policy = ConcretizationPolicy::HigherOrder;
    Options.MaxTests = 48;
    Options.InitialInput = App.identifierInput();
    Options.RandomLo = 32;
    Options.RandomHi = 126;
    Options.SkipCoveredTargets = false;
    return Options;
  }

  SearchResult runWith(const SearchOptions &Options) {
    DirectedSearch Search(Prog, Natives, App.Entry, Options);
    return Search.run();
  }

  LexerApp App;
  lang::Program Prog;
  NativeRegistry Natives;
};

TEST_F(SearchRobustnessTest, DroppedCachePublishesOnlyCostRecomputation) {
  // Only a caller-installed cache (hotg-serve's fabric) is published to.
  // With every publish dropped, a second search of the same epoch misses
  // and recomputes the identical answers.
  SearchResult Baseline = runWith(baseOptions());
  smt::QueryCache Cache;
  SearchOptions Options = baseOptions();
  Options.SharedCache = &Cache;
  ScopedInjector Injector("cache-publish:1.0:5");
  for (const char *What : {"first session", "second session"})
    expectSameResult(Baseline, runWith(Options), What);
  EXPECT_GT(Injector->probes(FaultSite::CachePublish), 0u);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.hits(), 0u);
}

TEST_F(SearchRobustnessTest, SerialSolverFaultsRetryInline) {
  // A fault thrown from inside a query lands in the guarded solve wrapper,
  // which retries a bounded number of times before degrading that one
  // query to Unknown.
  ScopedInjector Injector("validity-ground:0.05:13");
  SearchResult Faulty = runWith(baseOptions());
  EXPECT_GT(Faulty.InlineRetries, 0u);
  EXPECT_GE(Faulty.Tests.size(), 1u);
}

TEST_F(SearchRobustnessTest, QueryFaultsRecoverIdenticallyOnAnySchedule) {
  // Faults inside queries are keyed by the query and its attempt ordinal
  // (support::FaultScope), never by timing or by which thread runs the
  // search, so repeated runs fault the same query attempts; a bounded
  // retry redraws, and every run recovers to the clean result.
  SearchResult Baseline = runWith(baseOptions());
  for (const char *Spec : {"solver-check:0.05:7", "validity-ground:0.05:13"})
    for (unsigned Run = 0; Run != 2; ++Run) {
      ScopedInjector Injector(Spec);
      SearchResult Faulty = runWith(baseOptions());
      expectSameResult(Baseline, Faulty, Spec);
      EXPECT_GT(Faulty.InlineRetries, 0u) << Spec << " run " << Run;
    }
}

TEST_F(SearchRobustnessTest, PreExpiredDeadlineYieldsPartialResult) {
  SearchOptions Options = baseOptions();
  Options.Deadline = Deadline::afterNanos(0);
  SearchResult R = runWith(Options);
  EXPECT_EQ(R.Stopped, StopReason::DeadlineExpired);
  // Partial results are first-class: the seed test always runs (its
  // interpreter poll fires only every 1024 steps) and is reported.
  EXPECT_GE(R.Tests.size(), 1u);
  EXPECT_LT(R.Tests.size(), 48u);
}

TEST_F(SearchRobustnessTest, DeadlineExpiryMidSearchStops) {
  // Not bit-identical (a deadline run is inherently timing-dependent) but
  // it must stop, stay well-formed, and report the reason.
  SearchOptions Options = baseOptions();
  Options.MaxTests = 100000;
  Options.Deadline = Deadline::afterMillis(1);
  SearchResult R = runWith(Options);
  EXPECT_EQ(R.Stopped, StopReason::DeadlineExpired);
  EXPECT_GE(R.Tests.size(), 1u);
}

TEST_F(SearchRobustnessTest, CancellationStopsTheSearch) {
  SearchOptions Options = baseOptions();
  Options.Cancel = CancelToken::create();
  Options.Cancel.requestCancel();
  SearchResult R = runWith(Options);
  EXPECT_EQ(R.Stopped, StopReason::Cancelled);
  EXPECT_LT(R.Tests.size(), 48u);
}

TEST_F(SearchRobustnessTest, TestBudgetWithRemainingWorkIsReported) {
  SearchOptions Options = baseOptions();
  Options.MaxTests = 3;
  SearchResult R = runWith(Options);
  EXPECT_EQ(R.Stopped, StopReason::TestBudget);
  EXPECT_EQ(R.Tests.size(), 3u);
}

TEST_F(SearchRobustnessTest, FaultFreeRunReportsNoFailures) {
  SearchResult R = runWith(baseOptions());
  EXPECT_EQ(R.InlineRetries, 0u);
  // No stop control is armed, so only natural completion or the test
  // budget can be reported.
  EXPECT_TRUE(R.Stopped == StopReason::None ||
              R.Stopped == StopReason::TestBudget);
}

TEST_F(SearchRobustnessTest, RandomSearchHonoursTheDeadline) {
  RunLimits Limits;
  Limits.Deadline = Deadline::afterNanos(0);
  SearchResult R = runRandomSearch(Prog, Natives, App.Entry,
                                   /*NumTests=*/100000, 32, 126,
                                   /*Seed=*/42, Limits);
  EXPECT_EQ(R.Stopped, StopReason::DeadlineExpired);
  EXPECT_LT(R.Tests.size(), 100000u);
}

} // namespace
