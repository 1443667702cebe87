//===- tests/test_support_faults.cpp - Deadline + fault-injection units ----------===//
//
// Unit tests for the robustness primitives (docs/robustness.md): the
// monotonic Deadline / CancelToken stop controls and the deterministic
// FaultInjector harness. The central property pinned down here is
// determinism: a fault decision is a pure function of (seed, site, probe
// index), or of (seed, site, scope key, attempt) inside a FaultScope, so
// re-parsing the same spec replays the exact same fire set whatever the
// thread schedule.
//
//===----------------------------------------------------------------------===//

#include "support/Deadline.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace hotg;
using namespace hotg::support;

namespace {

TEST(DeadlineTest, DefaultIsInactiveAndNeverExpires) {
  Deadline D;
  EXPECT_FALSE(D.active());
  EXPECT_FALSE(D.expired());
}

TEST(DeadlineTest, ZeroBudgetIsActiveAndExpiresImmediately) {
  Deadline D = Deadline::afterNanos(0);
  EXPECT_TRUE(D.active());
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remainingNanos(), 0);
}

TEST(DeadlineTest, GenerousBudgetIsActiveButNotExpired) {
  Deadline D = Deadline::afterMillis(60 * 60 * 1000);
  EXPECT_TRUE(D.active());
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingNanos(), 0);
}

TEST(DeadlineTest, HugeBudgetDoesNotOverflow) {
  Deadline D = Deadline::afterNanos(INT64_MAX);
  EXPECT_TRUE(D.active());
  EXPECT_FALSE(D.expired());
}

TEST(CancelTokenTest, DefaultTokenIsInvalidAndNeverCancelled) {
  CancelToken Token;
  EXPECT_FALSE(Token.valid());
  EXPECT_FALSE(Token.cancelled());
}

TEST(CancelTokenTest, RequestCancelFlipsEveryCopy) {
  CancelToken Token = CancelToken::create();
  CancelToken Copy = Token;
  EXPECT_TRUE(Token.valid());
  EXPECT_FALSE(Token.cancelled());
  Copy.requestCancel();
  EXPECT_TRUE(Token.cancelled());
  EXPECT_TRUE(Copy.cancelled());
}

TEST(StopReasonTest, CancellationWinsOverExpiredDeadline) {
  // Classification must be stable: when both controls tripped, report the
  // explicit user action, not the timer.
  CancelToken Token = CancelToken::create();
  Token.requestCancel();
  EXPECT_EQ(stopRequested(Deadline::afterNanos(0), Token),
            StopReason::Cancelled);
  EXPECT_EQ(stopRequested(Deadline::afterNanos(0), CancelToken()),
            StopReason::DeadlineExpired);
  EXPECT_EQ(stopRequested(Deadline(), CancelToken()), StopReason::None);
}

TEST(StopReasonTest, NamesAreStable) {
  EXPECT_STREQ(stopReasonName(StopReason::None), "none");
  EXPECT_STREQ(stopReasonName(StopReason::DeadlineExpired),
               "deadline-expired");
  EXPECT_STREQ(stopReasonName(StopReason::Cancelled), "cancelled");
  EXPECT_STREQ(stopReasonName(StopReason::TestBudget), "test-budget");
}

TEST(FaultInjectorTest, ParseRejectsMalformedSpecs) {
  std::string Error;
  EXPECT_EQ(FaultInjector::parse("", Error), nullptr);
  EXPECT_EQ(FaultInjector::parse("bogus:0.5:1", Error), nullptr);
  EXPECT_NE(Error.find("bogus"), std::string::npos);
  EXPECT_EQ(FaultInjector::parse("worker-dispatch", Error), nullptr);
  EXPECT_EQ(FaultInjector::parse("worker-dispatch:nope:1", Error), nullptr);
  EXPECT_EQ(FaultInjector::parse("worker-dispatch:1.5:1", Error), nullptr);
  EXPECT_EQ(FaultInjector::parse("worker-dispatch:-0.1:1", Error), nullptr);
}

TEST(FaultInjectorTest, ParseArmsOnlyTheNamedSites) {
  std::string Error;
  auto Injector =
      FaultInjector::parse("worker-dispatch:0.5:7,solver-check:1.0:9", Error);
  ASSERT_NE(Injector, nullptr) << Error;
  EXPECT_TRUE(Injector->armed(FaultSite::WorkerDispatch));
  EXPECT_TRUE(Injector->armed(FaultSite::SolverCheck));
  EXPECT_FALSE(Injector->armed(FaultSite::CachePublish));
  EXPECT_FALSE(Injector->armed(FaultSite::ArenaDelta));
  // Unarmed sites never fire and do not count probes.
  EXPECT_FALSE(Injector->shouldFail(FaultSite::CachePublish));
  EXPECT_EQ(Injector->probes(FaultSite::CachePublish), 0u);
}

TEST(FaultInjectorTest, ProbabilityZeroNeverFiresProbabilityOneAlwaysDoes) {
  FaultInjector Never, Always;
  Never.arm(FaultSite::SolverCheck, 0.0, 42);
  Always.arm(FaultSite::SolverCheck, 1.0, 42);
  for (int I = 0; I != 200; ++I) {
    EXPECT_FALSE(Never.shouldFail(FaultSite::SolverCheck));
    EXPECT_TRUE(Always.shouldFail(FaultSite::SolverCheck));
  }
  EXPECT_EQ(Never.fired(FaultSite::SolverCheck), 0u);
  EXPECT_EQ(Always.fired(FaultSite::SolverCheck), 200u);
  EXPECT_EQ(Always.probes(FaultSite::SolverCheck), 200u);
}

TEST(FaultInjectorTest, SameSpecReplaysTheExactSameFireSet) {
  std::string Error;
  auto A = FaultInjector::parse("cache-publish:0.3:1234", Error);
  auto B = FaultInjector::parse("cache-publish:0.3:1234", Error);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  std::vector<bool> FiresA, FiresB;
  for (int I = 0; I != 500; ++I) {
    FiresA.push_back(A->shouldFail(FaultSite::CachePublish));
    FiresB.push_back(B->shouldFail(FaultSite::CachePublish));
  }
  EXPECT_EQ(FiresA, FiresB);
  // ~30% of 500 probes: demand the rate is at least in the right ballpark
  // (a deterministic sequence, so this cannot flake).
  EXPECT_GT(A->fired(FaultSite::CachePublish), 75u);
  EXPECT_LT(A->fired(FaultSite::CachePublish), 250u);
}

TEST(FaultInjectorTest, DifferentSeedsGiveDifferentFireSets) {
  FaultInjector A, B;
  A.arm(FaultSite::ArenaDelta, 0.5, 1);
  B.arm(FaultSite::ArenaDelta, 0.5, 2);
  std::vector<bool> FiresA, FiresB;
  for (int I = 0; I != 200; ++I) {
    FiresA.push_back(A.shouldFail(FaultSite::ArenaDelta));
    FiresB.push_back(B.shouldFail(FaultSite::ArenaDelta));
  }
  EXPECT_NE(FiresA, FiresB);
}

TEST(FaultInjectorTest, MaybeInjectFaultThrowsWithSiteAndName) {
  FaultInjector Injector;
  Injector.arm(FaultSite::WorkerDispatch, 1.0, 5);
  setFaultInjector(&Injector);
  try {
    maybeInjectFault(FaultSite::WorkerDispatch);
    setFaultInjector(nullptr);
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected &E) {
    setFaultInjector(nullptr);
    EXPECT_EQ(E.site(), FaultSite::WorkerDispatch);
    EXPECT_NE(std::string(E.what()).find("worker-dispatch"),
              std::string::npos);
  }
  // With no injector installed the hook is a no-op.
  EXPECT_NO_THROW(maybeInjectFault(FaultSite::WorkerDispatch));
}

TEST(FaultInjectorTest, SummaryListsArmedSitesWithCounts) {
  FaultInjector Injector;
  Injector.arm(FaultSite::SolverCheck, 1.0, 1);
  (void)Injector.shouldFail(FaultSite::SolverCheck);
  (void)Injector.shouldFail(FaultSite::SolverCheck);
  std::string Summary = Injector.summary();
  EXPECT_NE(Summary.find("solver-check"), std::string::npos);
  EXPECT_NE(Summary.find("2"), std::string::npos);
  EXPECT_EQ(Summary.find("worker-dispatch"), std::string::npos);
}

/// Inside a FaultScope the decision depends on the scope's key and attempt
/// only: probing the same keys on other threads, in another order and
/// after unrelated probes replays the same decisions.
TEST(FaultScopeTest, DecisionIgnoresProbeOrderAndThreads) {
  FaultInjector Injector;
  Injector.arm(FaultSite::SolverCheck, 0.3, 7);
  constexpr uint64_t Keys = 256;
  std::vector<bool> Serial;
  for (uint64_t Key = 0; Key != Keys; ++Key) {
    FaultScope Scope(Key, 0);
    Serial.push_back(Injector.shouldFail(FaultSite::SolverCheck));
  }
  std::vector<char> Parallel(Keys);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t Key = Keys; Key-- != 0;)
        if (Key % 4 == T) {
          FaultScope Scope(Key, 0);
          (void)Injector.shouldFail(FaultSite::SolverCheck);
          Parallel[Key] = Injector.shouldFail(FaultSite::SolverCheck);
        }
    });
  for (std::thread &T : Threads)
    T.join();
  for (uint64_t Key = 0; Key != Keys; ++Key)
    EXPECT_EQ(bool(Parallel[Key]), Serial[Key]) << "key " << Key;
  EXPECT_GT(Injector.fired(FaultSite::SolverCheck), 0u);
}

/// Every probe of an attempt decides alike; the next attempt draws afresh,
/// so a bounded retry of a faulted attempt can succeed.
TEST(FaultScopeTest, RetryAttemptDrawsAfresh) {
  FaultInjector Injector;
  Injector.arm(FaultSite::ValidityGround, 0.5, 3);
  unsigned Recovered = 0;
  for (uint64_t Key = 0; Key != 64; ++Key) {
    bool First;
    {
      FaultScope Scope(Key, 0);
      First = Injector.shouldFail(FaultSite::ValidityGround);
      for (int Probe = 0; Probe != 8; ++Probe)
        EXPECT_EQ(Injector.shouldFail(FaultSite::ValidityGround), First);
    }
    if (!First)
      continue;
    for (unsigned Attempt = 1; Attempt != 8; ++Attempt) {
      FaultScope Scope(Key, Attempt);
      if (!Injector.shouldFail(FaultSite::ValidityGround)) {
        ++Recovered;
        break;
      }
    }
  }
  EXPECT_GT(Recovered, 16u);
}

/// Scopes nest: the innermost applies, and leaving it restores the outer.
TEST(FaultScopeTest, InnermostScopeApplies) {
  FaultInjector Injector;
  Injector.arm(FaultSite::ArenaDelta, 0.5, 11);
  auto Decide = [&](uint64_t Key) {
    FaultScope Scope(Key, 0);
    return Injector.shouldFail(FaultSite::ArenaDelta);
  };
  uint64_t Fires = 0, Spares = 0;
  while (!Decide(Fires))
    ++Fires;
  while (Decide(Spares))
    ++Spares;
  FaultScope Outer(Fires, 0);
  {
    FaultScope Inner(Spares, 0);
    EXPECT_FALSE(Injector.shouldFail(FaultSite::ArenaDelta));
  }
  EXPECT_TRUE(Injector.shouldFail(FaultSite::ArenaDelta));
}

} // namespace
