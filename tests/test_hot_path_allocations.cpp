//===- tests/test_hot_path_allocations.cpp - Zero-allocation hot paths ------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The validity query's per-node reads — sample lookups, per-function
/// sample lists, application collection and model evaluation of UF
/// applications — must not touch the heap once their buffers are warm, and
/// neither may re-recording a sample the table already holds (every
/// external call of a run records one).
/// This executable replaces the global operator new with a counting one
/// (so it is built apart from hotg_tests) and checks each read allocates
/// nothing after a warm-up call.
///
//===----------------------------------------------------------------------===//

#include "smt/Model.h"
#include "smt/SampleTable.h"
#include "smt/Term.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> NewCalls{0};

void *countedNew(size_t Size) {
  NewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

/// Number of operator new calls made while \p Fn runs.
template <typename Fn> size_t allocationsIn(Fn &&F) {
  size_t Before = NewCalls.load(std::memory_order_relaxed);
  F();
  return NewCalls.load(std::memory_order_relaxed) - Before;
}

} // namespace

void *operator new(size_t Size) { return countedNew(Size); }
void *operator new[](size_t Size) { return countedNew(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

using namespace hotg::smt;

namespace {

TEST(HotPathAllocations, CounterSeesHeapAllocations) {
  // The counter itself works: a vector growing from empty allocates.
  std::vector<int64_t> V;
  EXPECT_GE(allocationsIn([&] { V.push_back(1); }), 1u);
}

TEST(HotPathAllocations, SampleTableLookupDoesNotAllocate) {
  SampleTable T;
  T.record(0, {1, 2}, 3);
  T.record(1, {4}, 5);
  std::vector<int64_t> Hit{1, 2}, Miss{2, 1};
  std::optional<int64_t> A, B;
  A = T.lookup(0, Hit); // Warm-up.
  EXPECT_EQ(allocationsIn([&] {
              A = T.lookup(0, Hit);
              B = T.lookup(0, Miss);
            }),
            0u);
  EXPECT_EQ(A.value_or(-1), 3);
  EXPECT_FALSE(B.has_value());
}

TEST(HotPathAllocations, SamplesForDoesNotAllocate) {
  SampleTable T;
  T.record(0, {1}, 10);
  T.record(1, {2}, 20);
  T.record(0, {3}, 30);
  size_t N = T.samplesFor(0).size(); // Warm-up.
  int64_t LastOutput = 0;
  EXPECT_EQ(allocationsIn([&] {
              const std::vector<Sample> &S = T.samplesFor(0);
              N = S.size();
              LastOutput = S.back().Output;
            }),
            0u);
  EXPECT_EQ(N, 2u);
  EXPECT_EQ(LastOutput, 30);
}

TEST(HotPathAllocations, ReRecordingASampleDoesNotAllocate) {
  // Every external call of a run records its sample; after the first run
  // most tuples are already in the table, and those must not be copied.
  SampleTable T;
  std::vector<int64_t> Args{7, 8};
  T.record(0, Args, 15);
  EXPECT_EQ(allocationsIn([&] {
              T.record(0, Args, 15);
              T.record(0, {7, 8}, 15);
            }),
            0u);
  EXPECT_EQ(T.size(), 1u);
}

TEST(HotPathAllocations, CollectAppsIntoReservedVectorDoesNotAllocate) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  FuncId F = Arena.getOrCreateFunc("f", 2);
  FuncId G = Arena.getOrCreateFunc("g", 1);
  TermId GY = Arena.mkUFApp(G, {{Y}});
  TermId Lit = Arena.mkEq(Arena.mkUFApp(F, {{X, GY}}), Arena.mkAdd(GY, X));
  std::vector<TermId> Apps;
  Apps.reserve(8);
  Arena.collectApps(Lit, Apps); // Warm-up.
  Apps.clear();
  EXPECT_EQ(allocationsIn([&] { Arena.collectApps(Lit, Apps); }), 0u);
  EXPECT_EQ(Apps.size(), 2u);
}

TEST(HotPathAllocations, EvalIntOfUFApplicationDoesNotAllocate) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  FuncId H = Arena.getOrCreateFunc("h", 2);
  TermId App = Arena.mkUFApp(H, {{X, Arena.mkIntConst(7)}});
  SampleTable Samples;
  Samples.record(H, {5, 7}, 42);
  Model M;
  M.setVar(Arena.varIdOf(X), 5);
  M.attachSamples(&Samples);
  int64_t V = M.evalInt(Arena, App); // Warm-up.
  EXPECT_EQ(allocationsIn([&] { V = M.evalInt(Arena, App); }), 0u);
  EXPECT_EQ(V, 42);
}

} // namespace
