//===- bench/bench_solver.cpp - P1: SMT substrate microbenchmarks -----------------===//
//
// google-benchmark timings for the solver stack: term interning,
// simplification, congruence closure scaling, satisfiability on
// representative DSE constraints, and the higher-order validity solver's
// sample inversion (the Section 7 hot path).
//
//===----------------------------------------------------------------------===//

#include "core/ValiditySolver.h"
#include "smt/CongruenceClosure.h"
#include "smt/Simplify.h"
#include "smt/SolverContext.h"

#include <benchmark/benchmark.h>

using namespace hotg;
using namespace hotg::smt;

namespace {

void BM_TermInterning(benchmark::State &State) {
  for (auto _ : State) {
    TermArena Arena;
    TermId Acc = Arena.mkIntConst(0);
    for (int I = 0; I != 256; ++I)
      Acc = Arena.mkAdd(Acc, Arena.mkVar("v" + std::to_string(I % 16)));
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_TermInterning);

void BM_TermDeduplication(benchmark::State &State) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  for (auto _ : State) {
    // Re-interning existing structure must be cheap (hash-consed hits).
    TermId T = Arena.mkEq(Arena.mkAdd(X, Y), Arena.mkIntConst(5));
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_TermDeduplication);

void BM_Simplify(benchmark::State &State) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  // ((x + 0) * 1 + (2 + 3)) == x + 5 — folds away entirely.
  TermId T = Arena.mkEq(
      Arena.mkAdd(Arena.mkMul(Arena.mkIntConst(1),
                              Arena.mkAdd(X, Arena.mkIntConst(0))),
                  Arena.mkAdd(Arena.mkIntConst(2), Arena.mkIntConst(3))),
      Arena.mkAdd(X, Arena.mkIntConst(5)));
  for (auto _ : State) {
    TermId S = simplify(Arena, T);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_Simplify);

void BM_NNFConversion(benchmark::State &State) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId F = Arena.mkNot(Arena.mkAnd(
      Arena.mkOr(Arena.mkLt(X, Y), Arena.mkEq(X, Arena.mkIntConst(3))),
      Arena.mkNot(Arena.mkGe(Y, Arena.mkIntConst(10)))));
  for (auto _ : State) {
    TermId N = toNNF(Arena, F);
    benchmark::DoNotOptimize(N);
  }
}
BENCHMARK(BM_NNFConversion);

void BM_CongruenceClosureChain(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    TermArena Arena;
    FuncId H = Arena.getOrCreateFunc("h", 1);
    CongruenceClosure CC(Arena);
    // Chain x0 = x1 = ... = xN; congruence must join h(x0)...h(xN).
    std::vector<TermId> Vars, Apps;
    for (int I = 0; I != N; ++I) {
      Vars.push_back(Arena.mkVar("x" + std::to_string(I)));
      Apps.push_back(Arena.mkUFApp(H, {{Vars.back()}}));
      CC.addTerm(Apps.back());
    }
    for (int I = 0; I + 1 < N; ++I)
      CC.assertEqual(Vars[I], Vars[I + 1]);
    benchmark::DoNotOptimize(CC.areEqual(Apps.front(), Apps.back()));
  }
}
BENCHMARK(BM_CongruenceClosureChain)->Arg(8)->Arg(32)->Arg(128);

void BM_SolverSimpleEquality(benchmark::State &State) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId F = Arena.mkEq(X, Arena.mkIntConst(567));
  for (auto _ : State) {
    SolverContext Ctx(Arena);
    SolverStats Stats;
    benchmark::DoNotOptimize(Ctx.checkFormula(F, Stats).Result);
  }
}
BENCHMARK(BM_SolverSimpleEquality);

void BM_SolverLinearSystem(benchmark::State &State) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId Z = Arena.mkVar("z");
  TermId F = Arena.mkAnd(
      {{Arena.mkEq(Arena.mkAdd(X, Y), Arena.mkIntConst(10)),
        Arena.mkEq(Arena.mkSub(X, Y), Arena.mkIntConst(4)),
        Arena.mkEq(Arena.mkAdd(Arena.mkAdd(X, Y), Z),
                   Arena.mkIntConst(16)),
        Arena.mkLt(Z, Arena.mkIntConst(100))}});
  for (auto _ : State) {
    SolverContext Ctx(Arena);
    SolverStats Stats;
    benchmark::DoNotOptimize(Ctx.checkFormula(F, Stats).Result);
  }
}
BENCHMARK(BM_SolverLinearSystem);

void BM_SolverUnsatConflict(benchmark::State &State) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId F = Arena.mkAnd(
      {{Arena.mkEq(Y, Arena.mkIntConst(42)),
        Arena.mkEq(X, Arena.mkIntConst(567)),
        Arena.mkEq(Y, Arena.mkIntConst(10))}});
  for (auto _ : State) {
    SolverContext Ctx(Arena);
    SolverStats Stats;
    benchmark::DoNotOptimize(Ctx.checkFormula(F, Stats).Result);
  }
}
BENCHMARK(BM_SolverUnsatConflict);

void BM_SolverDisjunctiveSupports(benchmark::State &State) {
  const int N = static_cast<int>(State.range(0));
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  // (x=1 ∨ x=2 ∨ ... ∨ x=N) ∧ x > N-1 — only the last support survives.
  std::vector<TermId> Disjuncts;
  for (int I = 1; I <= N; ++I)
    Disjuncts.push_back(Arena.mkEq(X, Arena.mkIntConst(I)));
  TermId F = Arena.mkAnd(Arena.mkOr(Disjuncts),
                         Arena.mkGt(X, Arena.mkIntConst(N - 1)));
  for (auto _ : State) {
    SolverContext Ctx(Arena);
    SolverStats Stats;
    benchmark::DoNotOptimize(Ctx.checkFormula(F, Stats).Result);
  }
}
BENCHMARK(BM_SolverDisjunctiveSupports)->Arg(4)->Arg(16)->Arg(64);

void BM_ValidityHashInversion(benchmark::State &State) {
  // The Section 7 hot path: invert a sampled 4-ary hash.
  const int NumSamples = static_cast<int>(State.range(0));
  TermArena Arena;
  SampleTable Samples;
  FuncId H4 = Arena.getOrCreateFunc("hash4", 4);
  for (int I = 0; I != NumSamples; ++I)
    Samples.record(H4, {I, I + 1, I + 2, I + 3}, 1000 + I);
  TermId Args[4] = {Arena.mkVar("a"), Arena.mkVar("b"), Arena.mkVar("c"),
                    Arena.mkVar("d")};
  TermId F = Arena.mkEq(Arena.mkUFApp(H4, Args),
                        Arena.mkIntConst(1000 + NumSamples - 1));
  for (auto _ : State) {
    core::ValiditySolver Solver(Arena, Samples);
    benchmark::DoNotOptimize(Solver.checkPost(F).Status);
  }
}
BENCHMARK(BM_ValidityHashInversion)->Arg(4)->Arg(16)->Arg(24);

void BM_ValidityCongruenceStrategy(benchmark::State &State) {
  TermArena Arena;
  SampleTable Samples;
  FuncId H = Arena.getOrCreateFunc("h", 1);
  TermId F = Arena.mkEq(Arena.mkUFApp(H, {{Arena.mkVar("x")}}),
                        Arena.mkUFApp(H, {{Arena.mkVar("y")}}));
  for (auto _ : State) {
    core::ValiditySolver Solver(Arena, Samples);
    benchmark::DoNotOptimize(Solver.checkPost(F).Status);
  }
}
BENCHMARK(BM_ValidityCongruenceStrategy);

} // namespace

BENCHMARK_MAIN();
