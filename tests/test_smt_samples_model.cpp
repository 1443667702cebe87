//===- tests/test_smt_samples_model.cpp - SampleTable and Model unit tests --------===//

#include "smt/Model.h"
#include "smt/SampleTable.h"

#include <gtest/gtest.h>

using namespace hotg::smt;

namespace {

TEST(SampleTable, RecordAndLookup) {
  SampleTable T;
  T.record(0, {42}, 567);
  T.record(0, {7}, 99);
  T.record(1, {1, 2}, 3);

  auto V = T.lookup(0, {42});
  ASSERT_TRUE(V);
  EXPECT_EQ(*V, 567);
  EXPECT_FALSE(T.lookup(0, {43}).has_value());
  EXPECT_FALSE(T.lookup(2, {42}).has_value());
  EXPECT_EQ(T.size(), 3u);
}

TEST(SampleTable, DuplicateRecordingIsIdempotent) {
  SampleTable T;
  T.record(0, {42}, 567);
  T.record(0, {42}, 567);
  EXPECT_EQ(T.size(), 1u);
}

TEST(SampleTable, SamplesForFiltersBySymbol) {
  SampleTable T;
  T.record(0, {1}, 10);
  T.record(1, {2}, 20);
  T.record(0, {3}, 30);
  auto S = T.samplesFor(0);
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[0].Args, std::vector<int64_t>{1});
  EXPECT_EQ(S[1].Output, 30);
}

TEST(SampleTable, PreimagesOfHandlesCollisions) {
  SampleTable T;
  T.record(0, {5}, 100);
  T.record(0, {9}, 100);
  T.record(0, {7}, 50);
  auto P = T.preimagesOf(0, 100);
  ASSERT_EQ(P.size(), 2u);
  EXPECT_EQ(P[0], std::vector<int64_t>{5});
  EXPECT_EQ(P[1], std::vector<int64_t>{9});
  EXPECT_TRUE(T.preimagesOf(0, 1).empty());
}

TEST(SampleTable, MergeAccumulatesAcrossRuns) {
  // The paper (end of Section 4.3) suggests keeping pairs "observed during
  // all previous runs".
  SampleTable A, B;
  A.record(0, {1}, 10);
  B.record(0, {2}, 20);
  B.record(0, {1}, 10); // Overlap is fine when consistent.
  A.mergeFrom(B);
  EXPECT_EQ(A.size(), 2u);
}

TEST(SampleTable, ClearEmpties) {
  SampleTable T;
  T.record(0, {1}, 2);
  T.clear();
  EXPECT_TRUE(T.empty());
  EXPECT_FALSE(T.lookup(0, {1}).has_value());
}

/// Checks that \p T's per-function lists, lookup index and preimages agree
/// with \p Expected, the samples in insertion order.
void expectIndexMatches(const SampleTable &T,
                        const std::vector<Sample> &Expected) {
  ASSERT_EQ(T.size(), Expected.size());
  size_t I = 0;
  for (const Sample &S : T.allSamples()) {
    EXPECT_EQ(S.Func, Expected[I].Func) << "sample " << I;
    EXPECT_EQ(S.Args, Expected[I].Args) << "sample " << I;
    EXPECT_EQ(S.Output, Expected[I].Output) << "sample " << I;
    ++I;
  }
  for (FuncId F = 0; F != 3; ++F) {
    std::vector<Sample> Of;
    for (const Sample &S : Expected)
      if (S.Func == F)
        Of.push_back(S);
    const std::vector<Sample> &Listed = T.samplesFor(F);
    ASSERT_EQ(Listed.size(), Of.size()) << "function " << F;
    for (size_t K = 0; K != Of.size(); ++K) {
      EXPECT_EQ(Listed[K].Args, Of[K].Args) << "function " << F;
      EXPECT_EQ(Listed[K].Output, Of[K].Output) << "function " << F;
      EXPECT_EQ(T.lookup(F, Of[K].Args).value_or(-1), Of[K].Output);
      std::vector<std::vector<int64_t>> Pre;
      for (const Sample &S : Of)
        if (S.Output == Of[K].Output)
          Pre.push_back(S.Args);
      EXPECT_EQ(T.preimagesOf(F, Of[K].Output), Pre) << "function " << F;
    }
  }
}

TEST(SampleTable, IndexFollowsInsertionOrderThroughEveryUpdate) {
  TermArena Arena;
  FuncId F = Arena.getOrCreateFunc("f", 1);
  FuncId G = Arena.getOrCreateFunc("g", 2);
  ASSERT_EQ(F, 0u);
  ASSERT_EQ(G, 1u);
  // Enough samples of one function that its list reallocates.
  std::vector<Sample> Expected;
  SampleTable T;
  for (int64_t I = 0; I != 40; ++I) {
    Sample S = I % 3 == 0 ? Sample{G, {I, -I}, I % 4} : Sample{F, {I}, I % 5};
    T.record(S.Func, S.Args, S.Output);
    Expected.push_back(S);
  }
  T.record(F, {1}, 1); // A repeat changes nothing.
  expectIndexMatches(T, Expected);

  // mergeFrom appends the other table's new samples in its order.
  SampleTable Other;
  Other.record(G, {100, 1}, 7);
  Other.record(F, {1}, 1);
  Other.record(F, {100}, 7);
  T.mergeFrom(Other);
  Expected.push_back({G, {100, 1}, 7});
  Expected.push_back({F, {100}, 7});
  expectIndexMatches(T, Expected);

  // A copy indexes its own storage: it survives the original's reuse.
  SampleTable Copy = T;
  SampleTable Assigned;
  Assigned.record(F, {-1}, -1);
  Assigned = T;

  // deserialize(serialize()) reproduces the table.
  SampleTable Loaded;
  std::string Error;
  ASSERT_TRUE(Loaded.deserialize(T.serialize(Arena), Arena, &Error)) << Error;
  expectIndexMatches(Loaded, Expected);

  // clear, then record again in a different order.
  T.clear();
  EXPECT_FALSE(T.lookup(F, {1}).has_value());
  EXPECT_TRUE(T.samplesFor(F).empty());
  std::vector<Sample> Again = {{F, {3}, 30}, {G, {1, 2}, 3}, {F, {1}, 10}};
  for (const Sample &S : Again)
    T.record(S.Func, S.Args, S.Output);
  expectIndexMatches(T, Again);
  expectIndexMatches(Copy, Expected);
  expectIndexMatches(Assigned, Expected);
}

TEST(SampleTableDeathTest, ConflictingOutputIsFatal) {
  SampleTable T;
  T.record(0, {1, 2}, 3);
  T.record(0, {2, 1}, 4);
  EXPECT_DEATH(T.record(0, {1, 2}, 5), "conflicting outputs");
}

TEST(Model, VariableAssignments) {
  Model M;
  EXPECT_FALSE(M.varValue(0).has_value());
  EXPECT_EQ(M.varValueOr(0, -1), -1);
  M.setVar(0, 42);
  EXPECT_EQ(M.varValueOr(0, -1), 42);
  EXPECT_TRUE(M.hasVar(0));
}

TEST(Model, EvaluationWithDefaults) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  Model M;
  M.setVar(Arena.getOrCreateVar("x"), 10);
  // y defaults to 0 in unchecked evaluation.
  EXPECT_EQ(M.evalInt(Arena, Arena.mkAdd(X, Y)), 10);
  EXPECT_FALSE(M.evalIntChecked(Arena, Arena.mkAdd(X, Y)).has_value());
  auto V = M.evalIntChecked(Arena, Arena.mkMul(Arena.mkIntConst(3), X));
  ASSERT_TRUE(V);
  EXPECT_EQ(*V, 30);
}

TEST(Model, BooleanEvaluation) {
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  Model M;
  M.setVar(Arena.getOrCreateVar("x"), 5);
  EXPECT_TRUE(M.evalBool(Arena, Arena.mkGt(X, Arena.mkIntConst(3))));
  EXPECT_FALSE(M.evalBool(Arena, Arena.mkEq(X, Arena.mkIntConst(3))));
  TermId Impl = Arena.mkImplies(Arena.mkLt(X, Arena.mkIntConst(0)),
                                Arena.mkEq(X, Arena.mkIntConst(99)));
  EXPECT_TRUE(M.evalBool(Arena, Impl)) << "false antecedent";
}

TEST(Model, FunctionValuesFromSamplesAndExtensions) {
  TermArena Arena;
  FuncId H = Arena.getOrCreateFunc("h", 1);
  SampleTable Samples;
  Samples.record(H, {42}, 567);

  Model M;
  M.attachSamples(&Samples);
  M.extendFunc(H, {7}, 99);

  auto FromSamples = M.funcValue(H, {42});
  ASSERT_TRUE(FromSamples);
  EXPECT_EQ(*FromSamples, 567);
  auto FromExt = M.funcValue(H, {7});
  ASSERT_TRUE(FromExt);
  EXPECT_EQ(*FromExt, 99);
  EXPECT_FALSE(M.funcValue(H, {8}).has_value());

  // UF evaluation threads through arguments.
  TermId Y = Arena.mkVar("y");
  M.setVar(Arena.getOrCreateVar("y"), 42);
  EXPECT_EQ(M.evalInt(Arena, Arena.mkUFApp(H, {{Y}})), 567);
  auto Checked = M.evalIntChecked(
      Arena, Arena.mkUFApp(H, {{Arena.mkIntConst(8)}}));
  EXPECT_FALSE(Checked.has_value()) << "unmodelled point is not determined";
}

TEST(Model, ToStringIsSortedAndNamed) {
  TermArena Arena;
  Model M;
  M.setVar(Arena.getOrCreateVar("b"), 2);
  M.setVar(Arena.getOrCreateVar("a"), 1);
  EXPECT_EQ(M.toString(Arena), "b=2, a=1") << "sorted by variable id";
}

} // namespace
