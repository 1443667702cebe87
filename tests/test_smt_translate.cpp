//===- tests/test_smt_translate.cpp - Cross-arena translation and caching --------===//
//
// The smt-layer mechanisms behind hotg-serve's cross-session query cache
// (docs/serving.md):
//
//  * PortableTerm export/import — structural mapping between arenas that
//    preserves hash-consing invariants (structural equality ⇒ same TermId),
//    UF symbols and variable identities;
//  * TermFingerprint — an arena-independent digest equal across arenas iff
//    the terms are structurally equal (the query-cache key);
//  * QueryCache — generation- and kind-keyed answers, first writer wins.
//
//===----------------------------------------------------------------------===//

#include "smt/QueryCache.h"
#include "smt/Term.h"

#include <gtest/gtest.h>

using namespace hotg::smt;

namespace {

/// x + 3*y < f(g(x), 7) && x != 0 — nested UFApp, n-ary Add, mixed kinds.
TermId buildSample(TermArena &A) {
  TermId X = A.mkVar("x");
  TermId Y = A.mkVar("y");
  FuncId F = A.getOrCreateFunc("f", 2);
  FuncId G = A.getOrCreateFunc("g", 1);
  TermId GX = A.mkUFApp(G, {{X}});
  TermId FA = A.mkUFApp(F, {{GX, A.mkIntConst(7)}});
  TermId Sum = A.mkAdd({{X, A.mkMul(A.mkIntConst(3), Y)}});
  return A.mkAnd(A.mkLt(Sum, FA), A.mkNe(X, A.mkIntConst(0)));
}

TEST(Translate, RoundTripIntoSameArenaIsIdentity) {
  TermArena A;
  TermId Root = buildSample(A);
  PortableTerm Snap = A.exportTerm(Root);
  EXPECT_EQ(A.importTerm(Snap), Root)
      << "hash-consing must map the snapshot back onto the original ids";
  EXPECT_EQ(A.import(A, Root), Root);
}

TEST(Translate, ImportPreservesStructureAcrossArenas) {
  TermArena A, B;
  TermId Root = buildSample(A);
  // Populate B differently first, so ids cannot accidentally line up.
  B.mkVar("unrelated");
  B.mkIntConst(12345);
  TermId Imported = B.import(A, Root);
  EXPECT_EQ(B.toString(Imported), A.toString(Root));
  // Importing again dedups: structural equality ⇒ same TermId.
  EXPECT_EQ(B.import(A, Root), Imported);
  EXPECT_EQ(B.importTerm(A.exportTerm(Root)), Imported);
  // Variables and UF symbols map by name.
  EXPECT_EQ(B.varName(B.getOrCreateVar("x")), "x");
  FuncId FInB = B.getOrCreateFunc("f", 2);
  EXPECT_EQ(B.func(FInB).Name, "f");
  EXPECT_EQ(B.func(FInB).Arity, 2u);
}

TEST(Translate, NAryOperandOrderSurvivesTranslation) {
  TermArena A, B;
  TermId X = A.mkVar("x"), Y = A.mkVar("y"), Z = A.mkVar("z");
  TermId And = A.mkAnd(
      {{A.mkLt(X, Y), A.mkLt(Y, Z), A.mkLt(Z, A.mkIntConst(9))}});
  TermId Add = A.mkAdd({{Z, Y, X}});
  TermId ImpAnd = B.import(A, And);
  TermId ImpAdd = B.import(A, Add);
  ASSERT_EQ(B.operands(ImpAnd).size(), 3u);
  ASSERT_EQ(B.operands(ImpAdd).size(), 3u);
  EXPECT_EQ(B.toString(ImpAnd), A.toString(And));
  EXPECT_EQ(B.toString(ImpAdd), A.toString(Add));
  // z + y + x and x + y + z must stay distinct after translation.
  EXPECT_NE(ImpAdd, B.import(A, A.mkAdd({{X, Y, Z}})));
}

TEST(Translate, FingerprintEqualAcrossArenasIffStructurallyEqual) {
  TermArena A, B;
  TermId RootA = buildSample(A);
  B.mkVar("noise");
  TermId RootB = buildSample(B); // Same structure, different ids.
  EXPECT_NE(RootA, RootB);
  EXPECT_EQ(A.fingerprint(RootA), B.fingerprint(RootB));
  TermId Other = B.mkOr(RootB, B.mkTrue());
  EXPECT_FALSE(A.fingerprint(RootA) == B.fingerprint(Other));
  // Memoized second computation agrees.
  EXPECT_EQ(A.fingerprint(RootA), A.fingerprint(RootA));
}

TEST(QueryCacheTest, StoreLookupAndGenerationKeying) {
  QueryCache Cache;
  TermFingerprint Fp{0x1234, 0x5678};
  EXPECT_FALSE(Cache.lookup(Fp, 0, QueryKind::Validity).has_value());
  EXPECT_EQ(Cache.misses(), 1u);

  PortableAnswer PA;
  PA.Status = 2;
  PA.Model.emplace_back("x", 42);
  PA.GroundingsTried = 7;
  Cache.store(Fp, 0, QueryKind::Validity, PA);
  ASSERT_EQ(Cache.size(), 1u);

  auto Hit = Cache.lookup(Fp, 0, QueryKind::Validity);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Status, 2u);
  EXPECT_EQ(Hit->GroundingsTried, 7u);
  ASSERT_EQ(Hit->Model.size(), 1u);
  EXPECT_EQ(Hit->Model[0].first, "x");
  EXPECT_EQ(Cache.hits(), 1u);

  // A different generation or kind is a different key.
  EXPECT_FALSE(Cache.lookup(Fp, 1, QueryKind::Validity).has_value());
  EXPECT_FALSE(Cache.lookup(Fp, 0, QueryKind::Satisfiability).has_value());
}

TEST(QueryCacheTest, FirstWriterWins) {
  QueryCache Cache;
  TermFingerprint Fp{1, 2};
  PortableAnswer First;
  First.Status = 1;
  Cache.store(Fp, 0, QueryKind::Satisfiability, First);
  PortableAnswer Second;
  Second.Status = 9;
  Cache.store(Fp, 0, QueryKind::Satisfiability, Second);
  auto Hit = Cache.lookup(Fp, 0, QueryKind::Satisfiability);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Status, 1u) << "duplicate stores must not overwrite";
}

} // namespace
