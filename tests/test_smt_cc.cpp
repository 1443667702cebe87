//===- tests/test_smt_cc.cpp - Congruence closure unit tests ---------------------===//

#include "smt/CongruenceClosure.h"

#include <gtest/gtest.h>

using namespace hotg::smt;

namespace {

class CCTest : public ::testing::Test {
protected:
  TermArena Arena;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId Z = Arena.mkVar("z");
  FuncId H = Arena.getOrCreateFunc("h", 1);
  FuncId G2 = Arena.getOrCreateFunc("g", 2);

  TermId h(TermId T) { return Arena.mkUFApp(H, {{T}}); }
  TermId g(TermId A, TermId B) {
    TermId Args[2] = {A, B};
    return Arena.mkUFApp(G2, Args);
  }
};

TEST_F(CCTest, ReflexiveAndTransitiveEquality) {
  CongruenceClosure CC(Arena);
  CC.addTerm(X);
  EXPECT_TRUE(CC.areEqual(X, X));
  ASSERT_TRUE(CC.assertEqual(X, Y));
  ASSERT_TRUE(CC.assertEqual(Y, Z));
  EXPECT_TRUE(CC.areEqual(X, Z));
  EXPECT_FALSE(CC.inConflict());
}

TEST_F(CCTest, CongruenceUnary) {
  CongruenceClosure CC(Arena);
  TermId HX = h(X), HY = h(Y);
  CC.addTerm(HX);
  CC.addTerm(HY);
  EXPECT_FALSE(CC.areEqual(HX, HY));
  ASSERT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.areEqual(HX, HY)) << "x = y must force h(x) = h(y)";
}

TEST_F(CCTest, CongruenceBinaryMixedArgs) {
  CongruenceClosure CC(Arena);
  TermId A = g(X, Z), B = g(Y, Z);
  CC.addTerm(A);
  CC.addTerm(B);
  ASSERT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.areEqual(A, B));
}

TEST_F(CCTest, CongruenceChainsThroughNestedApps) {
  CongruenceClosure CC(Arena);
  TermId HHX = h(h(X)), HHY = h(h(Y));
  CC.addTerm(HHX);
  CC.addTerm(HHY);
  ASSERT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.areEqual(HHX, HHY));
}

TEST_F(CCTest, DistinctConstantsConflict) {
  CongruenceClosure CC(Arena);
  TermId C1 = Arena.mkIntConst(1), C2 = Arena.mkIntConst(2);
  ASSERT_TRUE(CC.assertEqual(X, C1));
  EXPECT_FALSE(CC.assertEqual(X, C2));
  EXPECT_TRUE(CC.inConflict());
}

TEST_F(CCTest, DisequalityConflict) {
  CongruenceClosure CC(Arena);
  ASSERT_TRUE(CC.assertDistinct(X, Y));
  EXPECT_FALSE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.inConflict());
}

TEST_F(CCTest, DisequalityViaCongruence) {
  CongruenceClosure CC(Arena);
  TermId HX = h(X), HY = h(Y);
  ASSERT_TRUE(CC.assertDistinct(HX, HY));
  // x = y would force h(x) = h(y), contradicting the disequality.
  EXPECT_FALSE(CC.assertEqual(X, Y));
}

TEST_F(CCTest, ConstantPropagationThroughClasses) {
  CongruenceClosure CC(Arena);
  TermId C5 = Arena.mkIntConst(5);
  ASSERT_TRUE(CC.assertEqual(X, Y));
  ASSERT_TRUE(CC.assertEqual(Y, C5));
  auto CX = CC.constantOf(X);
  ASSERT_TRUE(CX.has_value());
  EXPECT_EQ(*CX, 5);
}

TEST_F(CCTest, AreDistinctByConstants) {
  CongruenceClosure CC(Arena);
  TermId C1 = Arena.mkIntConst(1), C2 = Arena.mkIntConst(2);
  ASSERT_TRUE(CC.assertEqual(X, C1));
  ASSERT_TRUE(CC.assertEqual(Y, C2));
  EXPECT_TRUE(CC.areDistinct(X, Y));
  EXPECT_FALSE(CC.areDistinct(X, X));
}

TEST_F(CCTest, SampleEqualityGivesFunctionValue) {
  // h(42) = 567 plus y = 42 must give h(y) = 567 — the congruence step
  // behind Theorem 4's substitution argument.
  CongruenceClosure CC(Arena);
  TermId C42 = Arena.mkIntConst(42), C567 = Arena.mkIntConst(567);
  ASSERT_TRUE(CC.assertEqual(h(C42), C567));
  ASSERT_TRUE(CC.assertEqual(Y, C42));
  auto V = CC.constantOf(h(Y));
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 567);
}

TEST_F(CCTest, OperationsAreCongruentFunctions) {
  // Even interpreted operators participate: x = y forces x+z = y+z.
  CongruenceClosure CC(Arena);
  TermId XZ = Arena.mkAdd(X, Z), YZ = Arena.mkAdd(Y, Z);
  CC.addTerm(XZ);
  CC.addTerm(YZ);
  ASSERT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.areEqual(XZ, YZ));
}

} // namespace
