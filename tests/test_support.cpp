//===- tests/test_support.cpp - Support library unit tests ------------------------===//

#include "support/Diagnostics.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

using namespace hotg;

namespace {

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(formatString("%s", "plain"), "plain");
  EXPECT_EQ(formatString("empty"), "empty");
  // Long outputs are not truncated.
  std::string Long(500, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()), Long);
}

TEST(StringUtils, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"only"}, ", "), "only");

  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(split("nosep", ',').size(), 1u);
}

TEST(StringUtils, TrimAndStartsWith) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
}

TEST(StringUtils, EscapeString) {
  EXPECT_EQ(escapeString("a\nb\"c\\"), "a\\nb\\\"c\\\\");
  EXPECT_EQ(escapeString(std::string_view("\x01", 1)), "\\x01");
}

TEST(StringUtils, ParseIntegerTakesWholeTextInRange) {
  std::string Error;
  EXPECT_EQ(parseInteger("42", 0, 100, Error), 42);
  EXPECT_EQ(parseInteger("-7", -10, 10, Error), -7);
  EXPECT_TRUE(Error.empty());
  for (const char *Bad : {"", "abc", "12z", " 5", "+5", "101", "-1"}) {
    EXPECT_EQ(parseInteger(Bad, 0, 100, Error), std::nullopt) << Bad;
    EXPECT_EQ(Error, formatString("expects an integer in [0, 100], got '%s'",
                                  Bad));
  }
  EXPECT_EQ(parseInteger("9223372036854775808", 0,
                         std::numeric_limits<int64_t>::max(), Error),
            std::nullopt);
}

TEST(Hashing, CombineIsOrderSensitive) {
  size_t A = 0, B = 0;
  hashCombine(A, 1);
  hashCombine(A, 2);
  hashCombine(B, 2);
  hashCombine(B, 1);
  EXPECT_NE(A, B);
}

TEST(Hashing, VectorHashDistinguishesContents) {
  // hashRange over an argument tuple keys the UF sample index.
  auto H = [](std::vector<int64_t> V) { return hashRange(V); };
  EXPECT_EQ(H({1, 2, 3}), H({1, 2, 3}));
  EXPECT_NE(H({1, 2, 3}), H({3, 2, 1}));
  EXPECT_NE(H({}), H({0}));
}

TEST(RandomGen, Deterministic) {
  RandomGen A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(RandomGen, RangesAreRespected) {
  RandomGen Rng(7);
  std::set<int64_t> Seen;
  for (int I = 0; I != 1000; ++I) {
    int64_t V = Rng.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 7u) << "all values in a small range appear";
  EXPECT_EQ(Rng.nextInRange(5, 5), 5);
}

TEST(RandomGen, NextBelowBound) {
  RandomGen Rng(9);
  for (int I = 0; I != 100; ++I)
    EXPECT_LT(Rng.nextBelow(10), 10u);
  EXPECT_EQ(Rng.nextBelow(1), 0u);
}

TEST(Diagnostics, CountsAndRenders) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning({1, 5}, "odd spacing");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error({2, 3}, "bad token");
  Diags.note({2, 4}, "declared here");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);

  std::string Out = Diags.render("file.ml");
  EXPECT_NE(Out.find("file.ml:1:5: warning: odd spacing"),
            std::string::npos);
  EXPECT_NE(Out.find("file.ml:2:3: error: bad token"), std::string::npos);
  EXPECT_NE(Out.find("note: declared here"), std::string::npos);

  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

} // namespace
