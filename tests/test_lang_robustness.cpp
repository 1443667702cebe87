//===- tests/test_lang_robustness.cpp - Frontend robustness fuzzing ----------------===//
//
// The lexer/parser/sema pipeline must never crash: every input — random
// bytes, truncations of valid programs, token-soup — either yields a
// checked program or diagnostics.
//
//===----------------------------------------------------------------------===//

#include "app/Examples.h"
#include "app/KeywordLexer.h"
#include "lang/Parser.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace hotg;

namespace {

void pipelineDoesNotCrash(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Source, Diags);
  // Either outcome is fine; the invariant is "no crash" plus the contract
  // that failure implies diagnostics.
  if (!Prog) {
    EXPECT_TRUE(Diags.hasErrors());
  }
}

class FrontendFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrontendFuzzTest, RandomBytes) {
  RandomGen Rng(GetParam());
  for (int Round = 0; Round != 50; ++Round) {
    std::string Source;
    size_t Len = Rng.nextBelow(200);
    for (size_t I = 0; I != Len; ++I)
      Source.push_back(static_cast<char>(Rng.nextInRange(1, 127)));
    pipelineDoesNotCrash(Source);
  }
}

TEST_P(FrontendFuzzTest, TokenSoup) {
  static const char *Tokens[] = {
      "fun",  "extern", "var",  "if",    "else", "while", "return",
      "assert", "error", "int", "bool",  "true", "false", "(",
      ")",    "{",      "}",    "[",     "]",    ";",     ":",
      ",",    "->",     "=",    "==",    "!=",   "<",     "<=",
      "&&",   "||",     "!",    "+",     "-",    "*",     "/",
      "%",    "x",      "y",    "main",  "42",   "0",     "\"s\"",
      "'c'",
  };
  RandomGen Rng(GetParam() * 31 + 7);
  for (int Round = 0; Round != 50; ++Round) {
    std::string Source;
    size_t Len = Rng.nextBelow(80);
    for (size_t I = 0; I != Len; ++I) {
      Source += Tokens[Rng.nextBelow(sizeof(Tokens) / sizeof(*Tokens))];
      Source += " ";
    }
    pipelineDoesNotCrash(Source);
  }
}

TEST_P(FrontendFuzzTest, TruncatedValidPrograms) {
  // Every prefix of every example program must be handled gracefully.
  RandomGen Rng(GetParam() * 97 + 3);
  for (const app::ExampleProgram &Example : app::allExamples()) {
    for (int Round = 0; Round != 8; ++Round) {
      size_t Cut = Rng.nextBelow(Example.Source.size() + 1);
      pipelineDoesNotCrash(Example.Source.substr(0, Cut));
    }
  }
}

TEST_P(FrontendFuzzTest, MutatedValidPrograms) {
  RandomGen Rng(GetParam() * 131 + 11);
  app::LexerApp App = app::buildKeywordLexer({4, 2});
  for (int Round = 0; Round != 30; ++Round) {
    std::string Source = App.Source;
    // Flip a few characters to printable junk.
    for (int M = 0; M != 4; ++M)
      Source[Rng.nextBelow(Source.size())] =
          static_cast<char>(Rng.nextInRange(32, 126));
    pipelineDoesNotCrash(Source);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontendFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(FrontendRobustness, DeepNestingDoesNotOverflow) {
  // 200 nested blocks and a deep expression; recursion depth must stay
  // manageable.
  std::string Source = "fun f(x: int) -> int {\n";
  for (int I = 0; I != 200; ++I)
    Source += "{\n";
  Source += "x = 1;\n";
  for (int I = 0; I != 200; ++I)
    Source += "}\n";
  Source += "return x;\n}\n";
  pipelineDoesNotCrash(Source);

  std::string Expr = "x";
  for (int I = 0; I != 200; ++I)
    Expr = "(" + Expr + " + 1)";
  pipelineDoesNotCrash("fun f(x: int) -> int { return " + Expr + "; }");
}

TEST(FrontendRobustness, AllExamplesAndLexerVariantsCompile) {
  for (const app::ExampleProgram &Example : app::allExamples()) {
    DiagnosticEngine Diags;
    EXPECT_TRUE(lang::parseAndCheck(Example.Source, Diags).has_value())
        << Example.Name << ":\n"
        << Diags.render();
  }
  for (unsigned K : {1u, 8u, 24u})
    for (unsigned Chunks : {1u, 2u, 4u})
      for (bool Pre : {false, true}) {
        app::LexerAppSpec Spec;
        Spec.NumKeywords = K;
        Spec.NumChunks = Chunks;
        Spec.PrecomputedHashes = Pre;
        app::LexerApp App = app::buildKeywordLexer(Spec);
        DiagnosticEngine Diags;
        EXPECT_TRUE(lang::parseAndCheck(App.Source, Diags).has_value())
            << App.Source << Diags.render();
      }
}

} // namespace
