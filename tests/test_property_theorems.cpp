//===- tests/test_property_theorems.cpp - The paper's theorems as properties ------===//
//
// Randomized property tests for:
//  * Theorem 2 — sound concretization generates sound path constraints:
//    every solver model of the path constraint replays the same trace.
//  * Theorem 3 — higher-order path constraints are sound: directed search
//    with validity-derived tests never diverges.
//  * Theorem 4 (Simulation) — whenever the sound-concretization alternate
//    constraint is satisfiable, the corresponding higher-order POST
//    formula (with samples) admits a strategy.
//
//===----------------------------------------------------------------------===//

#include "core/Post.h"
#include "core/Search.h"
#include "core/ValiditySolver.h"
#include "dse/SymbolicExecutor.h"
#include "interp/Interp.h"
#include "lang/Parser.h"
#include "smt/SolverContext.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace hotg;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;

namespace {

/// Generates random but well-formed MiniLang programs over three integer
/// inputs, with linear arithmetic, nested conditionals, bounded loops and
/// unknown hash calls — the feature mix the soundness theorems quantify
/// over.
class ProgramGenerator {
public:
  explicit ProgramGenerator(uint64_t Seed) : Rng(Seed) {}

  std::string generate() {
    Depth = 0;
    NumVars = 0;
    std::string Body = block(3);
    return "extern hash(int) -> int;\nextern hash2(int) -> int;\n"
           "fun main(x: int, y: int, z: int) -> int {\n" +
           Body + "  return 0;\n}\n";
  }

private:
  std::string var() {
    static const char *Inputs[] = {"x", "y", "z"};
    if (NumVars > 0 && Rng.chance(1, 2))
      return formatString("v%u", static_cast<unsigned>(
                                     Rng.nextBelow(NumVars)));
    return Inputs[Rng.nextBelow(3)];
  }

  std::string intExpr(unsigned Size) {
    if (Size == 0 || Rng.chance(1, 3))
      return Rng.chance(1, 2)
                 ? var()
                 : formatString("%lld", static_cast<long long>(
                                            Rng.nextInRange(-20, 20)));
    switch (Rng.nextBelow(5)) {
    case 0:
      return "(" + intExpr(Size - 1) + " + " + intExpr(Size - 1) + ")";
    case 1:
      return "(" + intExpr(Size - 1) + " - " + intExpr(Size - 1) + ")";
    case 2:
      return formatString("(%lld * ",
                          static_cast<long long>(Rng.nextInRange(-3, 3))) +
             intExpr(Size - 1) + ")";
    case 3:
      return (Rng.chance(1, 2) ? std::string("hash(")
                               : std::string("hash2(")) +
             intExpr(Size - 1) + ")";
    default:
      return "(-" + intExpr(Size - 1) + ")";
    }
  }

  std::string boolExpr(unsigned Size) {
    static const char *Cmps[] = {"==", "!=", "<", "<=", ">", ">="};
    std::string Base = intExpr(Size) + " " + Cmps[Rng.nextBelow(6)] + " " +
                       intExpr(Size);
    if (Size > 0 && Rng.chance(1, 4))
      return "(" + Base + (Rng.chance(1, 2) ? " && " : " || ") + "(" +
             boolExpr(Size - 1) + "))";
    return Base;
  }

  std::string indent() const {
    return std::string(static_cast<size_t>(Depth + 1) * 2, ' ');
  }

  std::string statement() {
    switch (Rng.nextBelow(6)) {
    case 0: { // Variable declaration (initializer sees only prior vars).
      std::string Init = intExpr(2);
      std::string Name = formatString("v%u", NumVars++);
      return indent() + "var " + Name + ": int = " + Init + ";\n";
    }
    case 1: // Assignment (only to generated locals, to stay well-formed).
      if (NumVars > 0) {
        std::string Name = formatString(
            "v%u", static_cast<unsigned>(Rng.nextBelow(NumVars)));
        return indent() + Name + " = " + intExpr(2) + ";\n";
      }
      [[fallthrough]];
    case 2: { // Conditional.
      if (Depth >= 3)
        return indent() + "v0 = 0;\n"; // Too deep; degrade gracefully.
      unsigned SavedVars = NumVars;
      // Sequence the calls explicitly: block() mutates NumVars and must
      // not run before the condition is generated.
      std::string Cond = boolExpr(1);
      std::string Body = block(2);
      std::string Out = indent() + "if (" + Cond + ")\n" + Body;
      NumVars = SavedVars;
      if (Rng.chance(1, 2)) {
        SavedVars = NumVars;
        std::string ElseBody = block(1);
        Out += indent() + "else\n" + ElseBody;
        NumVars = SavedVars;
      }
      return Out;
    }
    case 3: { // Bounded loop over a fresh counter.
      if (Depth >= 3)
        return indent() + "v0 = 0;\n";
      std::string Counter = formatString("v%u", NumVars++);
      unsigned SavedVars = NumVars;
      std::string Out =
          indent() + "var " + Counter + ": int = 0;\n" + indent() +
          formatString("while (%s < %llu)\n", Counter.c_str(),
                       static_cast<unsigned long long>(Rng.nextBelow(4)));
      ++Depth;
      std::string Inner = indent() + "{\n";
      ++Depth;
      Inner += statement();
      Inner += indent() + Counter + " = " + Counter + " + 1;\n";
      --Depth;
      Inner += indent() + "}\n";
      --Depth;
      NumVars = SavedVars;
      return Out + Inner;
    }
    case 4: // Error site behind a condition (so bugs exist to find).
      if (Depth < 3)
        return indent() + "if (" + boolExpr(0) + ") { error(\"bug\"); }\n";
      [[fallthrough]];
    default:
      if (NumVars > 0)
        return indent() +
               formatString("v%u",
                            static_cast<unsigned>(Rng.nextBelow(NumVars))) +
               " = " + intExpr(1) + ";\n";
      return indent() + "var v0: int = " + intExpr(1) + ";\n";
    }
  }

  std::string block(unsigned NumStmts) {
    std::string Out = indent() + "{\n";
    ++Depth;
    // A guaranteed declaration keeps "v0" references valid in degraded
    // branches.
    if (NumVars == 0)
      Out += indent() + "var v" + std::to_string(NumVars++) +
             ": int = 0;\n";
    for (unsigned I = 0; I != NumStmts; ++I)
      Out += statement();
    --Depth;
    Out += indent() + "}\n";
    return Out;
  }

  RandomGen Rng;
  unsigned Depth = 0;
  unsigned NumVars = 0;
};

lang::Program compileOrDie(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Source, Diags);
  EXPECT_TRUE(Prog.has_value()) << Diags.render() << "\n" << Source;
  return Prog ? std::move(*Prog) : lang::Program{};
}

class TheoremPropertyTest : public ::testing::TestWithParam<uint64_t> {};

//===----------------------------------------------------------------------===//
// Theorem 2/3: path-constraint soundness as a replay property.
//===----------------------------------------------------------------------===//

TEST_P(TheoremPropertyTest, SoundPathConstraintsReplayTheSameTrace) {
  RandomGen Rng(GetParam() * 7919 + 1);
  for (int ProgIdx = 0; ProgIdx != 6; ++ProgIdx) {
    ProgramGenerator Gen(GetParam() * 131 + ProgIdx);
    std::string Source = Gen.generate();
    lang::Program Prog = compileOrDie(Source);
    if (Prog.Functions.empty())
      continue;
    NativeRegistry Natives;
    Natives.registerDefaultHashes();

    for (ConcretizationPolicy Policy : {ConcretizationPolicy::Sound,
                                        ConcretizationPolicy::SoundDelayed}) {
      smt::TermArena Arena;
      ExecOptions Options;
      Options.Policy = Policy;
      SymbolicExecutor Exec(Prog, Natives, Arena, Options);

      TestInput Input;
      Input.Cells = {Rng.nextInRange(-30, 30), Rng.nextInRange(-30, 30),
                     Rng.nextInRange(-30, 30)};
      PathResult PR = Exec.execute("main", Input);
      if (PR.PC.Truncated || PR.PC.empty())
        continue;

      // Any model of the full path constraint must replay the same trace
      // (Definition 1 / Theorem 2).
      smt::SolverContext Solver(Arena);
      smt::SolverStats Stats;
      smt::SatAnswer Answer =
          Solver.checkFormula(PR.PC.conjunction(Arena), Stats);
      if (!Answer.isSat())
        continue; // The original input is a witness, but the solver may
                  // time out; Unknown is acceptable, Unsat impossible.
      TestInput Replay = Input;
      InputLayout Layout(*Prog.findFunction("main"));
      for (unsigned I = 0; I != Layout.size(); ++I)
        if (auto V = Answer.ModelValue.varValue(
                Arena.getOrCreateVar(Layout.name(I))))
          Replay.Cells[I] = *V;

      Interpreter Interp(Prog, Natives);
      RunResult Concrete = Interp.run("main", Replay);
      ASSERT_EQ(Concrete.Trace, PR.Run.Trace)
          << "policy " << policyName(Policy) << " produced an unsound path "
          << "constraint for input " << Input.toString() << " (replayed "
          << Replay.toString() << ")\n"
          << Source << "\n"
          << PR.PC.toString(Arena);
    }
  }
}

TEST_P(TheoremPropertyTest, CoExecutorAgreesWithInterpreter) {
  // The co-executor's concrete half must be observationally identical to
  // the plain interpreter on every policy.
  RandomGen Rng(GetParam() * 31 + 5);
  for (int ProgIdx = 0; ProgIdx != 5; ++ProgIdx) {
    ProgramGenerator Gen(GetParam() * 1009 + ProgIdx + 100);
    lang::Program Prog = compileOrDie(Gen.generate());
    if (Prog.Functions.empty())
      continue;
    NativeRegistry Natives;
    Natives.registerDefaultHashes();
    Interpreter Interp(Prog, Natives);

    for (int Trial = 0; Trial != 4; ++Trial) {
      TestInput Input;
      Input.Cells = {Rng.nextInRange(-50, 50), Rng.nextInRange(-50, 50),
                     Rng.nextInRange(-50, 50)};
      RunResult Expected = Interp.run("main", Input);
      for (ConcretizationPolicy Policy :
           {ConcretizationPolicy::Unsound, ConcretizationPolicy::Sound,
            ConcretizationPolicy::SoundDelayed,
            ConcretizationPolicy::HigherOrder}) {
        smt::TermArena Arena;
        ExecOptions Options;
        Options.Policy = Policy;
        SymbolicExecutor Exec(Prog, Natives, Arena, Options);
        PathResult PR = Exec.execute("main", Input);
        ASSERT_EQ(PR.Run.Status, Expected.Status);
        ASSERT_EQ(PR.Run.Trace, Expected.Trace);
        ASSERT_EQ(PR.Run.ReturnValue, Expected.ReturnValue);
      }
    }
  }
}

TEST_P(TheoremPropertyTest, HigherOrderSearchNeverDiverges) {
  // Theorem 3 + validity-based generation: no divergences, ever.
  ProgramGenerator Gen(GetParam() * 733 + 17);
  lang::Program Prog = compileOrDie(Gen.generate());
  if (Prog.Functions.empty())
    return;
  NativeRegistry Natives;
  Natives.registerDefaultHashes();

  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::HigherOrder;
  Options.MaxTests = 24;
  Options.Seed = GetParam();
  DirectedSearch Search(Prog, Natives, "main", Options);
  SearchResult R = Search.run();
  EXPECT_EQ(R.Divergences, 0u);
}

TEST_P(TheoremPropertyTest, SoundSearchNeverDiverges) {
  ProgramGenerator Gen(GetParam() * 733 + 18);
  lang::Program Prog = compileOrDie(Gen.generate());
  if (Prog.Functions.empty())
    return;
  NativeRegistry Natives;
  Natives.registerDefaultHashes();

  for (ConcretizationPolicy Policy : {ConcretizationPolicy::Sound,
                                      ConcretizationPolicy::SoundDelayed}) {
    SearchOptions Options;
    Options.Policy = Policy;
    Options.MaxTests = 24;
    Options.Seed = GetParam();
    DirectedSearch Search(Prog, Natives, "main", Options);
    SearchResult R = Search.run();
    EXPECT_EQ(R.Divergences, 0u) << policyName(Policy);
  }
}

//===----------------------------------------------------------------------===//
// Theorem 4 (Simulation): SC-satisfiable alternates admit HO strategies.
//===----------------------------------------------------------------------===//

TEST_P(TheoremPropertyTest, HigherOrderSimulatesSoundConcretization) {
  RandomGen Rng(GetParam() * 47 + 3);
  for (int ProgIdx = 0; ProgIdx != 5; ++ProgIdx) {
    ProgramGenerator Gen(GetParam() * 577 + ProgIdx + 40);
    lang::Program Prog = compileOrDie(Gen.generate());
    if (Prog.Functions.empty())
      continue;
    NativeRegistry Natives;
    Natives.registerDefaultHashes();

    TestInput Input;
    Input.Cells = {Rng.nextInRange(-30, 30), Rng.nextInRange(-30, 30),
                   Rng.nextInRange(-30, 30)};

    // One shared arena so constraints are comparable.
    smt::TermArena Arena;
    smt::SampleTable Samples;

    ExecOptions SC;
    SC.Policy = ConcretizationPolicy::Sound;
    SymbolicExecutor ScExec(Prog, Natives, Arena, SC);
    PathResult ScPR = ScExec.execute("main", Input);

    ExecOptions HO;
    HO.Policy = ConcretizationPolicy::HigherOrder;
    SymbolicExecutor HoExec(Prog, Natives, Arena, HO);
    PathResult HoPR = HoExec.execute("main", Input, &Samples);

    if (ScPR.PC.Truncated || HoPR.PC.Truncated)
      continue;

    for (size_t ScPos : ScPR.PC.negatablePositions()) {
      // Match the HO entry produced by the same trace event.
      uint32_t Event = ScPR.PC.Entries[ScPos].TraceIndex;
      size_t HoPos = HoPR.PC.size();
      for (size_t I = 0; I != HoPR.PC.size(); ++I)
        if (!HoPR.PC.Entries[I].IsConcretization &&
            HoPR.PC.Entries[I].TraceIndex == Event)
          HoPos = I;
      ASSERT_NE(HoPos, HoPR.PC.size())
          << "higher-order execution lost a constraint that sound "
             "concretization kept";

      smt::SolverContext Solver(Arena);
      smt::SolverStats Stats;
      smt::SatAnswer ScAnswer =
          Solver.checkFormula(ScPR.PC.alternate(Arena, ScPos), Stats);
      if (!ScAnswer.isSat())
        continue;

      ValiditySolver Validity(Arena, Samples);
      ValidityAnswer HoAnswer =
          Validity.checkPost(HoPR.PC.alternate(Arena, HoPos));
      EXPECT_EQ(HoAnswer.Status, ValidityStatus::Valid)
          << "Theorem 4 violated at trace event " << Event << ":\nSC: "
          << Arena.toString(ScPR.PC.alternate(Arena, ScPos)) << "\nHO: "
          << Arena.toString(HoPR.PC.alternate(Arena, HoPos));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

} // namespace
