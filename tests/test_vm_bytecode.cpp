//===- tests/test_vm_bytecode.cpp - Compiler + VM unit tests --------------------===//
//
// Unit tests for the MiniLang → register bytecode compiler (jump
// resolution, constant-pool dedup, register discipline) and for targeted
// VM behaviors the big differential suite would only catch indirectly
// (shadow hygiene when temps are reused, step-budget parity, the
// void-entry return-value edge).
//
//===----------------------------------------------------------------------===//

#include "dse/SymbolicExecutor.h"
#include "interp/Interp.h"
#include "lang/Parser.h"
#include "vm/Compiler.h"
#include "vm/Engine.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hotg;
using namespace hotg::interp;
using namespace hotg::vm;

namespace {

lang::Program parse(std::string_view Source) {
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(std::string(Source), Diags);
  if (!Prog) {
    ADD_FAILURE() << "parse failed:\n" << Diags.render("<test>");
    return {};
  }
  return std::move(*Prog);
}

//===----------------------------------------------------------------------===//
// Compiler structure
//===----------------------------------------------------------------------===//

TEST(VmCompiler, JumpTargetsResolveInsideTheFunction) {
  lang::Program Prog = parse(R"(
    fun main(x: int) -> int {
      var acc: int = 0;
      while (x > 0) {
        if (x > 10) { acc = acc + 2; } else { acc = acc + 1; }
        x = x - 1;
      }
      if (acc > 5) { return acc; }
      return 0;
    }
  )");
  CompiledProgram CP = compile(Prog);
  ASSERT_EQ(CP.Functions.size(), 1u);
  const CompiledFunction &Fn = CP.Functions[0];

  bool SawBackEdge = false;
  for (size_t I = 0; I != Fn.Code.size(); ++I) {
    const Instr &In = Fn.Code[I];
    if (In.Op == Opcode::Jmp) {
      ASSERT_LT(In.A, Fn.Code.size()) << disassemble(CP, Fn);
      if (In.A <= I)
        SawBackEdge = true;
    } else if (In.Op == Opcode::BrCond) {
      ASSERT_LT(In.C, Fn.Code.size()) << disassemble(CP, Fn);
    }
  }
  // The while loop must have produced exactly one backward jump.
  EXPECT_TRUE(SawBackEdge) << disassemble(CP, Fn);
  // Locs stay parallel to Code (fault attribution indexes by PC).
  EXPECT_EQ(Fn.Code.size(), Fn.Locs.size());
}

TEST(VmCompiler, ConstantPoolDeduplicates) {
  lang::Program Prog = parse(R"(
    fun helper(a: int) -> int { return a + 7; }
    fun main(x: int) -> int {
      var a: int = 7;
      var b: int = 7;
      var c: int = 9;
      return helper(a + b + c + 7);
    }
  )");
  CompiledProgram CP = compile(Prog);
  EXPECT_EQ(std::count(CP.ConstPool.begin(), CP.ConstPool.end(), 7), 1)
      << "literal 7 must intern once across functions";
  EXPECT_EQ(std::count(CP.ConstPool.begin(), CP.ConstPool.end(), 9), 1);
}

TEST(VmCompiler, RegistersStayWithinDeclaredBounds) {
  lang::Program Prog = parse(R"(
    fun main(x: int, y: int) -> int {
      return ((x + 1) * (y + 2) + (x - y)) + ((x + y) + (x + 3) + (y + 4));
    }
  )");
  CompiledProgram CP = compile(Prog);
  const CompiledFunction &Fn = CP.Functions[0];
  for (const Instr &In : Fn.Code) {
    switch (In.Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
      EXPECT_LT(In.A, Fn.NumRegs);
      EXPECT_LT(In.B, Fn.NumRegs);
      EXPECT_LT(In.C, Fn.NumRegs);
      break;
    default:
      break;
    }
  }
  EXPECT_GE(Fn.NumRegs, Fn.NumSlots);
}

TEST(VmCompiler, DisassemblerNamesEveryOpcode) {
  lang::Program Prog = parse(R"(
    extern hash(int) -> int;
    fun helper(a: int) -> int { return a; }
    fun main(x: int, buf: int[3]) -> int {
      var t: int = hash(x);
      buf[0] = t % 3;
      if (buf[0] > 1 && x != 0) { error("boom"); }
      return helper(-t);
    }
  )");
  CompiledProgram CP = compile(Prog);
  std::string Text = disassemble(CP, *CP.findFunction("main"));
  for (const char *Mnemonic : {"callnat", "starr", "ldarr", "mod", "error"})
    EXPECT_NE(Text.find(Mnemonic), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// Targeted VM semantics
//===----------------------------------------------------------------------===//

/// Reusing an expression temp must not leak the previous occupant's shadow
/// term: here the first condition's temp holds a symbolic comparison, and
/// the arithmetic that reuses the register afterwards is purely concrete.
/// A stale shadow would emit a phantom constraint at the second branch.
TEST(VmShadow, ReusedTempCarriesNoStaleShadow) {
  lang::Program Prog = parse(R"(
    fun main(x: int) -> int {
      var hits: int = 0;
      if (x > 5) { hits = hits + 1; }
      var probe: int = 1 + 2;
      if (probe == 3) { hits = hits + 1; }
      return hits;
    }
  )");
  NativeRegistry Natives;
  TestInput Input;
  Input.Cells = {7};

  dse::ExecOptions Options;
  Options.Policy = dse::ConcretizationPolicy::SoundDelayed;

  smt::TermArena RefArena;
  dse::SymbolicExecutor Ref(Prog, Natives, RefArena, Options);
  dse::PathResult Expected = Ref.execute("main", Input);

  smt::TermArena VmArena;
  CompiledProgram CP = compile(Prog);
  VM Machine(CP, Natives, VmArena);
  Machine.setOptions(Options);
  dse::PathResult Actual = Machine.execute("main", Input);

  // Only the symbolic x > 5 constrains the path; probe == 3 folds away.
  ASSERT_EQ(Expected.PC.size(), 1u);
  ASSERT_EQ(Actual.PC.size(), Expected.PC.size());
  EXPECT_EQ(Actual.PC.Entries[0].Constraint,
            Expected.PC.Entries[0].Constraint);
  EXPECT_EQ(Actual.PC.toString(VmArena), Expected.PC.toString(RefArena));
}

/// Same hygiene across branch arms: the else-arm writes the slot the
/// then-arm made symbolic; on an input taking the else-arm the slot must
/// read back concrete (re-declaration inside loops reuses slots too).
TEST(VmShadow, BranchArmsResetSlotShadow) {
  lang::Program Prog = parse(R"(
    fun main(x: int) -> int {
      var t: int = 0;
      if (x > 5) { t = x; } else { t = 1; }
      if (t > 0) { return 1; }
      return 0;
    }
  )");
  NativeRegistry Natives;
  TestInput Input;
  Input.Cells = {2}; // else-arm: t is the concrete 1.

  dse::ExecOptions Options;
  Options.Policy = dse::ConcretizationPolicy::SoundDelayed;

  smt::TermArena RefArena;
  dse::SymbolicExecutor Ref(Prog, Natives, RefArena, Options);
  dse::PathResult Expected = Ref.execute("main", Input);

  smt::TermArena VmArena;
  CompiledProgram CP = compile(Prog);
  VM Machine(CP, Natives, VmArena);
  Machine.setOptions(Options);
  dse::PathResult Actual = Machine.execute("main", Input);

  ASSERT_EQ(Actual.PC.size(), Expected.PC.size());
  for (size_t I = 0; I != Expected.PC.size(); ++I)
    EXPECT_EQ(Actual.PC.Entries[I].Constraint,
              Expected.PC.Entries[I].Constraint)
        << "entry " << I;
  EXPECT_EQ(Actual.Run.Trace.size(), Expected.Run.Trace.size());
}

/// Step budgets replay the AST walk exactly: same Steps total, and a
/// MaxSteps cut must land on the same step count and status.
TEST(VmBudget, StepChargesMatchTheInterpreter) {
  lang::Program Prog = parse(R"(
    fun main(x: int) -> int {
      var acc: int = 0;
      var i: int = 0;
      while (i < 500) {
        acc = acc + i * 2 - 1;
        i = i + 1;
      }
      return acc;
    }
  )");
  NativeRegistry Natives;
  TestInput Input;
  Input.Cells = {0};
  CompiledProgram CP = compile(Prog);
  smt::TermArena Arena;
  VM Machine(CP, Natives, Arena);

  Interpreter Interp(Prog, Natives);
  RunResult Reference = Interp.run("main", Input);
  RunResult Replay = Machine.runConcrete("main", Input, Interp.limits());
  EXPECT_EQ(Replay.Steps, Reference.Steps);
  EXPECT_EQ(Replay.Status, Reference.Status);
  ASSERT_TRUE(Replay.ReturnValue && Reference.ReturnValue);
  EXPECT_EQ(*Replay.ReturnValue, *Reference.ReturnValue);

  // Sweep cut points around the observed total: status and step count
  // must agree at every budget, including mid-loop cuts.
  for (uint64_t Budget : {Reference.Steps / 2, Reference.Steps - 1,
                          Reference.Steps, Reference.Steps + 1}) {
    RunLimits Limits;
    Limits.MaxSteps = Budget;
    Interp.setLimits(Limits);
    RunResult A = Interp.run("main", Input);
    RunResult B = Machine.runConcrete("main", Input, Limits);
    EXPECT_EQ(B.Status, A.Status) << "budget " << Budget;
    EXPECT_EQ(B.Steps, A.Steps) << "budget " << Budget;
  }
}

/// A void entry falling off the end leaves ReturnValue unset concretely
/// (interpreter semantics) but reports 0 through the shadow path
/// (co-executor semantics). Both quirks are load-bearing for byte
/// identity.
TEST(VmBudget, VoidEntryReturnValueMatchesBothWalkers) {
  lang::Program Prog = parse(R"(
    fun main(x: int) {
      var y: int = x + 1;
    }
  )");
  NativeRegistry Natives;
  TestInput Input;
  Input.Cells = {5};
  CompiledProgram CP = compile(Prog);
  smt::TermArena Arena;
  VM Machine(CP, Natives, Arena);

  Interpreter Interp(Prog, Natives);
  RunResult Concrete = Machine.runConcrete("main", Input, Interp.limits());
  EXPECT_EQ(Concrete.ReturnValue.has_value(),
            Interp.run("main", Input).ReturnValue.has_value());
  EXPECT_FALSE(Concrete.ReturnValue.has_value());

  smt::TermArena RefArena;
  dse::SymbolicExecutor Ref(Prog, Natives, RefArena);
  dse::PathResult Shadow = Machine.execute("main", Input);
  EXPECT_EQ(Shadow.Run.ReturnValue, Ref.execute("main", Input).Run.ReturnValue);
  ASSERT_TRUE(Shadow.Run.ReturnValue.has_value());
  EXPECT_EQ(*Shadow.Run.ReturnValue, 0);
}

/// Engine names as --stats and the search_summary trace event print them.
TEST(VmEngine, EngineNamesAreStable) {
  EXPECT_STREQ(engineName(EngineKind::VM), "vm");
  EXPECT_STREQ(engineName(EngineKind::Interp), "interp");
}

} // namespace
