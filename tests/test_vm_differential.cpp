//===- tests/test_vm_differential.cpp - VM vs interpreter byte identity ---------===//
//
// The acceptance contract of the bytecode VM (docs/minilang.md "Bytecode
// VM"): for every example program, every concretization policy and every
// worker count, a search run on the VM engine produces byte-identical
// output to the tree-walking reference pair — same tests, same bugs, same
// coverage, same solver-call counts — and a single shadow run produces the
// same path constraint down to the numeric term ids (which encodes the
// arena interning order, the strongest equivalence the term layer has).
//
//===----------------------------------------------------------------------===//

#include "app/Examples.h"
#include "core/Search.h"
#include "dse/SymbolicExecutor.h"
#include "lang/Parser.h"
#include "support/FaultInjector.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace hotg;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;

namespace {

constexpr ConcretizationPolicy AllPolicies[] = {
    ConcretizationPolicy::Unsound, ConcretizationPolicy::Sound,
    ConcretizationPolicy::SoundDelayed, ConcretizationPolicy::HigherOrder};

/// Entry convention of the shipped example files: the lexer programs name
/// their entry lex_main; everything else uses main or the first function
/// (the hotg-run default).
std::string entryOf(const lang::Program &Prog) {
  if (Prog.findFunction("lex_main"))
    return "lex_main";
  if (Prog.findFunction("main"))
    return "main";
  return Prog.Functions.front()->Name;
}

std::vector<std::filesystem::path> examplePaths() {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HOTG_EXAMPLES_DIR))
    if (Entry.path().extension() == ".ml")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  EXPECT_FALSE(Paths.empty()) << "no examples under " << HOTG_EXAMPLES_DIR;
  return Paths;
}

lang::Program loadProgram(const std::filesystem::path &Path) {
  std::ifstream File(Path);
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Buffer.str(), Diags);
  if (!Prog) {
    ADD_FAILURE() << Path << " failed to parse:\n"
                  << Diags.render(Path.c_str());
    return {};
  }
  return std::move(*Prog);
}

/// Field-by-field identity of two search results. Cache traffic and
/// worker-failure tallies are schedule-dependent by contract and excluded;
/// everything else must match exactly.
void expectIdentical(const SearchResult &A, const SearchResult &B,
                     const std::string &Context) {
  ASSERT_EQ(A.Tests.size(), B.Tests.size()) << Context;
  for (size_t I = 0; I != A.Tests.size(); ++I) {
    EXPECT_EQ(A.Tests[I].Input.Cells, B.Tests[I].Input.Cells)
        << Context << " test " << I;
    EXPECT_EQ(A.Tests[I].Status, B.Tests[I].Status) << Context << " test " << I;
    EXPECT_EQ(A.Tests[I].Diverged, B.Tests[I].Diverged)
        << Context << " test " << I;
    EXPECT_EQ(A.Tests[I].Intermediate, B.Tests[I].Intermediate)
        << Context << " test " << I;
  }
  ASSERT_EQ(A.Bugs.size(), B.Bugs.size()) << Context;
  for (size_t I = 0; I != A.Bugs.size(); ++I) {
    EXPECT_EQ(A.Bugs[I].Input.Cells, B.Bugs[I].Input.Cells)
        << Context << " bug " << I;
    EXPECT_EQ(A.Bugs[I].Status, B.Bugs[I].Status) << Context << " bug " << I;
    EXPECT_EQ(A.Bugs[I].Site, B.Bugs[I].Site) << Context << " bug " << I;
    EXPECT_EQ(A.Bugs[I].Message, B.Bugs[I].Message) << Context << " bug " << I;
    EXPECT_EQ(A.Bugs[I].FoundAtTest, B.Bugs[I].FoundAtTest)
        << Context << " bug " << I;
  }
  EXPECT_EQ(A.Cov.coveredDirections(), B.Cov.coveredDirections()) << Context;
  EXPECT_EQ(A.Cov.totalDirections(), B.Cov.totalDirections()) << Context;
  EXPECT_EQ(A.Divergences, B.Divergences) << Context;
  EXPECT_EQ(A.SolverCalls, B.SolverCalls) << Context;
  EXPECT_EQ(A.ValidityCalls, B.ValidityCalls) << Context;
  EXPECT_EQ(A.MultiStepRuns, B.MultiStepRuns) << Context;
  EXPECT_EQ(A.Stopped, B.Stopped) << Context;
}

SearchResult runSearch(const lang::Program &Prog,
                       const NativeRegistry &Natives,
                       const std::string &Entry, ConcretizationPolicy Policy,
                       unsigned Jobs, vm::EngineKind Engine) {
  SearchOptions Options;
  Options.Policy = Policy;
  Options.MaxTests = 24;
  Options.Jobs = Jobs;
  Options.Engine = Engine;
  DirectedSearch Search(Prog, Natives, Entry, Options);
  return Search.run();
}

/// The faulted lexer search of the CLI fault contract (hotg-run lexer.ml
/// --entry lex_main --explore-paths --max-tests 48), on \p Engine, with
/// \p FaultSpec armed for its duration ("" runs it clean).
SearchResult runFaultedLexer(const NativeRegistry &Natives, unsigned Jobs,
                             vm::EngineKind Engine,
                             const std::string &FaultSpec) {
  lang::Program Prog =
      loadProgram(std::filesystem::path(HOTG_EXAMPLES_DIR) / "lexer.ml");
  SearchOptions Options;
  Options.Policy = ConcretizationPolicy::HigherOrder;
  Options.MaxTests = 48;
  Options.SkipCoveredTargets = false;
  Options.Jobs = Jobs;
  Options.Engine = Engine;
  std::unique_ptr<support::FaultInjector> Injector;
  if (!FaultSpec.empty()) {
    std::string Error;
    Injector = support::FaultInjector::parse(FaultSpec, Error);
    EXPECT_TRUE(Injector) << Error;
  }
  support::setFaultInjector(Injector.get());
  SearchResult Result;
  {
    // Destroyed before disarming: its pool may still be running
    // speculative jobs that probe the injector.
    DirectedSearch Search(Prog, Natives, "lex_main", Options);
    Result = Search.run();
  }
  support::setFaultInjector(nullptr);
  return Result;
}

/// TSan-friendly fixture name: the thread-sanitizer CI leg filters on
/// VmDifferentialTest.* to exercise the engine seam under Jobs > 1.
class VmDifferentialTest : public ::testing::Test {
protected:
  NativeRegistry Natives;
  void SetUp() override { app::registerExampleNatives(Natives); }
};

//===----------------------------------------------------------------------===//
// Search-level identity over the example files
//===----------------------------------------------------------------------===//

TEST_F(VmDifferentialTest, SearchOutputIdenticalAcrossEnginesSerial) {
  for (const auto &Path : examplePaths()) {
    lang::Program Prog = loadProgram(Path);
    std::string Entry = entryOf(Prog);
    for (ConcretizationPolicy Policy : AllPolicies) {
      SearchResult A =
          runSearch(Prog, Natives, Entry, Policy, 1, vm::EngineKind::Interp);
      SearchResult B =
          runSearch(Prog, Natives, Entry, Policy, 1, vm::EngineKind::VM);
      expectIdentical(A, B,
                      Path.filename().string() + " / " + policyName(Policy) +
                          " / jobs 1");
    }
  }
}

TEST_F(VmDifferentialTest, SearchOutputIdenticalAcrossEnginesParallel) {
  for (const auto &Path : examplePaths()) {
    lang::Program Prog = loadProgram(Path);
    std::string Entry = entryOf(Prog);
    for (ConcretizationPolicy Policy : AllPolicies) {
      SearchResult A =
          runSearch(Prog, Natives, Entry, Policy, 4, vm::EngineKind::Interp);
      SearchResult B =
          runSearch(Prog, Natives, Entry, Policy, 4, vm::EngineKind::VM);
      expectIdentical(A, B,
                      Path.filename().string() + " / " + policyName(Policy) +
                          " / jobs 4");
    }
  }
}

/// Worker counts must not interact with the engine choice: VM at jobs 4
/// equals interpreter at jobs 1.
TEST_F(VmDifferentialTest, EngineAndJobsCommute) {
  for (const auto &Path : examplePaths()) {
    lang::Program Prog = loadProgram(Path);
    std::string Entry = entryOf(Prog);
    SearchResult A = runSearch(Prog, Natives, Entry,
                               ConcretizationPolicy::HigherOrder, 1,
                               vm::EngineKind::Interp);
    SearchResult B = runSearch(Prog, Natives, Entry,
                               ConcretizationPolicy::HigherOrder, 4,
                               vm::EngineKind::VM);
    expectIdentical(A, B, Path.filename().string() + " / cross jobs");
  }
}

/// Faults hit the query side; the engine must not perturb how recovery
/// replays tests. Serial searches under solver-check faults are identical
/// on both engines, and identical to the clean search.
TEST_F(VmDifferentialTest, FaultedSearchIdenticalAcrossEnginesSerial) {
  SearchResult Clean = runFaultedLexer(Natives, 1, vm::EngineKind::VM, "");
  for (const char *Spec : {"solver-check:0.05:7", "solver-check:0.05:19"}) {
    SearchResult Interp =
        runFaultedLexer(Natives, 1, vm::EngineKind::Interp, Spec);
    SearchResult VM = runFaultedLexer(Natives, 1, vm::EngineKind::VM, Spec);
    expectIdentical(Interp, VM, std::string(Spec) + " / interp vs vm");
    expectIdentical(Clean, Interp, std::string(Spec) + " / interp vs clean");
    EXPECT_GT(Interp.InlineRetries, 0u) << Spec;
  }
}

/// The interpreter engine recovers from every search fault site at
/// --jobs 4 to the clean VM search.
TEST_F(VmDifferentialTest, FaultedInterpreterMatchesCleanVmAtEverySite) {
  SearchResult Clean = runFaultedLexer(Natives, 4, vm::EngineKind::VM, "");
  for (const char *Site :
       {"worker-dispatch:0.2", "cache-publish:0.2", "arena-delta:0.2",
        "solver-check:0.05"})
    for (const char *Seed : {":7", ":19"}) {
      std::string Spec = std::string(Site) + Seed;
      expectIdentical(
          Clean, runFaultedLexer(Natives, 4, vm::EngineKind::Interp, Spec),
          Spec + " / interp jobs 4");
    }
}

//===----------------------------------------------------------------------===//
// Executor-level identity over the in-binary paper examples
//===----------------------------------------------------------------------===//

/// One shadow run per paper example and policy, on a fresh arena per
/// engine: every PathResult field must agree, with term ids compared
/// numerically — equal ids across independently-populated arenas means
/// the VM interned every term in exactly the co-executor's order.
TEST_F(VmDifferentialTest, ShadowRunsMatchTermForTerm) {
  for (const app::ExampleProgram &Example : app::allExamples()) {
    lang::Program Prog = app::compileExample(Example);
    TestInput Input = Example.InitialInput
                          ? *Example.InitialInput
                          : InputLayout(*Prog.findFunction(Example.Entry))
                                .zeroInput();
    for (ConcretizationPolicy Policy : AllPolicies) {
      std::string Context =
          Example.Name + " / " + policyName(Policy);
      ExecOptions Options;
      Options.Policy = Policy;

      smt::TermArena RefArena;
      smt::SampleTable RefSamples;
      SymbolicExecutor Ref(Prog, Natives, RefArena, Options);
      PathResult Expected = Ref.execute(Example.Entry, Input, &RefSamples);

      smt::TermArena VmArena;
      smt::SampleTable VmSamples;
      vm::CompiledProgram CP = vm::compile(Prog);
      vm::VM Machine(CP, Natives, VmArena);
      Machine.setOptions(Options);
      PathResult Actual = Machine.execute(Example.Entry, Input, &VmSamples);

      EXPECT_EQ(Actual.Run.Status, Expected.Run.Status) << Context;
      EXPECT_EQ(Actual.Run.ReturnValue, Expected.Run.ReturnValue) << Context;
      EXPECT_EQ(Actual.Run.Steps, Expected.Run.Steps) << Context;
      ASSERT_EQ(Actual.Run.Trace.size(), Expected.Run.Trace.size()) << Context;
      for (size_t I = 0; I != Expected.Run.Trace.size(); ++I) {
        EXPECT_EQ(Actual.Run.Trace[I].Branch, Expected.Run.Trace[I].Branch)
            << Context << " event " << I;
        EXPECT_EQ(Actual.Run.Trace[I].Taken, Expected.Run.Trace[I].Taken)
            << Context << " event " << I;
      }
      EXPECT_EQ(Actual.Run.Error.has_value(), Expected.Run.Error.has_value())
          << Context;
      if (Actual.Run.Error && Expected.Run.Error) {
        EXPECT_EQ(Actual.Run.Error->Site, Expected.Run.Error->Site) << Context;
        EXPECT_EQ(Actual.Run.Error->Message, Expected.Run.Error->Message)
            << Context;
      }

      EXPECT_EQ(Actual.PC.Truncated, Expected.PC.Truncated) << Context;
      ASSERT_EQ(Actual.PC.size(), Expected.PC.size()) << Context;
      for (size_t I = 0; I != Expected.PC.size(); ++I) {
        const PathEntry &E = Expected.PC.Entries[I];
        const PathEntry &A = Actual.PC.Entries[I];
        EXPECT_EQ(A.Constraint, E.Constraint) << Context << " entry " << I;
        EXPECT_EQ(A.Branch, E.Branch) << Context << " entry " << I;
        EXPECT_EQ(A.Taken, E.Taken) << Context << " entry " << I;
        EXPECT_EQ(A.IsConcretization, E.IsConcretization)
            << Context << " entry " << I;
        EXPECT_EQ(A.IsCheck, E.IsCheck) << Context << " entry " << I;
        EXPECT_EQ(A.TraceIndex, E.TraceIndex) << Context << " entry " << I;
      }
      EXPECT_EQ(Actual.PC.toString(VmArena), Expected.PC.toString(RefArena))
          << Context;

      EXPECT_EQ(Actual.NumConcretizations, Expected.NumConcretizations)
          << Context;
      EXPECT_EQ(Actual.NumUFApps, Expected.NumUFApps) << Context;
      EXPECT_EQ(Actual.NumSamplesRecorded, Expected.NumSamplesRecorded)
          << Context;
      EXPECT_EQ(VmSamples.serialize(VmArena), RefSamples.serialize(RefArena))
          << Context;
    }
  }
}

/// Concrete replay identity over the example files (the random baseline
/// and divergence replays run this path).
TEST_F(VmDifferentialTest, ConcreteRunsMatchTheInterpreter) {
  for (const auto &Path : examplePaths()) {
    lang::Program Prog = loadProgram(Path);
    std::string Entry = entryOf(Prog);
    InputLayout Layout(*Prog.findFunction(Entry));
    vm::CompiledProgram CP = vm::compile(Prog);
    smt::TermArena Arena;
    vm::VM Machine(CP, Natives, Arena);
    Interpreter Interp(Prog, Natives);

    // A deterministic fan of inputs, including boundary values that drive
    // the fault paths (0 divisors, out-of-range indices).
    for (int64_t Fill : {0, 1, 42, -3, 99}) {
      TestInput Input = Layout.zeroInput();
      for (size_t I = 0; I != Input.Cells.size(); ++I)
        Input.Cells[I] = Fill + static_cast<int64_t>(I);
      RunResult A = Interp.run(Entry, Input);
      RunResult B = Machine.runConcrete(Entry, Input, Interp.limits());
      std::string Context =
          Path.filename().string() + " / fill " + std::to_string(Fill);
      EXPECT_EQ(B.Status, A.Status) << Context;
      EXPECT_EQ(B.ReturnValue, A.ReturnValue) << Context;
      EXPECT_EQ(B.Steps, A.Steps) << Context;
      ASSERT_EQ(B.Trace.size(), A.Trace.size()) << Context;
      for (size_t I = 0; I != A.Trace.size(); ++I)
        EXPECT_TRUE(B.Trace[I] == A.Trace[I]) << Context << " event " << I;
    }
  }
}

} // namespace
