//===- tools/hotg-run.cpp - Command-line driver ------------------------------------===//
//
// Runs test generation on a MiniLang source file:
//
//   hotg-run program.ml [options]
//
//   --entry NAME       entry function (default: "main" when present,
//                      otherwise the first function)
//   --policy P         unsound | sound | sound-delayed | higher-order
//                      (default) | random
//   --max-tests N      execution budget (default 64)
//   --multistep K      learning-run bound for higher-order (default 2)
//   --input a,b,c      initial input cells (default: random)
//   --seed-input a,b,c additional seed-corpus input (repeatable)
//   --seed N           PRNG seed (default 42)
//   --samples-in F     pre-load an IOF sample table saved by --samples-out
//   --samples-out F    save the accumulated IOF sample table
//   --summarize        compositional mode: summarize helper calls (§8)
//   --explore-paths    do not skip already-covered branch targets
//   --order bfs|dfs    candidate exploration order (default bfs)
//   --dump-tests       print every executed test
//   --dump-pc          print the AST and per-test path constraints
//   --stats            print the telemetry counter/timer table to stderr
//   --stats-json F     write the telemetry registry as JSON to F
//   --trace-out F      write a JSONL trace (one event per line) to F;
//                      docs/observability.md documents the event schema,
//                      and the hotg-trace tool analyzes the result
//   --progress-ms N    emit a sampled heartbeat trace event (tests/s,
//                      solver checks/s, frontier size) at most every N ms;
//                      needs a trace sink (--trace-out)
//   --deadline-ms N    wall-clock budget for the search; on expiry the
//                      partial SearchResult is reported and the exit code
//                      is 2 (see docs/robustness.md)
//   --fault-spec S     arm the deterministic fault injector, e.g.
//                      "solver-check:0.05:7"; overrides HOTG_FAULT_SPEC
//
// The search runs on one thread. Programs run on the register bytecode
// VM, or on the tree-walking interpreter pair under --summarize
// (docs/minilang.md "Bytecode VM").
//
// Available natives: hash(1), hash2(1), hash4(4), fstep(1).
//
// Exit codes: 0 = search completed (bugs found or not), 1 = usage or
// input error, 2 = search stopped early (deadline/cancellation — partial
// results were still reported), 3 = internal error.
//
//===----------------------------------------------------------------------===//

#include "app/Examples.h"
#include "core/Search.h"
#include "dse/SymbolicExecutor.h"
#include "lang/Parser.h"
#include "support/Deadline.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "vm/Engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>

using namespace hotg;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;

namespace {

[[noreturn]] void usageError(const char *Message) {
  std::fprintf(stderr, "hotg-run: %s\n", Message);
  std::fprintf(stderr,
               "usage: hotg-run <file.ml> [--entry NAME] "
               "[--policy unsound|sound|sound-delayed|higher-order|random] "
               "[--max-tests N] [--multistep K] [--input a,b,c] "
               "[--seed-input a,b,c] [--seed N] [--samples-in F] "
               "[--samples-out F] [--summarize] [--explore-paths] "
               "[--order bfs|dfs] [--dump-tests] "
               "[--dump-pc] [--stats] "
               "[--stats-json F] [--trace-out F] [--progress-ms N] "
               "[--deadline-ms N] [--fault-spec site:prob:seed[,...]]\n");
  std::exit(1);
}

TestInput parseCells(const char *Spec) {
  TestInput Input;
  for (const std::string &Part : split(Spec, ','))
    Input.Cells.push_back(std::strtoll(Part.c_str(), nullptr, 10));
  return Input;
}

/// The driver proper; main() wraps this in a catch-all so unexpected
/// exceptions (including injected faults that escape the recovery paths)
/// map to exit code 3 instead of std::terminate.
int runTool(int Argc, char **Argv) {
  if (Argc < 2)
    usageError("missing input file");

  const char *Path = nullptr;
  std::string Entry;
  std::string Policy = "higher-order";
  unsigned MaxTests = 64;
  unsigned MultiStep = 2;
  uint64_t Seed = 42;
  std::optional<TestInput> Initial;
  std::vector<TestInput> Seeds;
  bool ExplorePaths = false, DumpTests = false, DumpPc = false;
  bool DepthFirst = false, Summarize = false, PrintStats = false;
  uint64_t DeadlineMs = 0;
  uint64_t ProgressMs = 0;
  std::string SamplesIn, SamplesOut, StatsJsonPath, TracePath, FaultSpec;

  for (int I = 1; I != Argc; ++I) {
    auto NextArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc)
        usageError(formatString("%s requires an argument", Flag).c_str());
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--entry"))
      Entry = NextArg("--entry");
    else if (!std::strcmp(Argv[I], "--policy"))
      Policy = NextArg("--policy");
    else if (!std::strcmp(Argv[I], "--max-tests"))
      MaxTests = static_cast<unsigned>(
          std::strtoul(NextArg("--max-tests"), nullptr, 10));
    else if (!std::strcmp(Argv[I], "--multistep"))
      MultiStep = static_cast<unsigned>(
          std::strtoul(NextArg("--multistep"), nullptr, 10));
    else if (!std::strcmp(Argv[I], "--input"))
      Initial = parseCells(NextArg("--input"));
    else if (!std::strcmp(Argv[I], "--seed-input"))
      Seeds.push_back(parseCells(NextArg("--seed-input")));
    else if (!std::strcmp(Argv[I], "--seed"))
      Seed = std::strtoull(NextArg("--seed"), nullptr, 10);
    else if (!std::strcmp(Argv[I], "--samples-in"))
      SamplesIn = NextArg("--samples-in");
    else if (!std::strcmp(Argv[I], "--samples-out"))
      SamplesOut = NextArg("--samples-out");
    else if (!std::strcmp(Argv[I], "--explore-paths"))
      ExplorePaths = true;
    else if (!std::strcmp(Argv[I], "--summarize"))
      Summarize = true;
    else if (!std::strcmp(Argv[I], "--order")) {
      const char *Order = NextArg("--order");
      if (!std::strcmp(Order, "dfs"))
        DepthFirst = true;
      else if (std::strcmp(Order, "bfs"))
        usageError("--order expects bfs or dfs");
    }
    else if (!std::strcmp(Argv[I], "--dump-tests"))
      DumpTests = true;
    else if (!std::strcmp(Argv[I], "--dump-pc"))
      DumpPc = true;
    else if (!std::strcmp(Argv[I], "--stats"))
      PrintStats = true;
    else if (!std::strcmp(Argv[I], "--stats-json"))
      StatsJsonPath = NextArg("--stats-json");
    else if (!std::strcmp(Argv[I], "--trace-out"))
      TracePath = NextArg("--trace-out");
    else if (!std::strcmp(Argv[I], "--progress-ms")) {
      ProgressMs = std::strtoull(NextArg("--progress-ms"), nullptr, 10);
      if (ProgressMs == 0)
        usageError("--progress-ms expects a positive millisecond count");
    }
    else if (!std::strcmp(Argv[I], "--deadline-ms")) {
      DeadlineMs = std::strtoull(NextArg("--deadline-ms"), nullptr, 10);
      if (DeadlineMs == 0)
        usageError("--deadline-ms expects a positive millisecond count");
    }
    else if (!std::strcmp(Argv[I], "--fault-spec"))
      FaultSpec = NextArg("--fault-spec");
    else if (Argv[I][0] == '-')
      usageError(formatString("unknown option '%s'", Argv[I]).c_str());
    else if (Path)
      usageError("multiple input files");
    else
      Path = Argv[I];
  }
  if (!Path)
    usageError("missing input file");

  // --fault-spec wins over the HOTG_FAULT_SPEC environment variable so a
  // CI matrix can export a default and individual steps can override it.
  if (FaultSpec.empty())
    if (const char *Env = std::getenv("HOTG_FAULT_SPEC"))
      FaultSpec = Env;
  std::unique_ptr<support::FaultInjector> Injector;
  if (!FaultSpec.empty()) {
    std::string Error;
    Injector = support::FaultInjector::parse(FaultSpec, Error);
    if (!Injector)
      usageError(
          formatString("invalid fault spec: %s", Error.c_str()).c_str());
    support::setFaultInjector(Injector.get());
  }

  std::ifstream File(Path);
  if (!File) {
    std::fprintf(stderr, "hotg-run: cannot open '%s'\n", Path);
    return 1;
  }
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  std::string Source = Buffer.str();

  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Source, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.render(Path).c_str());
    return 1;
  }
  if (!Diags.diagnostics().empty())
    std::fprintf(stderr, "%s", Diags.render(Path).c_str());
  if (Prog->Functions.empty()) {
    std::fprintf(stderr, "hotg-run: no functions in '%s'\n", Path);
    return 1;
  }
  if (Entry.empty())
    Entry = Prog->findFunction("main") ? "main"
                                       : Prog->Functions.front()->Name;
  const lang::FunctionDecl *EntryFn = Prog->findFunction(Entry);
  if (!EntryFn) {
    std::fprintf(stderr, "hotg-run: no function named '%s'\n",
                 Entry.c_str());
    return 1;
  }

  NativeRegistry Natives;
  app::registerExampleNatives(Natives);
  for (const lang::ExternDecl &Ext : Prog->Externs)
    if (!Natives.find(Ext.Name)) {
      std::fprintf(stderr,
                   "hotg-run: extern '%s' has no native binding "
                   "(available: hash, hash2, hash4, fstep)\n",
                   Ext.Name.c_str());
      return 1;
    }

  if (DumpPc)
    std::printf("=== AST ===\n%s\n", lang::dumpProgram(*Prog).c_str());

  InputLayout Layout(*EntryFn);
  std::printf("entry %s with %u input cell(s):", Entry.c_str(),
              Layout.size());
  for (unsigned I = 0; I != Layout.size(); ++I)
    std::printf(" %s", Layout.name(I).c_str());
  std::printf("\n");

  std::ofstream TraceFile;
  std::unique_ptr<telemetry::JsonlTraceSink> Trace;
  if (!TracePath.empty()) {
    TraceFile.open(TracePath);
    if (!TraceFile) {
      std::fprintf(stderr, "hotg-run: cannot open '%s' for writing\n",
                   TracePath.c_str());
      return 1;
    }
    Trace = std::make_unique<telemetry::JsonlTraceSink>(TraceFile);
    telemetry::setSink(Trace.get());
  }

  // Arm the deadline here, not at argument-parse time, so the budget
  // covers the search itself rather than file loading and parsing.
  support::Deadline Deadline;
  if (DeadlineMs != 0)
    Deadline = support::Deadline::afterMillis(DeadlineMs);

  SearchResult Result;
  if (Policy == "random") {
    RunLimits Limits;
    Limits.Deadline = Deadline;
    Result = runRandomSearch(*Prog, Natives, Entry, MaxTests, 0, 99, Seed,
                             Limits);
  } else {
    SearchOptions Options;
    if (Policy == "unsound")
      Options.Policy = ConcretizationPolicy::Unsound;
    else if (Policy == "sound")
      Options.Policy = ConcretizationPolicy::Sound;
    else if (Policy == "sound-delayed")
      Options.Policy = ConcretizationPolicy::SoundDelayed;
    else if (Policy == "higher-order")
      Options.Policy = ConcretizationPolicy::HigherOrder;
    else
      usageError("unknown policy");
    Options.MaxTests = MaxTests;
    Options.MultiStepBound = MultiStep;
    Options.Seed = Seed;
    Options.InitialInput = Initial;
    Options.SeedInputs = Seeds;
    Options.SkipCoveredTargets = !ExplorePaths;
    Options.SummarizeCalls = Summarize;
    Options.ProgressEveryMs = ProgressMs;
    Options.Deadline = Deadline;
    if (DepthFirst)
      Options.Order = SearchOptions::OrderKind::DepthFirst;

    DirectedSearch Search(*Prog, Natives, Entry, Options);
    if (!SamplesIn.empty()) {
      std::ifstream In(SamplesIn);
      if (!In) {
        std::fprintf(stderr, "hotg-run: cannot open '%s'\n",
                     SamplesIn.c_str());
        return 1;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      std::string Err;
      if (!Search.importSamples(Buf.str(), &Err)) {
        std::fprintf(stderr, "hotg-run: %s: %s\n", SamplesIn.c_str(),
                     Err.c_str());
        return 1;
      }
      std::printf("pre-loaded %zu IOF samples from %s\n",
                  Search.samples().size(), SamplesIn.c_str());
    }
    Result = Search.run();
    if (DumpPc)
      std::printf("IOF samples recorded: %zu\n", Search.samples().size());
    if (Summarize)
      std::printf("summary disjuncts recorded: %zu\n",
                  Search.summaries().size());
    if (!SamplesOut.empty()) {
      std::ofstream Out(SamplesOut);
      Out << Search.exportSamples();
      std::printf("saved %zu IOF samples to %s\n", Search.samples().size(),
                  SamplesOut.c_str());
    }
  }

  if (DumpTests)
    for (size_t I = 0; I != Result.Tests.size(); ++I) {
      const TestRecord &T = Result.Tests[I];
      std::printf("  test #%02zu %s -> %s%s%s\n", I + 1,
                  T.Input.toString().c_str(), runStatusName(T.Status),
                  T.Diverged ? " [diverged]" : "",
                  T.Intermediate ? " [learning]" : "");
    }

  telemetry::setSink(nullptr);
  if (PrintStats) {
    telemetry::Registry &Reg = telemetry::Registry::global();
    std::fprintf(stderr, "%s", Reg.statsTable().c_str());
    // Which engine actually ran the programs (--summarize forces the
    // interpreter pair; docs/minilang.md "Bytecode VM").
    bool SummaryMode = Policy != "random" && Summarize;
    std::fprintf(stderr, "engine: %s\n",
                 vm::engineName(SummaryMode ? vm::EngineKind::Interp
                                            : vm::EngineKind::VM));
    // Execution throughput of the bytecode VM: instructions retired per
    // second of vm.exec wall time (concrete and shadow runs combined).
    uint64_t VmInsns = Reg.counter("vm.instructions").value();
    uint64_t VmNs = Reg.timer("vm.exec").totalNs();
    if (VmInsns != 0 && VmNs != 0)
      std::fprintf(stderr, "vm throughput: %.2fM insns/s "
                   "(%llu instructions in %.2f ms)\n",
                   1000.0 * double(VmInsns) / double(VmNs),
                   (unsigned long long)VmInsns, double(VmNs) / 1e6);
    // Incremental-context reuse rate: literals kept asserted across
    // retargets as a fraction of all literal assertion work (reused +
    // freshly pushed scopes). See docs/solver.md.
    uint64_t Reused = Reg.counter("solver.prefix_literals_reused").value();
    uint64_t Pushes = Reg.counter("solver.scope_pushes").value();
    if (Reused + Pushes != 0)
      std::fprintf(stderr, "solver prefix reuse: %.1f%% (%llu reused, %llu pushed)\n",
                   100.0 * double(Reused) / double(Reused + Pushes),
                   (unsigned long long)Reused, (unsigned long long)Pushes);
    // Grounding pruning rate: groundings cut because a partial grounding
    // was already refuted, as a fraction of the enumeration (tried +
    // pruned). See docs/solver.md.
    uint64_t Tried = Reg.counter("validity.groundings_tried").value();
    uint64_t Pruned = Reg.counter("validity.groundings_pruned").value();
    if (Tried + Pruned != 0)
      std::fprintf(stderr,
                   "grounding pruning: %.1f%% (%llu pruned, %llu tried)\n",
                   100.0 * double(Pruned) / double(Tried + Pruned),
                   (unsigned long long)Pruned, (unsigned long long)Tried);
    if (Injector)
      std::fprintf(stderr, "fault injection (per armed site):\n%s",
                   Injector->summary().c_str());
  }
  if (!StatsJsonPath.empty()) {
    std::ofstream StatsFile(StatsJsonPath);
    if (!StatsFile) {
      std::fprintf(stderr, "hotg-run: cannot open '%s' for writing\n",
                   StatsJsonPath.c_str());
      return 1;
    }
    StatsFile << telemetry::Registry::global().statsJson() << "\n";
  }

  // The report block (summary line, bug lines, stop reason) is rendered by
  // core::renderSearchReport — hotg-serve returns the identical bytes in
  // its job responses, and CI asserts the two tools agree.
  std::fputs(renderSearchReport(Policy, Result).c_str(), stdout);

  // Exit 2 when the search stopped early (or a run was cut mid-flight by
  // the deadline): the results above are real but possibly incomplete.
  return searchDegraded(Result) ? 2 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    return runTool(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "hotg-run: internal error: %s\n", E.what());
  } catch (...) {
    std::fprintf(stderr, "hotg-run: internal error\n");
  }
  return 3;
}
