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
//   --dump-pc          print the AST and the count of IOF samples recorded
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
// Numbers are whole decimal integers in the ranges hotg-serve applies.
// The job the flags describe is checked and run by app::Job, as a
// hotg-serve request is: both tools give an invalid job the same reason
// and a valid one the same report.
//
// The search runs on one thread. Programs run on the register bytecode
// VM, or on the tree-walking interpreter pair under --summarize
// (docs/minilang.md "Bytecode VM").
//
// Available natives: hash(1), hash2(1), hash4(4), fstep(1).
//
// Exit codes: 0 = search completed (bugs found or not), 1 = usage or
// input error or an invalid job, 2 = search stopped early (deadline/
// cancellation — partial results were still reported), 3 = internal error.
//
//===----------------------------------------------------------------------===//

#include "app/Job.h"
#include "support/Deadline.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "vm/Engine.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

using namespace hotg;
using namespace hotg::core;
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

/// Parses all of \p Text as a decimal integer in [Lo, Hi], the range
/// hotg-serve applies to the same request field; anything else is a usage
/// error naming \p Flag.
int64_t flagInteger(const char *Flag, std::string_view Text,
                    int64_t Lo = std::numeric_limits<int64_t>::min(),
                    int64_t Hi = std::numeric_limits<int64_t>::max()) {
  std::string Error;
  std::optional<int64_t> Value = hotg::parseInteger(Text, Lo, Hi, Error);
  if (!Value)
    usageError(formatString("%s %s", Flag, Error.c_str()).c_str());
  return *Value;
}

std::vector<int64_t> parseCells(const char *Flag, const char *Spec) {
  std::vector<int64_t> Cells;
  for (const std::string &Part : split(Spec, ','))
    Cells.push_back(flagInteger(Flag, Part));
  return Cells;
}

/// The driver proper; main() wraps this in a catch-all so unexpected
/// exceptions (including injected faults that escape the recovery paths)
/// map to exit code 3 instead of std::terminate.
int runTool(int Argc, char **Argv) {
  if (Argc < 2)
    usageError("missing input file");

  const char *Path = nullptr;
  app::JobSpec Spec;
  bool DumpTests = false, DumpPc = false, Summarize = false;
  bool PrintStats = false;
  uint64_t DeadlineMs = 0;
  uint64_t ProgressMs = 0;
  std::string SamplesIn, SamplesOut, StatsJsonPath, TracePath, FaultSpec;

  for (int I = 1; I != Argc; ++I) {
    const char *Flag = Argv[I];
    auto Is = [&](const char *Name) { return !std::strcmp(Flag, Name); };
    auto NextArg = [&]() -> const char * {
      if (I + 1 >= Argc)
        usageError(formatString("%s requires an argument", Flag).c_str());
      return Argv[++I];
    };
    auto NextCount = [&] {
      return static_cast<unsigned>(flagInteger(
          Flag, NextArg(), 0, std::numeric_limits<unsigned>::max()));
    };
    auto NextMillis = [&] {
      return static_cast<uint64_t>(flagInteger(Flag, NextArg(), 1));
    };
    if (Is("--entry"))
      Spec.Entry = NextArg();
    else if (Is("--policy"))
      Spec.Policy = NextArg();
    else if (Is("--max-tests"))
      Spec.MaxTests = NextCount();
    else if (Is("--multistep"))
      Spec.MultiStep = NextCount();
    else if (Is("--input"))
      Spec.Input = parseCells(Flag, NextArg());
    else if (Is("--seed-input"))
      Spec.SeedInputs.push_back(parseCells(Flag, NextArg()));
    else if (Is("--seed"))
      Spec.Seed = static_cast<uint64_t>(flagInteger(Flag, NextArg()));
    else if (Is("--samples-in"))
      SamplesIn = NextArg();
    else if (Is("--samples-out"))
      SamplesOut = NextArg();
    else if (Is("--explore-paths"))
      Spec.ExplorePaths = true;
    else if (Is("--summarize"))
      Summarize = true;
    else if (Is("--order"))
      Spec.Order = NextArg();
    else if (Is("--dump-tests"))
      DumpTests = true;
    else if (Is("--dump-pc"))
      DumpPc = true;
    else if (Is("--stats"))
      PrintStats = true;
    else if (Is("--stats-json"))
      StatsJsonPath = NextArg();
    else if (Is("--trace-out"))
      TracePath = NextArg();
    else if (Is("--progress-ms"))
      ProgressMs = NextMillis();
    else if (Is("--deadline-ms"))
      DeadlineMs = NextMillis();
    else if (Is("--fault-spec"))
      FaultSpec = NextArg();
    else if (Flag[0] == '-')
      usageError(formatString("unknown option '%s'", Flag).c_str());
    else if (Path)
      usageError("multiple input files");
    else
      Path = Flag;
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

  std::string Error;
  std::optional<app::Job> Job =
      app::Job::check(Spec, Buffer.str(), Path, Error);
  if (!Job) {
    std::fprintf(stderr, "hotg-run: %s\n", Error.c_str());
    return 1;
  }

  if (DumpPc)
    std::printf("=== AST ===\n%s\n", lang::dumpProgram(Job->program()).c_str());

  const InputLayout &Layout = Job->layout();
  std::printf("entry %s with %u input cell(s):", Job->entry().c_str(),
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

  app::JobHooks Hooks;
  Hooks.BeforeRun = [&](DirectedSearch &Search) {
    if (SamplesIn.empty())
      return true;
    std::ifstream In(SamplesIn);
    if (!In) {
      std::fprintf(stderr, "hotg-run: cannot open '%s'\n", SamplesIn.c_str());
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Err;
    if (!Search.importSamples(Buf.str(), &Err)) {
      std::fprintf(stderr, "hotg-run: %s: %s\n", SamplesIn.c_str(),
                   Err.c_str());
      return false;
    }
    std::printf("pre-loaded %zu IOF samples from %s\n",
                Search.samples().size(), SamplesIn.c_str());
    return true;
  };
  Hooks.AfterRun = [&](DirectedSearch &Search) {
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
  };

  SearchOptions Options = Job->options();
  Options.SummarizeCalls = Summarize;
  Options.ProgressEveryMs = ProgressMs;
  // Arm the deadline here, not at argument-parse time, so the budget
  // covers the search itself rather than file loading and parsing.
  if (DeadlineMs != 0)
    Options.Deadline = support::Deadline::afterMillis(DeadlineMs);
  std::optional<SearchResult> Ran = Job->run(std::move(Options), Hooks);
  if (!Ran)
    return 1;
  const SearchResult &Result = *Ran;

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
    bool SummaryMode = !Job->random() && Summarize;
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
  std::fputs(renderSearchReport(Spec.Policy, Result).c_str(), stdout);

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
