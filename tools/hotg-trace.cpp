//===- tools/hotg-trace.cpp - Trace analyzer ------------------------------------===//
//
// Offline analyzer for JSONL traces recorded with `hotg-run --trace-out`:
//
//   hotg-trace <command> <trace.jsonl> [options]
//
//   validate                 full event-schema check (kinds, field types,
//                            span pairing/nesting); exit 1 on violations
//   report                   per-phase time breakdown with self/child
//                            split, top-K slowest solver/validity queries
//                            with attribution, pruning/retry summaries
//     --top N                number of slowest queries (default 10)
//     --min-coverage P       exit 1 unless at least P percent of the
//                            search.run span is covered by child spans
//   chrome                   Chrome trace-event JSON of the span tree
//                            (loads in Perfetto / chrome://tracing)
//     -o FILE                output path (default stdout)
//   validate-chrome          structural check of a Chrome trace-event
//                            JSON file produced by `chrome`
//   tree                     DOT digraph of the explored search tree
//                            (test_run parent/child edges)
//     -o FILE                output path (default stdout)
//
// Exit codes: 0 = ok, 1 = usage error or validation/coverage failure.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"
#include "support/TraceAnalysis.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace hotg;

namespace {

[[noreturn]] void usageError(const char *Message) {
  std::fprintf(stderr, "hotg-trace: %s\n", Message);
  std::fprintf(stderr,
               "usage: hotg-trace validate|report|chrome|validate-chrome|"
               "tree <trace-file> [--top N] [--min-coverage P] [-o FILE]\n");
  std::exit(1);
}

trace::Trace loadOrDie(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "hotg-trace: cannot open '%s'\n", Path);
    std::exit(1);
  }
  return trace::loadTrace(In);
}

bool writeOutput(const std::string &Text, const char *OutPath) {
  if (!OutPath) {
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    return true;
  }
  std::ofstream Out(OutPath);
  if (!Out) {
    std::fprintf(stderr, "hotg-trace: cannot open '%s' for writing\n",
                 OutPath);
    return false;
  }
  Out << Text;
  return true;
}

int runTool(int Argc, char **Argv) {
  if (Argc < 3)
    usageError("expected a command and a trace file");
  const char *Command = Argv[1];
  const char *Path = Argv[2];
  unsigned TopK = 10;
  double MinCoverage = -1;
  const char *OutPath = nullptr;

  for (int I = 3; I != Argc; ++I) {
    auto NextArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc)
        usageError(formatString("%s requires an argument", Flag).c_str());
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--top"))
      TopK = static_cast<unsigned>(std::strtoul(NextArg("--top"), nullptr,
                                                10));
    else if (!std::strcmp(Argv[I], "--min-coverage"))
      MinCoverage = std::strtod(NextArg("--min-coverage"), nullptr);
    else if (!std::strcmp(Argv[I], "-o"))
      OutPath = NextArg("-o");
    else
      usageError(formatString("unknown option '%s'", Argv[I]).c_str());
  }

  if (!std::strcmp(Command, "validate")) {
    trace::Trace T = loadOrDie(Path);
    std::vector<std::string> Problems = trace::validateTrace(T);
    for (const std::string &P : Problems)
      std::fprintf(stderr, "hotg-trace: %s\n", P.c_str());
    std::printf("%zu events, %zu problems\n", T.Events.size(),
                Problems.size());
    return Problems.empty() ? 0 : 1;
  }

  if (!std::strcmp(Command, "report")) {
    trace::Trace T = loadOrDie(Path);
    trace::Report R = trace::buildReport(T, TopK);
    std::string Text = trace::renderReport(R);
    if (!writeOutput(Text, OutPath))
      return 1;
    if (MinCoverage >= 0) {
      if (!R.SearchWallNs) {
        std::fprintf(stderr, "hotg-trace: --min-coverage: no search.run "
                             "span in trace\n");
        return 1;
      }
      if (R.SpanCoverage * 100.0 < MinCoverage) {
        std::fprintf(stderr,
                     "hotg-trace: span coverage %.1f%% below required "
                     "%.1f%%\n",
                     R.SpanCoverage * 100.0, MinCoverage);
        return 1;
      }
    }
    return 0;
  }

  if (!std::strcmp(Command, "chrome")) {
    trace::Trace T = loadOrDie(Path);
    return writeOutput(trace::exportChromeTrace(T) + "\n", OutPath) ? 0 : 1;
  }

  if (!std::strcmp(Command, "validate-chrome")) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "hotg-trace: cannot open '%s'\n", Path);
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::vector<std::string> Problems =
        trace::validateChromeTrace(Buf.str());
    for (const std::string &P : Problems)
      std::fprintf(stderr, "hotg-trace: %s\n", P.c_str());
    std::printf("%zu problems\n", Problems.size());
    return Problems.empty() ? 0 : 1;
  }

  if (!std::strcmp(Command, "tree")) {
    trace::Trace T = loadOrDie(Path);
    return writeOutput(trace::exportSearchTreeDot(T), OutPath) ? 0 : 1;
  }

  usageError(formatString("unknown command '%s'", Command).c_str());
}

} // namespace

int main(int Argc, char **Argv) { return runTool(Argc, Argv); }
