//===- tools/hotg-serve.cpp - Multi-tenant test-generation daemon -----------===//
//
// Serves test-generation jobs over the length-prefixed JSONL protocol of
// docs/serving.md:
//
//   hotg-serve [options]                 read frames from stdin (batch mode)
//   hotg-serve --socket PATH [options]   accept connections on a Unix socket
//
//   --workers N          session worker threads (default 2, at most 256);
//                        each runs one single-threaded search at a time
//   --queue-capacity N   admission-gate bound: jobs queued or running
//                        before new ones are shed (default 8)
//   --deadline-ms N      default per-job deadline applied when a request
//                        carries none (default 0 = unbounded)
//   --max-retries N      bounded retry budget for transiently-failed
//                        sessions (default 2)
//   --backoff-ms N       base of the exponential retry backoff (default 10)
//   --program-root DIR   directory program_path requests resolve under
//                        (default: inline programs only)
//   --max-frame-bytes N  reject request frames larger than N (default 4 MiB)
//   --stats              print the telemetry table and the stream summary
//                        to stderr on exit
//   --stats-json F       write the telemetry registry as JSON to F
//   --trace-out F        write a JSONL trace to F (docs/observability.md)
//   --fault-spec S       arm the deterministic fault injector, e.g.
//                        "serve.session-spawn:0.5:7"; overrides
//                        HOTG_FAULT_SPEC
//
// Signals: the first SIGTERM/SIGINT drains (no new frames; every admitted
// job is finished and answered), a second one additionally cancels
// in-flight sessions, which then answer with degraded partial results.
// Either way no accepted frame goes unanswered.
//
// Exit codes: 0 = served and drained cleanly, 1 = usage or setup error,
// 3 = internal error.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>

#include <csignal>

using namespace hotg;

namespace {

/// Upper bound of --workers: each worker is one OS thread running one
/// search, so a larger count only oversubscribes the host.
constexpr int64_t MaxWorkers = 256;

[[noreturn]] void usageError(const char *Message) {
  std::fprintf(stderr, "hotg-serve: %s\n", Message);
  std::fprintf(stderr,
               "usage: hotg-serve [--socket PATH] [--workers N] "
               "[--queue-capacity N] [--deadline-ms N] "
               "[--max-retries N] [--backoff-ms N] [--program-root DIR] "
               "[--max-frame-bytes N] [--stats] [--stats-json F] "
               "[--trace-out F] [--fault-spec site:prob:seed[,...]]\n");
  std::exit(1);
}

/// Signal trampoline state: the handler only flips atomics on the live
/// server (requestDrain / cancelInFlight are async-signal-safe stores).
serve::Server *ActiveServer = nullptr;
std::atomic<int> SignalCount{0};

void onTerminate(int) {
  int Count = SignalCount.fetch_add(1, std::memory_order_relaxed);
  if (!ActiveServer)
    return;
  ActiveServer->requestDrain();
  if (Count >= 1)
    ActiveServer->cancelInFlight();
}

int runTool(int Argc, char **Argv) {
  serve::ServerOptions Options;
  std::string SocketPath, StatsJsonPath, TracePath, FaultSpec;
  bool PrintStats = false;

  constexpr int64_t AnyCount = std::numeric_limits<unsigned>::max();
  constexpr int64_t Int64Max = std::numeric_limits<int64_t>::max();
  for (int I = 1; I != Argc; ++I) {
    auto NextArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc)
        usageError(formatString("%s requires an argument", Flag).c_str());
      return Argv[++I];
    };
    auto NextInteger = [&](const char *Flag, int64_t Lo, int64_t Hi) {
      std::string Error;
      std::optional<int64_t> Value =
          parseInteger(NextArg(Flag), Lo, Hi, Error);
      if (!Value)
        usageError(formatString("%s %s", Flag, Error.c_str()).c_str());
      return static_cast<uint64_t>(*Value);
    };
    if (!std::strcmp(Argv[I], "--socket"))
      SocketPath = NextArg("--socket");
    else if (!std::strcmp(Argv[I], "--workers"))
      Options.Workers =
          static_cast<unsigned>(NextInteger("--workers", 1, MaxWorkers));
    else if (!std::strcmp(Argv[I], "--queue-capacity"))
      Options.QueueCapacity = static_cast<unsigned>(
          NextInteger("--queue-capacity", 1, AnyCount));
    else if (!std::strcmp(Argv[I], "--deadline-ms"))
      Options.Session.DefaultDeadlineMs =
          NextInteger("--deadline-ms", 0, Int64Max);
    else if (!std::strcmp(Argv[I], "--max-retries"))
      Options.Session.Retry.MaxRetries =
          static_cast<unsigned>(NextInteger("--max-retries", 0, AnyCount));
    else if (!std::strcmp(Argv[I], "--backoff-ms"))
      Options.Session.Retry.BaseBackoffMs =
          NextInteger("--backoff-ms", 0, Int64Max);
    else if (!std::strcmp(Argv[I], "--program-root"))
      Options.Session.ProgramRoot = NextArg("--program-root");
    else if (!std::strcmp(Argv[I], "--max-frame-bytes"))
      Options.Frame.MaxFrameBytes =
          static_cast<size_t>(NextInteger("--max-frame-bytes", 1, Int64Max));
    else if (!std::strcmp(Argv[I], "--stats"))
      PrintStats = true;
    else if (!std::strcmp(Argv[I], "--stats-json"))
      StatsJsonPath = NextArg("--stats-json");
    else if (!std::strcmp(Argv[I], "--trace-out"))
      TracePath = NextArg("--trace-out");
    else if (!std::strcmp(Argv[I], "--fault-spec"))
      FaultSpec = NextArg("--fault-spec");
    else
      usageError(formatString("unknown option '%s'", Argv[I]).c_str());
  }

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

  std::ofstream TraceFile;
  std::unique_ptr<telemetry::JsonlTraceSink> Trace;
  if (!TracePath.empty()) {
    TraceFile.open(TracePath);
    if (!TraceFile) {
      std::fprintf(stderr, "hotg-serve: cannot open '%s' for writing\n",
                   TracePath.c_str());
      return 1;
    }
    Trace = std::make_unique<telemetry::JsonlTraceSink>(TraceFile);
    telemetry::setSink(Trace.get());
  }

  serve::Server Daemon(Options);
  ActiveServer = &Daemon;

  // No SA_RESTART: a SIGTERM interrupting the blocking stdin read makes
  // the stream fail, which the frame loop treats as end-of-stream — the
  // drain takes effect at the frame boundary instead of after the next
  // (possibly never-arriving) frame.
  struct sigaction Action {};
  Action.sa_handler = onTerminate;
  sigemptyset(&Action.sa_mask);
  Action.sa_flags = 0;
  sigaction(SIGTERM, &Action, nullptr);
  sigaction(SIGINT, &Action, nullptr);

  serve::ServerStats Stats;
  if (!SocketPath.empty()) {
    std::string Error;
    if (!Daemon.serveUnixSocket(SocketPath, Stats, Error)) {
      std::fprintf(stderr, "hotg-serve: %s\n", Error.c_str());
      ActiveServer = nullptr;
      return 1;
    }
  } else {
    Stats = Daemon.serveStream(std::cin, std::cout);
  }
  ActiveServer = nullptr;

  telemetry::setSink(nullptr);
  if (PrintStats) {
    telemetry::Registry &Reg = telemetry::Registry::global();
    std::fprintf(stderr, "%s", Reg.statsTable().c_str());
    std::fprintf(stderr,
                 "stream: %llu frames, %llu admitted, %llu shed, "
                 "%llu malformed, %llu responses%s\n",
                 (unsigned long long)Stats.FramesRead,
                 (unsigned long long)Stats.Admitted,
                 (unsigned long long)Stats.Shed,
                 (unsigned long long)Stats.RejectedMalformed,
                 (unsigned long long)Stats.Responses,
                 Stats.Drained ? " (drained)" : "");
    if (Injector)
      std::fprintf(stderr, "fault injection (per armed site):\n%s",
                   Injector->summary().c_str());
  }
  if (!StatsJsonPath.empty()) {
    std::ofstream StatsFile(StatsJsonPath);
    if (!StatsFile) {
      std::fprintf(stderr, "hotg-serve: cannot open '%s' for writing\n",
                   StatsJsonPath.c_str());
      return 1;
    }
    StatsFile << telemetry::Registry::global().statsJson() << "\n";
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    return runTool(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "hotg-serve: internal error: %s\n", E.what());
  } catch (...) {
    std::fprintf(stderr, "hotg-serve: internal error\n");
  }
  return 3;
}
