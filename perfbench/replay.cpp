//===- perfbench/replay.cpp - In-process closed-loop job replayer ------------===//
//
// Replays a generated job list against the public entry points of hotg —
// lang::parseAndCheck, core::DirectedSearch construction and run() — and
// writes every measurement as one JSON document. It adds no timers of its
// own inside the engine: per-layer numbers come from the exported telemetry
// registry and, in trace mode, from the span trace the engine already
// emits.
//
//   hotg-bench-replay JOBLIST.json RESULT.json
//   hotg-bench-replay --trace-report TRACE.jsonl RESULT.json
//
// The second form only analyses a span trace written by another process
// (the hotg-serve daemon): the same trace analysis trace mode appends to
// its result.
//
// JOBLIST.json (written by run.py):
//   programs      [source, ...]
//   jobs          [{id, program, entry, policy, max_tests, jobs,
//                   explore_paths, input, seed}, ...]
//   seconds       timed closed loop length (0 = warm-up pass only)
//   min_passes    keep looping past `seconds` until this many passes over
//                 the job list completed
//   max_seconds   hard cap on the timed loop
//   trace_path    when set: trace mode — pairs of one untraced and one
//                 traced pass over the job list, repeated for `seconds`,
//                 instead of the timed loop
//
// The set-up is repeated SetupReps times before the first job and again
// before every pass (untimed for the jobs), so its median samples the
// whole run rather than one instant of it. After the loop every job with
// jobs > 1 is re-run at jobs = 1 so its report can be compared byte for
// byte.
//
//===----------------------------------------------------------------------===//

#include "app/Examples.h"
#include "core/Search.h"
#include "interp/NativeFunc.h"
#include "lang/Parser.h"
#include "support/Diagnostics.h"
#include "support/JsonReader.h"
#include "support/JsonWriter.h"
#include "support/Telemetry.h"
#include "support/TraceAnalysis.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace hotg;

namespace {

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "hotg-bench-replay: %s\n", Message.c_str());
  std::exit(1);
}

uint64_t now() { return telemetry::monotonicNanos(); }

struct JobSpec {
  std::string Id;
  size_t Program = 0;
  std::string Entry;
  std::string Policy;
  unsigned MaxTests = 64;
  unsigned Jobs = 1;
  bool ExplorePaths = false;
  std::vector<int64_t> Input;
  uint64_t Seed = 42;
};

/// The one-off preparation every workload pays before its first job.
struct Prepared {
  std::vector<lang::Program> Programs;
  interp::NativeRegistry Natives;
  uint64_t ParseNs = 0;
};

struct Outcome {
  uint64_t Ns = 0;
  core::SearchResult Result;
  std::string Report;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot open '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::unique_ptr<Prepared> prepare(const std::vector<std::string> &Sources) {
  auto P = std::make_unique<Prepared>();
  app::registerExampleNatives(P->Natives);
  P->Programs.reserve(Sources.size());
  for (const std::string &Source : Sources) {
    uint64_t T0 = now();
    DiagnosticEngine Diags;
    std::optional<lang::Program> Prog = lang::parseAndCheck(Source, Diags);
    P->ParseNs += now() - T0;
    if (!Prog)
      die("job program failed to compile:\n" + Diags.render());
    P->Programs.push_back(std::move(*Prog));
  }
  return P;
}

dse::ConcretizationPolicy policyFor(const std::string &Name) {
  if (Name == "unsound")
    return dse::ConcretizationPolicy::Unsound;
  if (Name == "sound")
    return dse::ConcretizationPolicy::Sound;
  if (Name == "sound-delayed")
    return dse::ConcretizationPolicy::SoundDelayed;
  if (Name == "higher-order")
    return dse::ConcretizationPolicy::HigherOrder;
  die("unsupported policy '" + Name + "'");
}

Outcome runJob(const Prepared &P, const JobSpec &J, unsigned Jobs) {
  core::SearchOptions Options;
  Options.Policy = policyFor(J.Policy);
  Options.MaxTests = J.MaxTests;
  Options.Jobs = Jobs;
  Options.Seed = J.Seed;
  Options.SkipCoveredTargets = !J.ExplorePaths;
  if (!J.Input.empty()) {
    interp::TestInput Input;
    Input.Cells = J.Input;
    Options.InitialInput = std::move(Input);
  }
  Outcome Out;
  uint64_t T0 = now();
  {
    core::DirectedSearch Search(P.Programs[J.Program], P.Natives, J.Entry,
                                Options);
    Out.Result = Search.run();
  }
  Out.Ns = now() - T0;
  Out.Report = core::renderSearchReport(J.Policy, Out.Result);
  return Out;
}

constexpr unsigned SetupReps = 3;

/// Pins successive passes of a single-threaded loop to successive CPUs. On
/// a shared host each vCPU slows down in its own phases of several
/// seconds; a thread the scheduler leaves on one vCPU inherits that vCPU's
/// phase for the whole run, while rotating samples every vCPU. Disabled
/// when jobs run worker threads, which would inherit the pin.
class CpuPinning {
public:
  explicit CpuPinning(bool Enabled) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (Enabled && sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
        if (CPU_ISSET(Cpu, &Set))
          Cpus.push_back(Cpu);
  }
  void pin(size_t Pass) {
    if (Cpus.size() < 2)
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpus[Pass % Cpus.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }

private:
  std::vector<int> Cpus;
};

std::vector<JobSpec> decodeJobs(const json::Value &List, size_t NumPrograms) {
  std::vector<JobSpec> Jobs;
  for (const json::Value &V : List.asArray()) {
    JobSpec J;
    J.Id = std::string(V.getString("id"));
    J.Program = static_cast<size_t>(V.getInt("program"));
    J.Entry = std::string(V.getString("entry", "main"));
    J.Policy = std::string(V.getString("policy", "higher-order"));
    J.MaxTests = static_cast<unsigned>(V.getInt("max_tests", 64));
    J.Jobs = static_cast<unsigned>(V.getInt("jobs", 1));
    J.Seed = static_cast<uint64_t>(V.getInt("seed", 42));
    if (const json::Value *E = V.get("explore_paths"))
      J.ExplorePaths = E->asBool();
    if (const json::Value *In = V.get("input"))
      for (const json::Value &Cell : In->asArray())
        J.Input.push_back(Cell.asInt());
    if (J.Program >= NumPrograms || J.Jobs == 0)
      die("malformed job '" + J.Id + "'");
    Jobs.push_back(std::move(J));
  }
  if (Jobs.empty())
    die("empty job list");
  return Jobs;
}

void writeResult(JsonWriter &W, const Outcome &O) {
  const core::SearchResult &R = O.Result;
  W.beginObject();
  W.key("ns");
  W.value(O.Ns);
  W.key("report");
  W.value(O.Report);
  W.key("tests");
  W.value(uint64_t(R.testsRun()));
  W.key("covered");
  W.value(uint64_t(R.Cov.coveredDirections()));
  W.key("total");
  W.value(uint64_t(R.Cov.totalDirections()));
  W.key("degraded");
  W.value(core::searchDegraded(R));
  W.key("solver_calls");
  W.value(uint64_t(R.SolverCalls));
  W.key("validity_calls");
  W.value(uint64_t(R.ValidityCalls));
  W.key("bugs");
  W.beginArray();
  for (const core::BugRecord &B : R.Bugs) {
    W.beginObject();
    W.key("status");
    W.value(interp::runStatusName(B.Status));
    W.key("message");
    W.value(B.Message);
    W.key("input");
    W.beginArray();
    for (int64_t Cell : B.Input.Cells)
      W.value(Cell);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

void writeNumbers(JsonWriter &W, std::string_view Key,
                  const std::vector<uint64_t> &Values) {
  W.key(Key);
  W.beginArray();
  for (uint64_t V : Values)
    W.value(V);
  W.endArray();
}

/// The benchmark's reading of one span trace, as a JSON object:
///   trace_errors     schema and pairing violations (trace::validateTrace)
///   phases           {name: {count, total_ns, self_ns}} from
///                    trace::buildReport, the `hotg-trace report` numbers
///   roots            {name: {count, total_ns}} of the parentless spans
///   nesting_errors   spans outside their parent's interval, or whose
///                    direct children cover more than their own duration
///                    (buildReport clamps such a self time at zero, so the
///                    layer times would no longer add up)
///   solver_check_ns  the duration of every solver.check span
///   solved_queries   validity.check spans plus solver.check spans outside
///                    validity.check: the queries a session solved itself
void writeTraceAnalysis(JsonWriter &W, const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot open '" + Path + "'");
  trace::Trace T = trace::loadTrace(In);
  const std::vector<std::string> Errors = trace::validateTrace(T);
  const trace::Report R = trace::buildReport(T, 0);
  const trace::SpanForest F = trace::buildSpans(T);

  std::map<std::string, std::pair<uint64_t, uint64_t>> Roots;
  for (size_t Index : F.Roots) {
    auto &[Count, TotalNs] = Roots[F.Nodes[Index].Name];
    ++Count;
    TotalNs += F.Nodes[Index].durationNs();
  }
  uint64_t NestingErrors = 0, ValidityChecks = 0, ChecksInValidity = 0;
  std::vector<uint64_t> CheckNs;
  for (const trace::SpanNode &N : F.Nodes) {
    uint64_t ChildNs = 0;
    for (size_t Index : N.Children) {
      const trace::SpanNode &Child = F.Nodes[Index];
      ChildNs += Child.durationNs();
      if (Child.StartNs < N.StartNs || Child.EndNs > N.EndNs)
        ++NestingErrors;
      if (N.Name == "validity.check" && Child.Name == "solver.check")
        ++ChecksInValidity;
    }
    if (ChildNs > N.durationNs())
      ++NestingErrors;
    if (N.Name == "solver.check")
      CheckNs.push_back(N.durationNs());
    else if (N.Name == "validity.check")
      ++ValidityChecks;
  }

  W.beginObject();
  W.key("trace_errors");
  W.value(uint64_t(Errors.size()));
  W.key("phases");
  W.beginObject();
  for (const trace::PhaseRow &Row : R.Phases) {
    W.key(Row.Name);
    W.beginObject();
    W.key("count");
    W.value(Row.Count);
    W.key("total_ns");
    W.value(Row.TotalNs);
    W.key("self_ns");
    W.value(Row.SelfNs);
    W.endObject();
  }
  W.endObject();
  W.key("roots");
  W.beginObject();
  for (const auto &[Name, Root] : Roots) {
    W.key(Name);
    W.beginObject();
    W.key("count");
    W.value(Root.first);
    W.key("total_ns");
    W.value(Root.second);
    W.endObject();
  }
  W.endObject();
  W.key("nesting_errors");
  W.value(NestingErrors);
  writeNumbers(W, "solver_check_ns", CheckNs);
  W.key("solved_queries");
  W.value(uint64_t(ValidityChecks + CheckNs.size() - ChecksInValidity));
  W.endObject();
}

void writeFile(const char *Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  if (!Out)
    die(std::string("cannot write '") + Path + "'");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 4 && std::string_view(Argv[1]) == "--trace-report") {
    std::string Out;
    JsonWriter W(Out);
    writeTraceAnalysis(W, Argv[2]);
    writeFile(Argv[3], Out + "\n");
    return 0;
  }
  if (Argc != 3)
    die("usage: hotg-bench-replay JOBLIST.json RESULT.json\n"
        "       hotg-bench-replay --trace-report TRACE.jsonl RESULT.json");
  json::ParseResult Doc = json::parse(readFile(Argv[1]));
  if (!Doc)
    die("job list: " + Doc.error());

  std::vector<std::string> Sources;
  for (const json::Value &V : Doc->get("programs")->asArray())
    Sources.push_back(V.asString());
  std::vector<JobSpec> Jobs = decodeJobs(*Doc->get("jobs"), Sources.size());
  const double Seconds = Doc->get("seconds")->asDouble();
  const uint64_t MinPasses = Doc->getInt("min_passes", 1);
  const double MaxSeconds = Doc->get("max_seconds")->asDouble();
  const std::string TracePath(Doc->getString("trace_path"));
  CpuPinning Pinning(std::all_of(Jobs.begin(), Jobs.end(),
                                 [](const JobSpec &J) { return J.Jobs == 1; }));

  std::string Out;
  JsonWriter W(Out);
  W.beginObject();

  // Set-up: every repetition parses and checks all job programs and
  // registers the natives from scratch; the last initial one is kept.
  std::vector<uint64_t> SetupNs, ParseNs;
  auto SetUp = [&] {
    std::unique_ptr<Prepared> P;
    for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
      P.reset();
      uint64_t T0 = now();
      P = prepare(Sources);
      SetupNs.push_back(now() - T0);
      ParseNs.push_back(P->ParseNs);
    }
    return P;
  };
  std::unique_ptr<Prepared> P = SetUp();

  // Warm-up pass, untimed: fills lazy state and records the reference
  // outcome of every job for the output checks.
  std::vector<Outcome> Reference;
  for (const JobSpec &J : Jobs)
    Reference.push_back(runJob(*P, J, J.Jobs));
  W.key("results");
  W.beginArray();
  for (const Outcome &O : Reference)
    writeResult(W, O);
  W.endArray();

  telemetry::Registry &Reg = telemetry::Registry::global();
  Reg.reset();
  uint64_t Mismatches = 0;
  auto RunChecked = [&](size_t Index) {
    Outcome O = runJob(*P, Jobs[Index], Jobs[Index].Jobs);
    if (O.Report != Reference[Index].Report)
      ++Mismatches;
    return O;
  };

  if (TracePath.empty()) {
    // The timed closed loop: one client, the next job starts when the
    // previous one returned; whole passes over the job list are replayed.
    std::vector<uint64_t> SampleJob, SampleNs, SampleTests, SamplePass;
    const uint64_t Start = now();
    for (uint64_t Pass = 0;; ++Pass) {
      uint64_t Elapsed = now() - Start;
      if ((Elapsed >= Seconds * 1e9 && Pass >= MinPasses) ||
          Elapsed >= MaxSeconds * 1e9)
        break;
      Pinning.pin(Pass);
      SetUp();
      for (size_t Index = 0; Index != Jobs.size(); ++Index) {
        Outcome O = RunChecked(Index);
        SampleJob.push_back(Index);
        SampleNs.push_back(O.Ns);
        SampleTests.push_back(O.Result.testsRun());
        SamplePass.push_back(Pass);
      }
    }
    writeNumbers(W, "sample_job", SampleJob);
    writeNumbers(W, "sample_ns", SampleNs);
    writeNumbers(W, "sample_tests", SampleTests);
    writeNumbers(W, "sample_pass", SamplePass);
  } else {
    // Trace mode: alternating untraced and traced passes over the job
    // list; the trace sink is installed only around the traced ones.
    std::ofstream TraceFile(TracePath);
    if (!TraceFile)
      die("cannot open '" + TracePath + "'");
    telemetry::JsonlTraceSink Sink(TraceFile);
    std::vector<uint64_t> UntracedNs, TracedNs;
    const uint64_t TraceStart = now();
    uint64_t Pair = 0;
    do {
      Pinning.pin(Pair++);
      SetUp();
      for (bool Traced : {false, true}) {
        std::optional<telemetry::ScopedSink> Scope;
        if (Traced)
          Scope.emplace(&Sink);
        for (size_t Index = 0; Index != Jobs.size(); ++Index)
          (Traced ? TracedNs : UntracedNs).push_back(RunChecked(Index).Ns);
      }
    } while (now() - TraceStart < Seconds * 1e9);
    TraceFile.close();
    writeNumbers(W, "untraced_job_ns", UntracedNs);
    writeNumbers(W, "traced_job_ns", TracedNs);
    W.key("trace");
    writeTraceAnalysis(W, TracePath);
  }
  W.key("mismatches");
  W.value(Mismatches);
  // Counters of the measured passes only, before the checks below add to
  // them.
  const std::string Registry = Reg.statsJson();

  // Outside every timed region: the same jobs at jobs = 1.
  W.key("serial");
  W.beginArray();
  for (size_t Index = 0; Index != Jobs.size(); ++Index)
    if (Jobs[Index].Jobs != 1) {
      W.beginObject();
      W.key("job");
      W.value(uint64_t(Index));
      W.key("report");
      W.value(runJob(*P, Jobs[Index], 1).Report);
      W.endObject();
    }
  W.endArray();

  writeNumbers(W, "setup_ns", SetupNs);
  writeNumbers(W, "parse_ns", ParseNs);
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  W.key("peak_rss_kb");
  W.value(int64_t(Usage.ru_maxrss));
  // The registry's own JSON rendering is spliced in as the last member.
  W.key("registry");
  Out += Registry;
  Out += "}\n";

  writeFile(Argv[2], Out);
  return 0;
}
