//===- serve/SessionManager.cpp - Fault-contained search sessions ----------===//

#include "serve/SessionManager.h"

#include "app/Examples.h"
#include "core/Search.h"
#include "lang/Parser.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

using namespace hotg;
using namespace hotg::serve;

//===----------------------------------------------------------------------===//
// SharedFabric
//===----------------------------------------------------------------------===//

std::optional<SharedFabric::SampleEntry>
SharedFabric::lookupSamples(uint64_t SampleKey) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Samples.find(SampleKey);
  if (It == Samples.end())
    return std::nullopt;
  return It->second;
}

void SharedFabric::publishSamples(uint64_t SampleKey, std::string Text,
                                  uint64_t Generation) {
  std::lock_guard<std::mutex> Lock(Mutex);
  SampleEntry &E = Samples[SampleKey];
  // Generation-keyed eviction: the larger table strictly extends the
  // smaller one (append-only growth from a shared prefix of runs), so the
  // superseded entry is dropped, never merged.
  if (Generation >= E.Generation) {
    E.Text = std::move(Text);
    E.Generation = Generation;
  }
}

size_t SharedFabric::sampleTables() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Samples.size();
}

//===----------------------------------------------------------------------===//
// Epoch digest
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a 64; good enough for an epoch discriminator (a collision would
/// need two different configs *and* colliding query fingerprints to
/// produce a wrong answer).
struct Digest {
  uint64_t H = 1469598103934665603ull;
  void bytes(std::string_view S) {
    for (char C : S) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ull;
    }
    field(); // Separate fields so ("ab","c") != ("a","bc").
  }
  void num(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (V >> (I * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void field() { num(0x1f); }
};

} // namespace

uint64_t SessionManager::epochFor(const JobRequest &Request,
                                  std::string_view ResolvedSource,
                                  std::string_view ImportedSamples,
                                  uint64_t DeadlineMs) {
  // Every field that influences the search's query stream. The digest
  // covers the *resolved* program text, never ProgramPath: a file edited
  // under --program-root while the daemon runs must split the epoch, and
  // two requests naming the same bytes (inline vs. by path) run identical
  // query streams.
  Digest D;
  D.bytes(ResolvedSource);
  D.bytes(Request.Entry);
  D.bytes(Request.Policy);
  D.bytes(Request.Order);
  D.num(Request.MaxTests);
  D.num(Request.MultiStep);
  D.num(Request.Seed);
  D.num(Request.ExplorePaths ? 1 : 0);
  D.num(Request.Input ? 1 + Request.Input->size() : 0);
  if (Request.Input)
    for (int64_t Cell : *Request.Input)
      D.num(static_cast<uint64_t>(Cell));
  D.num(Request.SeedInputs.size());
  for (const auto &Row : Request.SeedInputs) {
    D.num(Row.size());
    for (int64_t Cell : Row)
      D.num(static_cast<uint64_t>(Cell));
  }
  D.bytes(ImportedSamples);
  if (DeadlineMs != 0) {
    // Deadline-armed sessions race the wall clock; their query streams are
    // not a pure function of the config, so they never share an epoch.
    D.num(DeadlineMs);
    D.num(UniqueEpochCounter.fetch_add(1, std::memory_order_relaxed));
  }
  return D.H;
}

//===----------------------------------------------------------------------===//
// Job execution
//===----------------------------------------------------------------------===//

namespace {

struct PolicySpec {
  bool Random = false;
  dse::ConcretizationPolicy Policy = dse::ConcretizationPolicy::HigherOrder;
};

std::optional<PolicySpec> parsePolicy(std::string_view Name) {
  PolicySpec S;
  if (Name == "random") {
    S.Random = true;
    return S;
  }
  if (Name == "unsound")
    S.Policy = dse::ConcretizationPolicy::Unsound;
  else if (Name == "sound")
    S.Policy = dse::ConcretizationPolicy::Sound;
  else if (Name == "sound-delayed")
    S.Policy = dse::ConcretizationPolicy::SoundDelayed;
  else if (Name == "higher-order")
    S.Policy = dse::ConcretizationPolicy::HigherOrder;
  else
    return std::nullopt;
  return S;
}

} // namespace

JobResponse SessionManager::runJob(const JobRequest &Request, uint64_t Frame,
                                   support::CancelToken Cancel) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  const uint64_t StartNs = telemetry::monotonicNanos();
  JobResponse Resp;
  Resp.Id = Request.Id;

  auto Finish = [&](JobResponse &R) -> JobResponse {
    uint64_t ElapsedNs = telemetry::monotonicNanos() - StartNs;
    R.ElapsedMs = ElapsedNs / 1'000'000;
    Reg.timer("serve.job").note(ElapsedNs);
    Reg.histogram("serve.job").note(ElapsedNs);
    return std::move(R);
  };
  auto Reject = [&](std::string Reason) {
    Resp.Status = JobStatus::Rejected;
    Resp.Reason = std::move(Reason);
    Reg.counter("serve.jobs_rejected_invalid").add();
    return Finish(Resp);
  };

  // ---- Pre-admission validation: nothing below may reach the engine
  // layers malformed (core::DirectedSearch treats bad entries/inputs as
  // fatal process errors — acceptable for a CLI, never for a daemon).

  std::string Source = Request.Program;
  if (!Request.ProgramPath.empty()) {
    if (Config.ProgramRoot.empty())
      return Reject("program_path requires a server --program-root");
    if (Request.ProgramPath.front() == '/' ||
        Request.ProgramPath.find("..") != std::string::npos)
      return Reject("program_path must be relative without '..'");
    std::ifstream File(Config.ProgramRoot + "/" + Request.ProgramPath);
    if (!File)
      return Reject("cannot open program_path '" + Request.ProgramPath + "'");
    std::ostringstream Buffer;
    Buffer << File.rdbuf();
    Source = Buffer.str();
  }

  std::optional<PolicySpec> Policy = parsePolicy(Request.Policy);
  if (!Policy)
    return Reject("unknown policy '" + Request.Policy +
                  "' (want unsound|sound|sound-delayed|higher-order|random)");
  if (Request.Order != "bfs" && Request.Order != "dfs")
    return Reject("unknown order '" + Request.Order + "' (want bfs|dfs)");

  DiagnosticEngine Diags;
  std::optional<lang::Program> Prog = lang::parseAndCheck(Source, Diags);
  if (!Prog)
    return Reject("parse error: " + Diags.render(Request.Id.c_str()));
  if (Prog->Functions.empty())
    return Reject("program has no functions");

  std::string Entry = Request.Entry;
  if (Entry.empty())
    Entry = Prog->findFunction("main") ? "main" : Prog->Functions.front()->Name;
  const lang::FunctionDecl *EntryFn = Prog->findFunction(Entry);
  if (!EntryFn)
    return Reject("no function named '" + Entry + "'");

  interp::NativeRegistry Natives;
  app::registerExampleNatives(Natives);
  for (const lang::ExternDecl &Ext : Prog->Externs)
    if (!Natives.find(Ext.Name))
      return Reject("extern '" + Ext.Name + "' has no native binding");

  interp::InputLayout Layout(*EntryFn);
  if (Request.Input && Request.Input->size() != Layout.size())
    return Reject(formatString("input has %zu cells, entry '%s' takes %u",
                               Request.Input->size(), Entry.c_str(),
                               Layout.size()));
  for (const auto &Row : Request.SeedInputs)
    if (Row.size() != Layout.size())
      return Reject(formatString(
          "seed input has %zu cells, entry '%s' takes %u", Row.size(),
          Entry.c_str(), Layout.size()));

  const uint64_t DeadlineMs =
      Request.DeadlineMs ? Request.DeadlineMs : Config.DefaultDeadlineMs;

  // ShareSamples jobs warm-start from the fabric's table for this job
  // family (the epoch digest *without* imports or deadline salt — the
  // family key stays stable as the table itself grows).
  std::string ImportedSamples;
  uint64_t SampleKey = 0;
  if (Request.ShareSamples && !Policy->Random) {
    SampleKey = epochFor(Request, Source, "", 0);
    if (auto Entry = Fabric.lookupSamples(SampleKey))
      ImportedSamples = std::move(Entry->Text);
  }

  // ---- The attempt loop: run, and on a transient failure back off and
  // re-run with a fresh session (the throwing DirectedSearch — arena,
  // engine, solver contexts — is completely destroyed by scope exit,
  // which is the quarantine teardown).

  unsigned Retries = 0;
  for (;;) {
    FailureKind Kind;
    std::string What;
    try {
      // Fault site: a session that dies before (or while) constructing
      // its search — the protocol-level transient failure CI exercises.
      // Keyed by (frame, attempt), so a retry draws afresh.
      {
        support::FaultScope Scope(Frame, Retries);
        support::maybeInjectFault(support::FaultSite::SessionSpawn);
      }

      // Per-attempt epoch: deadline-armed streams are clock-dependent, so
      // a retried attempt must not consume validity entries published by
      // its aborted predecessor — the fresh salt guarantees it. Without a
      // deadline the digest is pure, identical across attempts.
      const uint64_t Epoch =
          epochFor(Request, Source, ImportedSamples, DeadlineMs);

      support::Deadline Deadline;
      if (DeadlineMs != 0)
        Deadline = support::Deadline::afterMillis(DeadlineMs);

      core::SearchResult Result;
      if (Policy->Random) {
        interp::RunLimits Limits;
        Limits.Deadline = Deadline;
        Limits.Cancel = Cancel;
        Result = core::runRandomSearch(*Prog, Natives, Entry,
                                       Request.MaxTests, 0, 99, Request.Seed,
                                       Limits);
      } else {
        core::SearchOptions Options;
        Options.Policy = Policy->Policy;
        Options.MaxTests = Request.MaxTests;
        Options.MultiStepBound = Request.MultiStep;
        Options.Seed = Request.Seed;
        if (Request.Input) {
          interp::TestInput Initial;
          Initial.Cells = *Request.Input;
          Options.InitialInput = std::move(Initial);
        }
        for (const auto &Row : Request.SeedInputs) {
          interp::TestInput Seed;
          Seed.Cells = Row;
          Options.SeedInputs.push_back(std::move(Seed));
        }
        Options.SkipCoveredTargets = !Request.ExplorePaths;
        Options.Order = Request.Order == "dfs"
                            ? core::SearchOptions::OrderKind::DepthFirst
                            : core::SearchOptions::OrderKind::BreadthFirst;
        Options.Deadline = Deadline;
        Options.Cancel = Cancel;
        Options.SharedCache = &Fabric.cache();
        Options.CacheEpoch = Epoch;

        core::DirectedSearch Search(*Prog, Natives, Entry, Options);
        if (!ImportedSamples.empty()) {
          std::string Error;
          if (!Search.importSamples(ImportedSamples, &Error))
            // The fabric only stores what exportSamples produced, so this
            // is an internal inconsistency, not tenant input.
            throw std::runtime_error("sample import failed: " + Error);
        }
        Result = Search.run();
        if (Request.ShareSamples &&
            Policy->Policy == dse::ConcretizationPolicy::HigherOrder)
          Fabric.publishSamples(SampleKey, Search.exportSamples(),
                                Search.samples().size());
        // Generation-keyed eviction: answers below this session's final
        // generation can only be re-hit by a same-epoch session that is
        // still behind — which would recompute identical answers anyway.
        size_t Evicted = Fabric.cache().evictGenerationsBelow(
            Epoch, Search.samples().size());
        if (Evicted)
          Reg.counter("serve.cache_evicted").add(Evicted);
      }

      Resp.Retries = Retries;
      Resp.Tests = Result.testsRun();
      Resp.CoveredDirections = Result.Cov.coveredDirections();
      Resp.TotalDirections = Result.Cov.totalDirections();
      Resp.Divergences = Result.Divergences;
      Resp.Bugs = static_cast<unsigned>(Result.Bugs.size());
      Resp.Output = core::renderSearchReport(Request.Policy, Result);
      Resp.Status = core::searchDegraded(Result) ? JobStatus::Degraded
                    : Result.Bugs.empty()        ? JobStatus::Ok
                                                 : JobStatus::Bugs;
      Reg.counter("serve.jobs_completed").add();
      return Finish(Resp);
    } catch (const support::FaultInjected &E) {
      Kind = FailureKind::Injected;
      What = E.what();
    } catch (const std::exception &E) {
      Kind = FailureKind::Exception;
      What = E.what();
    } catch (...) {
      Kind = FailureKind::Unknown;
      What = "non-standard exception";
    }

    Reg.counter(std::string("serve.session_failures.") +
                failureKindName(Kind))
        .add();
    if (isTransientFailure(Kind) && Retries < Config.Retry.MaxRetries) {
      uint64_t BackoffMs = Config.Retry.backoffMs(Retries);
      ++Retries;
      Reg.counter("serve.jobs_retried").add();
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
      continue;
    }

    // Quarantine: the session's state died with its scope; the job is
    // answered with a structured error and never re-run.
    Resp.Status = JobStatus::Error;
    Resp.Reason = std::string(failureKindName(Kind)) + ": " + What;
    Resp.Quarantined = true;
    Resp.Retries = Retries;
    Reg.counter("serve.jobs_quarantined").add();
    return Finish(Resp);
  }
}
