//===- serve/SessionManager.cpp - Fault-contained search sessions ----------===//

#include "serve/SessionManager.h"

#include "app/Job.h"
#include "support/FaultInjector.h"
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
                                  std::string_view ImportedSamples) {
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
  return D.H;
}

//===----------------------------------------------------------------------===//
// Job execution
//===----------------------------------------------------------------------===//

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
  // fatal process errors). app::Job checks the job as hotg-run does.

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

  std::string Error;
  std::optional<app::Job> Job =
      app::Job::check(Request, Source, Request.Id, Error);
  if (!Job)
    return Reject(std::move(Error));

  const uint64_t DeadlineMs =
      Request.DeadlineMs ? Request.DeadlineMs : Config.DefaultDeadlineMs;

  // ShareSamples jobs warm-start from the fabric's table for this job
  // family (the epoch digest *without* imports — the family key stays
  // stable as the table itself grows). Only higher-order searches learn
  // samples, so only they publish, and only their family has a table.
  std::string ImportedSamples;
  uint64_t SampleKey = 0;
  app::JobHooks Hooks;
  if (Request.ShareSamples &&
      Job->options().Policy == dse::ConcretizationPolicy::HigherOrder) {
    SampleKey = epochFor(Request, Source, "");
    if (auto Entry = Fabric.lookupSamples(SampleKey)) {
      ImportedSamples = std::move(Entry->Text);
      Hooks.BeforeRun = [&](core::DirectedSearch &Search) {
        std::string Error;
        if (!Search.importSamples(ImportedSamples, &Error))
          // The fabric only stores what exportSamples produced, so this
          // is an internal inconsistency, not tenant input.
          throw std::runtime_error("sample import failed: " + Error);
        return true;
      };
    }
    Hooks.AfterRun = [&](core::DirectedSearch &Search) {
      Fabric.publishSamples(SampleKey, Search.exportSamples(),
                            Search.samples().size());
    };
  }
  const uint64_t Epoch = epochFor(Request, Source, ImportedSamples);

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

      core::SearchOptions Options = Job->options();
      if (DeadlineMs != 0)
        Options.Deadline = support::Deadline::afterMillis(DeadlineMs);
      Options.Cancel = Cancel;
      // A deadline-armed session races the wall clock, so its query
      // stream is not a pure function of the epoch: it keeps its reuse
      // within the session in a cache that dies with this attempt, and
      // no other session, nor a retry of this one, reads its answers.
      smt::QueryCache AttemptCache;
      Options.SharedCache = DeadlineMs != 0 ? &AttemptCache : &Fabric.cache();
      Options.CacheEpoch = Epoch;
      core::SearchResult Result = *Job->run(std::move(Options), Hooks);

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
