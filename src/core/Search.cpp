//===- core/Search.cpp - Directed search (DART / higher-order) -------------------===//

#include "core/Search.h"

#include "core/Post.h"
#include "smt/QueryCache.h"
#include "smt/SolverContext.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/Support.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <mutex>
#include <unordered_map>

using namespace hotg;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;

//===----------------------------------------------------------------------===//
// Parallel candidate evaluation (docs/parallelism.md)
//
// Workers keep private TermArena replicas that are *exact prefixes* of the
// main arena: the main thread publishes append-only ArenaDeltas at dispatch
// time, workers replay them in order, run the candidate's solver query
// against the replica, roll the replica back to its pre-query mark, and
// publish the answer into a shared QueryCache. An answer is published only
// when the query interned zero new atoms (variables, function symbols,
// IntVar/UFApp nodes) in the replica — solver behaviour depends on the
// relative TermId order of atoms and on nothing else id-related, so such an
// answer is provably identical to what the merge path would compute inline.
// Everything else is discarded and recomputed inline, which keeps the
// SearchResult bit-identical for every Jobs value.
//===----------------------------------------------------------------------===//

namespace {

/// Renders a model's variable assignment with arena-independent names.
std::vector<std::pair<std::string, int64_t>>
encodeModel(const smt::Model &M, const smt::TermArena &Arena) {
  std::vector<std::pair<std::string, int64_t>> Out;
  Out.reserve(M.varAssignments().size());
  for (const auto &[Var, Value] : M.varAssignments())
    Out.emplace_back(std::string(Arena.varName(Var)), Value);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Rebuilds a model from encoded name/value pairs. Every named variable
/// already exists in the consuming arena (models only assign variables of
/// the query formula, which lives in the shared prefix), so this never
/// interns anything new.
smt::Model decodeModel(
    const std::vector<std::pair<std::string, int64_t>> &Pairs,
    smt::TermArena &Arena) {
  smt::Model M;
  for (const auto &[Name, Value] : Pairs)
    M.setVar(Arena.getOrCreateVar(Name), Value);
  return M;
}

smt::PortableAnswer encodeSat(const smt::SatAnswer &Answer,
                              const smt::SolverStats &S,
                              const smt::TermArena &Arena) {
  smt::PortableAnswer PA;
  PA.Status = static_cast<uint8_t>(Answer.Result);
  PA.Model = encodeModel(Answer.ModelValue, Arena);
  PA.Checks = S.Checks;
  PA.SupportsExplored = S.SupportsExplored;
  PA.Decisions = S.Decisions;
  PA.Propagations = S.Propagations;
  return PA;
}

smt::PortableAnswer encodeValidity(const ValidityAnswer &Answer,
                                   const ValidityStats &S,
                                   const smt::TermArena &Arena) {
  smt::PortableAnswer PA;
  PA.Status = static_cast<uint8_t>(Answer.Status);
  PA.Model = encodeModel(Answer.ModelValue, Arena);
  PA.ValiditySupports = S.SupportsExplored;
  PA.GroundingsTried = S.GroundingsTried;
  PA.GroundingsPruned = S.GroundingsPruned;
  return PA;
}

} // namespace

struct DirectedSearch::ParallelState {
  explicit ParallelState(unsigned Jobs) : Workers(Jobs), Pool(Jobs) {}

  smt::QueryCache Cache;
  /// The cache jobs actually publish to / probe: &Cache for a classic
  /// private-cache search, or SearchOptions::SharedCache when the caller
  /// installed a cross-session cache (hotg-serve). Keyed by Epoch.
  smt::QueryCache *Active = &Cache;
  uint64_t Epoch = 0;
  /// True when Active is a caller-installed cross-session cache; Unknown
  /// answers are then never published (see the solveSat publish guard).
  bool SharedActive = false;

  /// Published arena history; appended by the main thread, replayed in
  /// order by workers. Entries are shared_ptr so late workers can still
  /// read deltas published long ago without copying.
  std::mutex DeltaMutex;
  std::vector<std::shared_ptr<const smt::ArenaDelta>> Deltas;
  /// Main-arena position covered by Deltas (main thread only).
  smt::ArenaMark Published;

  /// Immutable snapshot of the antecedent sample table, shared by every
  /// job dispatched at its generation (jobs hold the shared_ptr, so a
  /// refresh never invalidates running queries).
  std::shared_ptr<const smt::SampleTable> SampleSnap;
  uint64_t SnapGeneration = ~uint64_t(0);

  struct Worker {
    smt::TermArena Replica;   ///< Exact prefix of the main arena.
    size_t DeltasApplied = 0; ///< Index into Deltas (owning thread only).
    /// Set when a job threw mid-flight: the replica may no longer be an
    /// exact prefix (e.g. not truncated back to its pre-query mark), so
    /// the next job on this worker rebuilds it from the full delta stream
    /// before trusting it (docs/robustness.md).
    bool Broken = false;
    /// Persistent incremental context over the replica (owning thread
    /// only), retargeted per sat job; ALT queries flatten negated-literal
    /// first, so positional prefix sharing is incidental here — the point
    /// is avoiding per-job context construction (docs/solver.md). Dropped
    /// whenever a query interns replica terms, because the post-job
    /// truncation recycles those TermIds (see runJob).
    std::unique_ptr<smt::SolverContext> Ctx;
  };
  std::vector<Worker> Workers;

  /// Speculations in flight, by Candidate::Id (main thread only).
  std::unordered_map<uint64_t, std::future<void>> Inflight;

  /// Set by awaitSpeculation when the awaited job failed: the next inline
  /// computation for this candidate is the recovery retry and is counted
  /// as such (main thread only; cleared after each candidate).
  bool PendingInlineRetry = false;

  /// Declared last: its destructor drains the queue and joins the workers
  /// while the replicas, deltas and cache above are still alive.
  support::ThreadPool Pool;

  void runJob(unsigned W, smt::TermId Alt, smt::TermFingerprint Fp,
              uint64_t Gen, smt::QueryKind Kind,
              const smt::SolverOptions &SolverOpts,
              const ValidityOptions &VOpts,
              std::shared_ptr<const smt::SampleTable> Snap, uint64_t CandId,
              unsigned ParentTest);
};

void DirectedSearch::ParallelState::runJob(
    unsigned W, smt::TermId Alt, smt::TermFingerprint Fp, uint64_t Gen,
    smt::QueryKind Kind, const smt::SolverOptions &SolverOpts,
    const ValidityOptions &VOpts,
    std::shared_ptr<const smt::SampleTable> Snap, uint64_t CandId,
    unsigned ParentTest) {
  Worker &Me = Workers[W];
  // Worker spans root their own per-thread tree (span parent links never
  // cross threads); the attribution ties the queries back to the
  // candidate this job speculates for.
  telemetry::ScopedSpan Span("search.worker_job");
  telemetry::ScopedAttribution AttributionScope;
  telemetry::queryAttribution().Test = int64_t(ParentTest);
  telemetry::queryAttribution().Candidate = int64_t(CandId);
  telemetry::queryAttribution().Worker = int64_t(W);

  // A previous job on this worker threw mid-flight, so the replica cannot
  // be trusted as an exact prefix anymore. Rebuild it from scratch by
  // replaying the full delta stream (delta 0 starts from the empty arena),
  // and drop the context that referenced the old replica's TermIds.
  if (Me.Broken) {
    telemetry::ScopedSpan RebuildSpan("search.replica_rebuild");
    Me.Replica = smt::TermArena();
    Me.DeltasApplied = 0;
    Me.Ctx.reset();
    Me.Broken = false;
    telemetry::Registry::global().counter("search.replica_rebuilds").add();
  }

  try {
    // Catch the replica up to (at least) this job's publish point. Later
    // deltas are fine too: the arena is append-only and the query's root
    // was published, so extra unreachable terms cannot change the answer.
    std::vector<std::shared_ptr<const smt::ArenaDelta>> Pending;
    {
      std::lock_guard<std::mutex> Lock(DeltaMutex);
      Pending.assign(Deltas.begin() + Me.DeltasApplied, Deltas.end());
    }
    for (const auto &D : Pending) {
      // Fault site: before the delta lands, so an injected throw leaves
      // the replica consistent (merely stale) — the Broken rebuild is
      // still exercised, just never against a half-applied delta.
      support::maybeInjectFault(support::FaultSite::ArenaDelta);
      Me.Replica.applyDelta(*D);
      ++Me.DeltasApplied;
    }

    if (Active->contains(Fp, Gen, Kind, Epoch))
      return; // Another worker (or the merge path) already answered.

    smt::ArenaMark Mark = Me.Replica.mark();
    smt::PortableAnswer PA;
    bool Unfinished = false; // Unknown answer (may encode a deadline).
    if (Kind == smt::QueryKind::Satisfiability) {
      if (!Me.Ctx)
        Me.Ctx = std::make_unique<smt::SolverContext>(Me.Replica, SolverOpts);
      smt::SolverStats QS;
      smt::SatAnswer Answer = Me.Ctx->checkFormula(Alt, QS);
      Unfinished = Answer.Result == smt::SatResult::Unknown;
      PA = encodeSat(Answer, QS, Me.Replica);
    } else {
      ValiditySolver Validity(Me.Replica, *Snap, VOpts);
      ValidityAnswer Answer = Validity.checkPost(Alt);
      Unfinished = Answer.Status == ValidityStatus::Unknown;
      PA = encodeValidity(Answer, Validity.stats(), Me.Replica);
    }

    // Transferability gate: if the query interned any new atom, its answer
    // may depend on atom id order the merge-time main arena will not share
    // — discard it and let the merge path recompute inline. Likewise, an
    // Unknown computed while a stop control is armed may encode the
    // deadline (how far the search got before the clock ran out), which
    // the merge path must not consume as a definitive answer.
    bool StopArmed = SolverOpts.Deadline.active() || SolverOpts.Cancel.valid();
    bool Transferable = Me.Replica.numAtomsCreatedSince(Mark) == 0 &&
                        !(StopArmed && Unfinished) &&
                        !(SharedActive && Unfinished);
    // The persistent context may retain state (asserted rows, congruence
    // constants, cached normalizations) referencing terms this query
    // interned above the mark; the truncation below recycles those
    // TermIds, so the context cannot outlive them. Queries that interned
    // nothing (the common case — ALT roots and their subterms are
    // published before dispatch) keep the context, and with it the
    // cross-job prefix sharing.
    if (Me.Ctx && !(Me.Replica.mark() == Mark))
      Me.Ctx.reset();
    Me.Replica.truncateTo(Mark); // Stay an exact prefix for the next job.
    if (Transferable) {
      // Fault site: the replica is already rolled back, so a throw here
      // only costs the publish (plus a precautionary rebuild).
      support::maybeInjectFault(support::FaultSite::CachePublish);
      Active->store(Fp, Gen, Kind, std::move(PA), Epoch);
    } else {
      telemetry::Registry::global()
          .counter("search.speculation_discarded")
          .add();
    }
  } catch (...) {
    Me.Broken = true;
    throw; // awaitSpeculation classifies and recovers at the merge point.
  }
}

DirectedSearch::~DirectedSearch() = default;

bool SearchResult::foundErrorSite(lang::ErrorSiteId Site) const {
  for (const BugRecord &Bug : Bugs)
    if (Bug.Status == RunStatus::ErrorHit && Bug.Site == Site)
      return true;
  return false;
}

bool SearchResult::foundStatus(RunStatus Status) const {
  for (const BugRecord &Bug : Bugs)
    if (Bug.Status == Status)
      return true;
  return false;
}

DirectedSearch::DirectedSearch(const lang::Program &Prog,
                               const NativeRegistry &Natives,
                               std::string EntryName, SearchOptions Options)
    : Prog(Prog), Natives(Natives), EntryName(std::move(EntryName)),
      Options(Options) {
  const lang::FunctionDecl *Entry = Prog.findFunction(this->EntryName);
  if (!Entry)
    reportFatalError("entry function '" + this->EntryName + "' not found");
  Layout = InputLayout(*Entry);

  // Thread the search-level stop controls into every layer below, unless a
  // layer carries its own already (tests exercise per-layer deadlines).
  // One Deadline/Cancel pair then bounds the whole stack: this loop,
  // worker dispatch, solver decision loops, validity grounding, and
  // program execution. (`Options` here names the constructor parameter;
  // the member is the one the search reads from now on.)
  SearchOptions &O = this->Options;
  if (!O.SolverOpts.Deadline.active())
    O.SolverOpts.Deadline = O.Deadline;
  if (!O.SolverOpts.Cancel.valid())
    O.SolverOpts.Cancel = O.Cancel;
  if (!O.Limits.Deadline.active())
    O.Limits.Deadline = O.Deadline;
  if (!O.Limits.Cancel.valid())
    O.Limits.Cancel = O.Cancel;

  ExecOptions Exec;
  Exec.Policy = O.Policy;
  Exec.Limits = O.Limits;
  Exec.RecordSamples = O.RecordSamples;
  Exec.SummarizeCalls = O.SummarizeCalls;
  Engine = vm::createEngine(effectiveEngine(), Prog, Natives, Arena);
  Engine->setOptions(Exec);

  Result.Cov = Coverage(Prog.NumBranches);
}

TestInput DirectedSearch::completeInput(const smt::Model &M,
                                        const TestInput &Parent) const {
  // The paper keeps previous concrete values for inputs the solver left
  // unconstrained ("by picking randomly and then fixing the value of y...").
  TestInput Input = Parent;
  for (unsigned I = 0; I != Layout.size(); ++I) {
    smt::VarId Var =
        const_cast<smt::TermArena &>(Arena).getOrCreateVar(Layout.name(I));
    if (auto V = M.varValue(Var))
      Input.Cells[I] = *V;
  }
  return Input;
}

std::optional<PathResult>
DirectedSearch::runTest(const TestInput &Input, bool Intermediate,
                        const Candidate *From) {
  if (Result.Tests.size() >= Options.MaxTests)
    return std::nullopt;

  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::PhaseTimer &TestTimer = Reg.timer("search.test");
  static telemetry::Histogram &TestHist = Reg.histogram("search.test");
  telemetry::ScopedSpan Span("search.test");
  telemetry::ScopedTimer Timer(TestTimer);
  Reg.counter("search.tests").add();
  unsigned CovBefore = Result.Cov.coveredDirections();

  PathResult PR = Engine->execute(
      EntryName, Input, &Samples,
      Options.SummarizeCalls ? &Summaries : nullptr);

  TestRecord Record;
  Record.Input = Input;
  Record.Status = PR.Run.Status;
  Record.Intermediate = Intermediate;

  // Divergence detection (Section 3.2): the new trace must follow the
  // parent trace up to the negated constraint's event and then flip it.
  // Tests derived from injected check constraints have no branch event to
  // flip: only the prefix must match (the run is expected to fault at the
  // checked operation — "executed to confirm the bug before reporting").
  if (From) {
    const dse::PathEntry &Negated = (*From->PC).Entries[From->NegateIndex];
    size_t FlipAt = Negated.TraceIndex;
    const auto &Expected = *From->Trace;
    bool Match;
    if (Negated.IsCheck) {
      Match = PR.Run.Trace.size() >= FlipAt;
      for (size_t I = 0; Match && I < FlipAt; ++I)
        Match = PR.Run.Trace[I] == Expected[I];
    } else {
      Match = PR.Run.Trace.size() > FlipAt;
      for (size_t I = 0; Match && I < FlipAt; ++I)
        Match = PR.Run.Trace[I] == Expected[I];
      if (Match)
        Match = PR.Run.Trace[FlipAt].Branch == Expected[FlipAt].Branch &&
                PR.Run.Trace[FlipAt].Taken != Expected[FlipAt].Taken;
    }
    if (!Match) {
      Record.Diverged = true;
      ++Result.Divergences;
      Reg.counter("search.divergences").add();
      if (telemetry::TraceSink *S = telemetry::sink()) {
        telemetry::Event E(telemetry::EventKind::Divergence);
        E.set("test", int64_t(Result.Tests.size() + 1));
        E.set("negate_index", int64_t(From->NegateIndex));
        E.set("branch", int64_t(Negated.Branch));
        S->handle(E);
      }
    }
  }

  Result.Tests.push_back(Record);
  Result.Cov.noteTrace(PR.Run.Trace);

  if (telemetry::TraceSink *S = telemetry::sink()) {
    telemetry::Event E(telemetry::EventKind::TestRun);
    E.set("test", int64_t(Result.Tests.size()));
    E.set("policy", policyName(Options.Policy));
    E.setArray("cells", Input.Cells);
    E.set("status", runStatusName(PR.Run.Status));
    E.setBool("intermediate", Intermediate);
    E.setBool("diverged", Record.Diverged);
    if (From) {
      E.set("negate_index", int64_t(From->NegateIndex));
      // Search-tree edge: which candidate of which earlier test derived
      // this input (hotg-trace tree).
      E.set("from_candidate", int64_t(From->Id));
      E.set("parent_test", int64_t(From->ParentTest));
    }
    E.set("pc_size", int64_t(PR.PC.size()));
    E.set("concretizations", int64_t(PR.NumConcretizations));
    E.set("uf_apps", int64_t(PR.NumUFApps));
    E.set("samples_recorded", int64_t(PR.NumSamplesRecorded));
    E.set("new_coverage", int64_t(Result.Cov.coveredDirections() - CovBefore));
    E.set("us", int64_t(Timer.elapsedNs() / 1000));
    S->handle(E);
  }

  if (PR.Run.isBug()) {
    lang::ErrorSiteId Site =
        PR.Run.Error && PR.Run.Status == RunStatus::ErrorHit
            ? PR.Run.Error->Site
            : ~0u;
    if (PR.Run.Status == RunStatus::ErrorHit)
      Result.Cov.noteErrorSite(Site);
    bool Known = false;
    for (const BugRecord &Bug : Result.Bugs)
      if (Bug.Status == PR.Run.Status && Bug.Site == Site)
        Known = true;
    if (!Known) {
      BugRecord Bug;
      Bug.Input = Input;
      Bug.Status = PR.Run.Status;
      Bug.Site = Site;
      if (PR.Run.Error)
        Bug.Message = PR.Run.Error->Message;
      Bug.FoundAtTest = static_cast<unsigned>(Result.Tests.size());
      Reg.counter("search.bugs").add();
      if (telemetry::TraceSink *S = telemetry::sink()) {
        telemetry::Event E(telemetry::EventKind::BugFound);
        E.set("test", int64_t(Bug.FoundAtTest));
        E.set("status", runStatusName(Bug.Status));
        if (Bug.Status == RunStatus::ErrorHit)
          E.set("site", int64_t(Site));
        if (!Bug.Message.empty())
          E.set("message", Bug.Message);
        E.setArray("cells", Input.Cells);
        S->handle(E);
      }
      Result.Bugs.push_back(std::move(Bug));
    }
  }
  TestHist.note(Timer.elapsedNs());
  return PR;
}

void DirectedSearch::expand(const PathResult &PR, const TestInput &Input,
                            size_t Bound) {
  auto PC = std::make_shared<const PathConstraint>(PR.PC);
  auto Trace =
      std::make_shared<const std::vector<BranchEvent>>(PR.Run.Trace);
  for (size_t Pos : PR.PC.negatablePositions()) {
    if (Pos < Bound)
      continue;
    Candidate Cand;
    Cand.PC = PC;
    Cand.Trace = Trace;
    Cand.ParentInput = Input;
    Cand.NegateIndex = Pos;
    Cand.Id = NextCandidateId++;
    // expand() runs directly after the parent test was recorded, so the
    // current test count is its 1-based id.
    Cand.ParentTest = static_cast<unsigned>(Result.Tests.size());
    if (Options.Order == SearchOptions::OrderKind::DepthFirst)
      Frontier.push_front(std::move(Cand));
    else
      Frontier.push_back(std::move(Cand));
  }
}

void DirectedSearch::seedFrontier() {
  telemetry::ScopedSpan Span("search.seed");
  TestInput Initial;
  if (Options.InitialInput) {
    Initial = *Options.InitialInput;
    if (Initial.Cells.size() != Layout.size())
      reportFatalError("initial input does not match the entry function's "
                       "input layout");
  } else {
    RandomGen Rng(Options.Seed);
    Initial = Layout.zeroInput();
    for (int64_t &Cell : Initial.Cells)
      Cell = Rng.nextInRange(Options.RandomLo, Options.RandomHi);
  }
  SeenInputs.insert(Initial.Cells);
  if (auto PR = runTest(Initial, /*Intermediate=*/false, nullptr))
    expand(*PR, Initial, /*Bound=*/0);

  for (const TestInput &Seed : Options.SeedInputs) {
    if (Seed.Cells.size() != Layout.size())
      reportFatalError("seed input does not match the entry function's "
                       "input layout");
    if (!SeenInputs.insert(Seed.Cells).second)
      continue;
    auto PR = runTest(Seed, /*Intermediate=*/false, nullptr);
    if (!PR)
      return; // Budget exhausted.
    expand(*PR, Seed, /*Bound=*/0);
  }
}

unsigned DirectedSearch::effectiveJobs() const {
  if (Options.Jobs <= 1)
    return 1;
  // Speculation replays queries on replica arenas. Summary grounding and a
  // user-supplied sample table are not replicated there, so those modes
  // keep the plain serial path (results are identical either way; this is
  // purely a scheduling decision).
  if (Options.SummarizeCalls || Options.SolverOpts.Samples != nullptr)
    return 1;
  return Options.Jobs;
}

vm::EngineKind DirectedSearch::effectiveEngine() const {
  // Summary collection walks call expressions, which the bytecode engine
  // flattened away — SummarizeCalls keeps the tree-walking pair (results
  // are identical either way, like the effectiveJobs fallbacks).
  if (Options.SummarizeCalls)
    return vm::EngineKind::Interp;
  return Options.Engine;
}

void DirectedSearch::initParallel() {
  unsigned Jobs = effectiveJobs();
  if (Jobs > 1) {
    // Starting the worker threads is part of the search's wall time; its
    // own span keeps it attributed.
    telemetry::ScopedSpan Span("search.parallel_init");
    Parallel = std::make_unique<ParallelState>(Jobs);
    if (Options.SharedCache) {
      Parallel->Active = Options.SharedCache;
      Parallel->SharedActive = true;
    }
    Parallel->Epoch = Options.CacheEpoch;
  }
}

smt::QueryCache *DirectedSearch::queryCache() {
  if (Options.SharedCache)
    return Options.SharedCache;
  return Parallel ? &Parallel->Cache : nullptr;
}

/// The fault-injection identity of a query (support::FaultScope): its
/// query-cache key, the same on the merge path and on any worker.
static uint64_t queryFaultKey(smt::TermFingerprint Fp, uint64_t Gen,
                              smt::QueryKind Kind) {
  return Fp.Hi ^ (Fp.Lo * 0x9e3779b97f4a7c15ull) ^ (Gen << 8) ^
         uint64_t(Kind);
}

void DirectedSearch::dispatchSpeculative() {
  telemetry::ScopedSpan Span("search.dispatch");
  // Stop-control poll at worker dispatch: once tripped, no further jobs
  // are enqueued (the merge loop is about to observe the same stop).
  if (support::stopRequested(Options.Deadline, Options.Cancel) !=
      support::StopReason::None)
    return;
  ParallelState &PS = *Parallel;
  telemetry::Registry &Reg = telemetry::Registry::global();
  const bool HigherOrder =
      Options.Policy == ConcretizationPolicy::HigherOrder;
  const smt::QueryKind Kind = HigherOrder ? smt::QueryKind::Validity
                                          : smt::QueryKind::Satisfiability;
  // Validity answers depend on the antecedent; an append-only table makes
  // generation (= size) equality equivalent to table equality.
  const uint64_t Gen =
      HigherOrder && Options.UseAntecedent ? Samples.size() : 0;
  if (PS.SnapGeneration != Gen) {
    PS.SampleSnap = std::make_shared<const smt::SampleTable>(
        HigherOrder && Options.UseAntecedent ? Samples : EmptySamples);
    PS.SnapGeneration = Gen;
  }

  // Speculate over a window at the front of the frontier: the candidates
  // the merge loop will consume next.
  size_t Window =
      std::min<size_t>(Frontier.size(), size_t(PS.Pool.size()) * 2);
  for (size_t I = 0; I != Window; ++I) {
    Candidate &Cand = Frontier[I];
    if (PS.Inflight.count(Cand.Id))
      continue;
    const PathEntry &Entry = Cand.PC->Entries[Cand.NegateIndex];
    // Coverage only grows, so a target covered now is covered at merge
    // time too: the merge path would skip this candidate anyway.
    if (Options.SkipCoveredTargets &&
        Result.Cov.isCovered(Entry.Branch, !Entry.Taken))
      continue;
    // ALT(pc) is built on the main arena *before* the delta is published,
    // so the job can reference it by id. alternate() interns no atoms
    // (negation and conjunction over existing terms), so interning it
    // earlier than the serial schedule would is harmless.
    smt::TermId Alt = Cand.PC->alternate(Arena, Cand.NegateIndex);
    // Membership check only (no insert — the merge path owns the set): a
    // structural duplicate of an already-evaluated candidate will be
    // skipped at merge time, so speculating on it is wasted work.
    if (EvaluatedCandidates.count(candidateKey(Alt, Cand.ParentInput)))
      continue;
    smt::TermFingerprint Fp = Arena.fingerprint(Alt);
    if (PS.Active->contains(Fp, Gen, Kind, PS.Epoch))
      continue; // Answer already available.

    smt::ArenaMark Now = Arena.mark();
    if (!(Now == PS.Published)) {
      auto Delta = std::make_shared<const smt::ArenaDelta>(
          Arena.deltaSince(PS.Published));
      std::lock_guard<std::mutex> Lock(PS.DeltaMutex);
      PS.Deltas.push_back(std::move(Delta));
      PS.Published = Now;
    }

    ValidityOptions VOpts = Options.ValidityOpts;
    VOpts.SolverOpts = Options.SolverOpts;
    Reg.counter("search.speculative_dispatches").add();
    PS.Inflight.emplace(
        Cand.Id, PS.Pool.submit([&PS, Alt, Fp, Gen, Kind, VOpts,
                                 SolverOpts = Options.SolverOpts,
                                 Snap = PS.SampleSnap, CandId = Cand.Id,
                                 ParentTest = Cand.ParentTest](unsigned W) {
          // A speculation is the query's first attempt: it draws the
          // faults the merge path's first attempt would draw.
          support::FaultScope Scope(queryFaultKey(Fp, Gen, Kind), 0);
          // Fault site: models a worker dying before touching any shared
          // state (replica untouched, nothing published).
          support::maybeInjectFault(support::FaultSite::WorkerDispatch);
          PS.runJob(W, Alt, Fp, Gen, Kind, SolverOpts, VOpts,
                    std::move(Snap), CandId, ParentTest);
        }));
  }
  // Sampled gauge: count = dispatch rounds, max = peak depth.
  static telemetry::PhaseTimer &QueueDepth = Reg.gauge("search.queue_depth");
  QueueDepth.note(PS.Pool.queueDepth());
}

void DirectedSearch::awaitSpeculation(const Candidate &Cand) {
  auto It = Parallel->Inflight.find(Cand.Id);
  if (It == Parallel->Inflight.end())
    return;
  telemetry::ScopedSpan Span("search.await");
  // Satellite fix: future::get() used to rethrow a worker exception out of
  // run() here, discarding every accumulated test. A failed speculation
  // only means no cached answer — classify it, count it, and let the merge
  // path recompute this candidate's query inline (the bounded retry).
  const char *Failure = nullptr;
  try {
    It->second.get();
  } catch (const support::FaultInjected &) {
    Failure = "injected";
  } catch (const std::exception &) {
    Failure = "exception";
  } catch (...) {
    Failure = "unknown";
  }
  Parallel->Inflight.erase(It);
  if (Failure) {
    ++Result.WorkerFailures;
    telemetry::Registry &Reg = telemetry::Registry::global();
    Reg.counter("search.worker_failures").add();
    Reg.counter(std::string("search.worker_failures.") + Failure).add();
    Parallel->PendingInlineRetry = true;
  }
}

/// Counts one inline recomputation performed to recover from a failed
/// speculation (set by awaitSpeculation, consumed by the first query the
/// merge path actually computes for that candidate).
static void noteInlineRetryIfPending(bool &Pending, unsigned &Retries) {
  if (!Pending)
    return;
  Pending = false;
  ++Retries;
  telemetry::Registry::global().counter("search.inline_retries").add();
}

smt::SatAnswer DirectedSearch::solveSat(smt::TermId Alt) {
  if (smt::QueryCache *QC = queryCache()) {
    smt::TermFingerprint Fp = Arena.fingerprint(Alt);
    if (auto Hit = QC->lookup(Fp, 0, smt::QueryKind::Satisfiability,
                              Options.CacheEpoch)) {
      // Another worker answered after the awaited one failed: no inline
      // recomputation was needed after all.
      if (Parallel)
        Parallel->PendingInlineRetry = false;
      Result.SolverQueryStats.Checks += Hit->Checks;
      Result.SolverQueryStats.SupportsExplored += Hit->SupportsExplored;
      Result.SolverQueryStats.Decisions += Hit->Decisions;
      Result.SolverQueryStats.Propagations += Hit->Propagations;
      smt::SatAnswer Answer;
      Answer.Result = static_cast<smt::SatResult>(Hit->Status);
      Answer.ModelValue = decodeModel(Hit->Model, Arena);
      return Answer;
    }
  }
  // Budgets (MaxDecisions, MaxSupports) are per-query: the context
  // charges each query to a fresh SolverStats. Work is aggregated into the
  // search-owned stats below.
  if (Parallel)
    noteInlineRetryIfPending(Parallel->PendingInlineRetry,
                             Result.InlineRetries);
  if (!SatCtx)
    SatCtx = std::make_unique<smt::SolverContext>(Arena, Options.SolverOpts);
  smt::SolverStats S;
  smt::SatAnswer Answer = SatCtx->checkFormula(Alt, S);
  Result.SolverQueryStats.Checks += S.Checks;
  Result.SolverQueryStats.SupportsExplored += S.SupportsExplored;
  Result.SolverQueryStats.Decisions += S.Decisions;
  Result.SolverQueryStats.Propagations += S.Propagations;
  // Computed on the main arena, so any atoms it interned are permanent:
  // the answer is transferable to every later consumer. Unknown answers
  // stay out of a cross-session SharedCache, though: an Unknown computed
  // under an armed stop control encodes this session's clock, and even a
  // budget-driven Unknown buys a later session nothing — a miss merely
  // recomputes (docs/serving.md).
  if (smt::QueryCache *QC = queryCache();
      QC && !(Options.SharedCache &&
              Answer.Result == smt::SatResult::Unknown)) {
    try {
      support::maybeInjectFault(support::FaultSite::CachePublish);
      QC->store(Arena.fingerprint(Alt), 0, smt::QueryKind::Satisfiability,
                encodeSat(Answer, S, Arena), Options.CacheEpoch);
    } catch (const support::FaultInjected &) {
      // A dropped publish only costs later duplicates a recomputation —
      // they produce the same answer and fold the same per-query stats.
    }
  }
  return Answer;
}

std::tuple<uint64_t, uint64_t, uint64_t, std::vector<int64_t>>
DirectedSearch::candidateKey(smt::TermId Alt,
                             const TestInput &Parent) const {
  // The generation matches the query-cache keying: satisfiability answers
  // never depend on the growing sample table, validity answers do (via the
  // antecedent), so a duplicate at a later generation is re-evaluated.
  const uint64_t Gen = Options.Policy == ConcretizationPolicy::HigherOrder &&
                               Options.UseAntecedent
                           ? Samples.size()
                           : 0;
  smt::TermFingerprint Fp =
      const_cast<smt::TermArena &>(Arena).fingerprint(Alt);
  return {Fp.Hi, Fp.Lo, Gen, Parent.Cells};
}

ValidityAnswer DirectedSearch::solveValidity(smt::TermId Alt) {
  const uint64_t Gen = Options.UseAntecedent ? Samples.size() : 0;
  if (smt::QueryCache *QC = queryCache()) {
    smt::TermFingerprint Fp = Arena.fingerprint(Alt);
    if (auto Hit =
            QC->lookup(Fp, Gen, smt::QueryKind::Validity, Options.CacheEpoch)) {
      if (Parallel)
        Parallel->PendingInlineRetry = false;
      Result.ValidityQueryStats.SupportsExplored += Hit->ValiditySupports;
      Result.ValidityQueryStats.GroundingsTried += Hit->GroundingsTried;
      Result.ValidityQueryStats.GroundingsPruned += Hit->GroundingsPruned;
      ValidityAnswer Answer;
      Answer.Status = static_cast<ValidityStatus>(Hit->Status);
      Answer.ModelValue = decodeModel(Hit->Model, Arena);
      return Answer;
    }
  }
  if (Parallel)
    noteInlineRetryIfPending(Parallel->PendingInlineRetry,
                             Result.InlineRetries);
  const smt::SampleTable &Antecedent =
      Options.UseAntecedent ? Samples : EmptySamples;
  ValidityOptions VOpts = Options.ValidityOpts;
  VOpts.SolverOpts = Options.SolverOpts;
  if (Options.SummarizeCalls)
    VOpts.Summaries = &Summaries;
  ValiditySolver Validity(Arena, Antecedent, VOpts);
  ValidityAnswer Answer = Validity.checkPost(Alt);
  const ValidityStats &S = Validity.stats();
  Result.ValidityQueryStats.SupportsExplored += S.SupportsExplored;
  Result.ValidityQueryStats.GroundingsTried += S.GroundingsTried;
  Result.ValidityQueryStats.GroundingsPruned += S.GroundingsPruned;
  // Same Unknown guard as solveSat for cross-session caches.
  if (smt::QueryCache *QC = queryCache();
      QC && !(Options.SharedCache &&
              Answer.Status == ValidityStatus::Unknown)) {
    try {
      support::maybeInjectFault(support::FaultSite::CachePublish);
      QC->store(Arena.fingerprint(Alt), Gen, smt::QueryKind::Validity,
                encodeValidity(Answer, S, Arena), Options.CacheEpoch);
    } catch (const support::FaultInjected &) {
      // See solveSat: a dropped publish is a pure scheduling cost.
    }
  }
  return Answer;
}

smt::SatAnswer DirectedSearch::solveSatGuarded(smt::TermId Alt) {
  constexpr unsigned MaxInlineRetries = 3;
  const uint64_t FaultKey =
      support::faultInjector()
          ? queryFaultKey(Arena.fingerprint(Alt), 0,
                          smt::QueryKind::Satisfiability)
          : 0;
  for (unsigned Attempt = 0;; ++Attempt) {
    try {
      support::FaultScope Scope(FaultKey, Attempt);
      return solveSat(Alt);
    } catch (const std::exception &E) {
      // The throw may have unwound mid-retarget; drop the incremental
      // context so the retry starts from a clean assertion stack (the
      // context is rebuilt lazily, answers are identical either way).
      SatCtx.reset();
      telemetry::Registry &Reg = telemetry::Registry::global();
      Reg.counter("search.query_failures").add();
      if (Attempt >= MaxInlineRetries) {
        smt::SatAnswer Answer;
        Answer.Result = smt::SatResult::Unknown;
        Answer.Reason = std::string("query failed: ") + E.what();
        return Answer; // Candidate abandoned; the search continues.
      }
      ++Result.InlineRetries;
      Reg.counter("search.inline_retries").add();
    }
  }
}

ValidityAnswer DirectedSearch::solveValidityGuarded(smt::TermId Alt) {
  constexpr unsigned MaxInlineRetries = 3;
  const uint64_t FaultKey =
      support::faultInjector()
          ? queryFaultKey(Arena.fingerprint(Alt),
                          Options.UseAntecedent ? Samples.size() : 0,
                          smt::QueryKind::Validity)
          : 0;
  for (unsigned Attempt = 0;; ++Attempt) {
    try {
      support::FaultScope Scope(FaultKey, Attempt);
      return solveValidity(Alt);
    } catch (const std::exception &E) {
      telemetry::Registry &Reg = telemetry::Registry::global();
      Reg.counter("search.query_failures").add();
      if (Attempt >= MaxInlineRetries) {
        ValidityAnswer Answer;
        Answer.Status = ValidityStatus::Unknown;
        Answer.Reason = std::string("query failed: ") + E.what();
        return Answer;
      }
      ++Result.InlineRetries;
      Reg.counter("search.inline_retries").add();
    }
  }
}

void DirectedSearch::maybeEmitHeartbeat() {
  if (!Options.ProgressEveryMs)
    return;
  telemetry::TraceSink *S = telemetry::sink();
  if (!S)
    return;
  uint64_t Now = telemetry::monotonicNanos();
  if (Now - LastBeatNs < Options.ProgressEveryMs * 1'000'000)
    return;

  telemetry::Registry &Reg = telemetry::Registry::global();
  uint64_t Tests = Result.Tests.size();
  uint64_t Checks = Reg.counter("solver.checks").value();
  double IntervalS = static_cast<double>(Now - LastBeatNs) / 1e9;
  smt::QueryCache *QC = queryCache();
  uint64_t CacheHits = QC ? QC->hits() : 0;
  uint64_t CacheMisses = QC ? QC->misses() : 0;
  uint64_t CacheTotal = CacheHits + CacheMisses;

  telemetry::Event E(telemetry::EventKind::Heartbeat);
  E.set("ts_ns", static_cast<int64_t>(Now));
  E.set("elapsed_ms",
        static_cast<int64_t>((Now - SearchStartNs) / 1'000'000));
  E.set("tests", static_cast<int64_t>(Tests));
  E.setDouble("tests_per_s",
              static_cast<double>(Tests - LastBeatTests) / IntervalS);
  E.set("solver_checks", static_cast<int64_t>(Checks));
  E.setDouble("solver_checks_per_s",
              static_cast<double>(Checks - LastBeatChecks) / IntervalS);
  E.set("cache_hits", static_cast<int64_t>(CacheHits));
  E.set("cache_misses", static_cast<int64_t>(CacheMisses));
  E.setDouble("cache_hit_rate",
              CacheTotal ? static_cast<double>(CacheHits) /
                               static_cast<double>(CacheTotal)
                         : 0.0);
  E.set("queue_depth", static_cast<int64_t>(
                           Parallel ? Parallel->Pool.queueDepth() : 0));
  E.set("frontier", static_cast<int64_t>(Frontier.size()));
  S->handle(E);

  LastBeatNs = Now;
  LastBeatTests = Tests;
  LastBeatChecks = Checks;
}

bool DirectedSearch::processCandidate(const Candidate &Cand) {
  const PathEntry &Entry = Cand.PC->Entries[Cand.NegateIndex];
  telemetry::Registry &Reg = telemetry::Registry::global();
  Reg.counter("search.candidates").add();
  telemetry::ScopedSpan Span("search.candidate");
  // Every solver/validity query issued while this candidate is being
  // evaluated inline carries its identity (docs/observability.md).
  telemetry::ScopedAttribution AttributionScope;
  telemetry::queryAttribution().Test = int64_t(Cand.ParentTest);
  telemetry::queryAttribution().Candidate = int64_t(Cand.Id);
  auto EmitCandidate = [&](const char *Verdict) {
    if (telemetry::TraceSink *S = telemetry::sink()) {
      telemetry::Event E(telemetry::EventKind::Candidate);
      E.set("candidate", int64_t(Cand.Id));
      E.set("parent_test", int64_t(Cand.ParentTest));
      E.set("negate_index", int64_t(Cand.NegateIndex));
      E.set("branch", int64_t(Entry.Branch));
      E.setBool("target_taken", !Entry.Taken);
      E.set("verdict", Verdict);
      S->handle(E);
    }
  };

  if (Options.SkipCoveredTargets &&
      Result.Cov.isCovered(Entry.Branch, !Entry.Taken)) {
    Reg.counter("search.candidates_skipped_covered").add();
    EmitCandidate("skipped-covered");
    return true;
  }

  smt::TermId Alt = Cand.PC->alternate(Arena, Cand.NegateIndex);

  // Structural deduplication: an earlier candidate with the same ALT
  // fingerprint, sample generation, and parent input saw byte-identical
  // queries and completed to the same input (which SeenInputs already
  // holds), so re-evaluating it cannot add coverage, tests, or samples.
  // Loops are the common source: a path testing one condition per
  // iteration yields sibling alternates that simplify to the same term.
  if (!EvaluatedCandidates.insert(candidateKey(Alt, Cand.ParentInput))
           .second) {
    Reg.counter("search.candidates_deduped").add();
    EmitCandidate("deduplicated");
    return true;
  }

  std::optional<TestInput> NewInput;

  if (Options.Policy != ConcretizationPolicy::HigherOrder) {
    ++Result.SolverCalls;
    smt::SatAnswer Answer = solveSatGuarded(Alt);
    EmitCandidate(smt::satResultName(Answer.Result));
    if (Answer.isSat())
      NewInput = completeInput(Answer.ModelValue, Cand.ParentInput);
  } else {
    // Higher-order test generation: POST(ALT(pc)) validity with bounded
    // multi-step learning (Section 5.3). Each intermediate run can grow
    // the sample table, so every step re-queries at the new generation.
    TestInput Parent = Cand.ParentInput;
    for (unsigned Step = 0; Step <= Options.MultiStepBound; ++Step) {
      ++Result.ValidityCalls;
      ValidityAnswer Answer = solveValidityGuarded(Alt);
      if (Answer.Status == ValidityStatus::Valid) {
        EmitCandidate(validityStatusName(Answer.Status));
        NewInput = completeInput(Answer.ModelValue, Parent);
        break;
      }
      if (Answer.Status != ValidityStatus::NeedsSamples ||
          Step == Options.MultiStepBound) {
        EmitCandidate(validityStatusName(Answer.Status));
        break;
      }
      // Run the candidate assignment as an intermediate test to learn the
      // missing samples (the paper's two-step generation in Example 7).
      TestInput Intermediate = completeInput(Answer.ModelValue, Parent);
      size_t Before = Samples.size();
      auto PR = runTest(Intermediate, /*Intermediate=*/true, nullptr);
      if (!PR) {
        EmitCandidate("budget-exhausted");
        return false; // Budget exhausted.
      }
      ++Result.MultiStepRuns;
      Reg.counter("search.multistep_runs").add();
      SeenInputs.insert(Intermediate.Cells);
      expand(*PR, Intermediate, Cand.NegateIndex);
      if (Samples.size() == Before) {
        EmitCandidate("learning-stalled");
        break; // Nothing learned; retrying would loop.
      }
      Parent = Intermediate;
    }
  }

  if (!NewInput)
    return true;
  if (!SeenInputs.insert(NewInput->Cells).second)
    return true; // Already executed this exact input.

  auto PR = runTest(*NewInput, /*Intermediate=*/false, &Cand);
  if (!PR)
    return false;
  expand(*PR, *NewInput, Cand.NegateIndex + 1);
  return true;
}

SearchResult DirectedSearch::run() {
  telemetry::Registry &Reg = telemetry::Registry::global();
  // Root span of the whole search: hotg-trace computes its wall-time
  // attribution ("N% covered by child spans") against this one.
  telemetry::ScopedSpan Span("search.run");
  SearchStartNs = telemetry::monotonicNanos();
  LastBeatNs = SearchStartNs;
  LastBeatTests = 0;
  LastBeatChecks = Reg.counter("solver.checks").value();
  initParallel();
  seedFrontier();
  while (!Frontier.empty() && Result.Tests.size() < Options.MaxTests) {
    maybeEmitHeartbeat();
    // Stop-control poll at the candidate boundary: a partial result keeps
    // every test, bug, coverage direction and stat accumulated so far —
    // only not-yet-processed frontier work is abandoned.
    if (support::StopReason R =
            support::stopRequested(Options.Deadline, Options.Cancel);
        R != support::StopReason::None) {
      Result.Stopped = R;
      break;
    }
    if (Parallel)
      dispatchSpeculative();
    Candidate Cand = std::move(Frontier.front());
    Frontier.pop_front();
    if (Parallel)
      awaitSpeculation(Cand);
    bool KeepGoing = processCandidate(Cand);
    if (Parallel) // The retry flag never outlives its candidate.
      Parallel->PendingInlineRetry = false;
    if (!KeepGoing)
      break;
  }
  // A run that halted with RunStatus::Deadline also trips the poll above
  // on the next iteration — unless the truncated run was the last one and
  // left the frontier empty (e.g. the seed run under an already-expired
  // deadline), in which case the loop exits without polling. Classify
  // from the evidence: a cut test means the stop control truncated work.
  if (Result.Stopped == support::StopReason::None &&
      std::any_of(Result.Tests.begin(), Result.Tests.end(),
                  [](const TestRecord &T) {
                    return T.Status == RunStatus::Deadline;
                  }))
    Result.Stopped = support::stopRequested(Options.Deadline, Options.Cancel);
  // The test budget is only a stop *reason* when work remained.
  if (Result.Stopped == support::StopReason::None &&
      Result.Tests.size() >= Options.MaxTests && !Frontier.empty())
    Result.Stopped = support::StopReason::TestBudget;
  switch (Result.Stopped) {
  case support::StopReason::None:
    break;
  case support::StopReason::DeadlineExpired:
    Reg.counter("search.deadline_expired").add();
    break;
  case support::StopReason::Cancelled:
    Reg.counter("search.cancelled").add();
    break;
  case support::StopReason::TestBudget:
    Reg.counter("search.test_budget_stops").add();
    break;
  }
  if (smt::QueryCache *QC = queryCache()) {
    Result.CacheHits = QC->hits();
    Result.CacheMisses = QC->misses();
    // With a private cache these are exactly this search's traffic; a
    // SharedCache reports its cumulative counters (the per-search delta is
    // not separable, and both describe the schedule — see SearchResult).
    if (!Options.SharedCache) {
      Reg.counter("solver.cache_hits").add(Result.CacheHits);
      Reg.counter("solver.cache_misses").add(Result.CacheMisses);
    }
  }
  if (Parallel)
    Reg.counter("search.worker_busy_ns").add(Parallel->Pool.busyNanos());
  if (telemetry::TraceSink *S = telemetry::sink()) {
    // End-of-run totals: one event per search, with the stop reason — the
    // trace-side face of SearchResult.Stopped (docs/observability.md).
    telemetry::Event E(telemetry::EventKind::SearchSummary);
    E.set("stop_reason", support::stopReasonName(Result.Stopped));
    E.set("engine", vm::engineName(Engine->kind()));
    E.set("tests", int64_t(Result.Tests.size()));
    E.set("bugs", int64_t(Result.Bugs.size()));
    E.set("covered_directions", int64_t(Result.Cov.coveredDirections()));
    E.set("divergences", int64_t(Result.Divergences));
    E.set("worker_failures", int64_t(Result.WorkerFailures));
    E.set("inline_retries", int64_t(Result.InlineRetries));
    S->handle(E);
  }
  return std::move(Result);
}

SearchResult hotg::core::runRandomSearch(const lang::Program &Prog,
                                         const NativeRegistry &Natives,
                                         std::string_view EntryName,
                                         unsigned NumTests, int64_t Lo,
                                         int64_t Hi, uint64_t Seed,
                                         RunLimits Limits) {
  const lang::FunctionDecl *Entry = Prog.findFunction(EntryName);
  if (!Entry)
    reportFatalError("entry function '" + std::string(EntryName) +
                     "' not found");
  InputLayout Layout(*Entry);
  // The baseline never builds terms; the arena only parameterizes the
  // engine seam and stays empty on the concrete path.
  smt::TermArena Arena;
  std::unique_ptr<vm::IExecEngine> Engine =
      vm::createEngine(vm::EngineKind::VM, Prog, Natives, Arena);
  RandomGen Rng(Seed);

  SearchResult Result;
  Result.Cov = Coverage(Prog.NumBranches);
  for (unsigned T = 0; T != NumTests; ++T) {
    if (support::StopReason R =
            support::stopRequested(Limits.Deadline, Limits.Cancel);
        R != support::StopReason::None) {
      Result.Stopped = R;
      break;
    }
    TestInput Input = Layout.zeroInput();
    for (int64_t &Cell : Input.Cells)
      Cell = Rng.nextInRange(Lo, Hi);
    RunResult Run = Engine->runConcrete(EntryName, Input, Limits);

    TestRecord Record;
    Record.Input = Input;
    Record.Status = Run.Status;
    Result.Tests.push_back(Record);
    Result.Cov.noteTrace(Run.Trace);

    if (Run.isBug()) {
      lang::ErrorSiteId Site =
          Run.Error && Run.Status == RunStatus::ErrorHit ? Run.Error->Site
                                                         : ~0u;
      if (Run.Status == RunStatus::ErrorHit)
        Result.Cov.noteErrorSite(Site);
      bool Known = false;
      for (const BugRecord &Bug : Result.Bugs)
        if (Bug.Status == Run.Status && Bug.Site == Site)
          Known = true;
      if (!Known) {
        BugRecord Bug;
        Bug.Input = Input;
        Bug.Status = Run.Status;
        Bug.Site = Site;
        if (Run.Error)
          Bug.Message = Run.Error->Message;
        Bug.FoundAtTest = T + 1;
        Result.Bugs.push_back(std::move(Bug));
      }
    }
  }
  // Same late-classification as DirectedSearch::run(): a final test cut
  // mid-run never reaches the loop-top poll.
  if (Result.Stopped == support::StopReason::None &&
      std::any_of(Result.Tests.begin(), Result.Tests.end(),
                  [](const TestRecord &T) {
                    return T.Status == RunStatus::Deadline;
                  }))
    Result.Stopped = support::stopRequested(Limits.Deadline, Limits.Cancel);
  return Result;
}

std::string hotg::core::renderSearchReport(std::string_view PolicyName,
                                           const SearchResult &Result) {
  std::string Out =
      formatString("policy %.*s: %u tests, %u/%u branch directions covered, "
                   "%u divergences\n",
                   static_cast<int>(PolicyName.size()), PolicyName.data(),
                   Result.testsRun(), Result.Cov.coveredDirections(),
                   Result.Cov.totalDirections(), Result.Divergences);
  if (Result.Bugs.empty())
    Out += "no bugs found\n";
  for (const BugRecord &Bug : Result.Bugs)
    Out += formatString("BUG [%s] \"%s\" input %s (test #%u)\n",
                        runStatusName(Bug.Status), Bug.Message.c_str(),
                        Bug.Input.toString().c_str(), Bug.FoundAtTest);
  if (Result.Stopped != support::StopReason::None)
    Out += formatString("search stopped: %s\n",
                        support::stopReasonName(Result.Stopped));
  return Out;
}

bool hotg::core::searchDegraded(const SearchResult &Result) {
  // A deadline/cancellation stop (or a run cut mid-flight by the deadline)
  // means the results are real but possibly incomplete. Hitting the test
  // budget is the normal operating mode, not degradation.
  return Result.Stopped == support::StopReason::DeadlineExpired ||
         Result.Stopped == support::StopReason::Cancelled ||
         std::any_of(Result.Tests.begin(), Result.Tests.end(),
                     [](const TestRecord &T) {
                       return T.Status == RunStatus::Deadline;
                     });
}
