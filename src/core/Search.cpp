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

#include <algorithm>
#include <cassert>

using namespace hotg;
using namespace hotg::core;
using namespace hotg::dse;
using namespace hotg::interp;

// Answers exchanged through a caller-installed QueryCache (the hotg-serve
// fabric, docs/serving.md) are arena-independent: models travel as
// (variable name, value) pairs and are re-bound in the consuming arena.

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
/// the query formula, which that arena interned to pose the query), so
/// this never interns anything new.
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
  // solver decision loops, validity grounding, and program execution. (`Options` here names the constructor parameter;
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

vm::EngineKind DirectedSearch::effectiveEngine() const {
  // Summary collection walks call expressions, which the bytecode engine
  // flattened away — SummarizeCalls keeps the tree-walking pair (results
  // are identical either way).
  if (Options.SummarizeCalls)
    return vm::EngineKind::Interp;
  return Options.Engine;
}

/// The fault-injection identity of a query (support::FaultScope): its
/// query-cache key, the same in every run of the same job.
static uint64_t queryFaultKey(smt::TermFingerprint Fp, uint64_t Gen,
                              smt::QueryKind Kind) {
  return Fp.Hi ^ (Fp.Lo * 0x9e3779b97f4a7c15ull) ^ (Gen << 8) ^
         uint64_t(Kind);
}

smt::SatAnswer DirectedSearch::solveSat(smt::TermId Alt) {
  if (smt::QueryCache *QC = Options.SharedCache) {
    smt::TermFingerprint Fp = Arena.fingerprint(Alt);
    if (auto Hit = QC->lookup(Fp, 0, smt::QueryKind::Satisfiability,
                              Options.CacheEpoch)) {
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
  if (!SatCtx)
    SatCtx = std::make_unique<smt::SolverContext>(Arena, Options.SolverOpts);
  smt::SolverStats S;
  smt::SatAnswer Answer = SatCtx->checkFormula(Alt, S);
  Result.SolverQueryStats.Checks += S.Checks;
  Result.SolverQueryStats.SupportsExplored += S.SupportsExplored;
  Result.SolverQueryStats.Decisions += S.Decisions;
  Result.SolverQueryStats.Propagations += S.Propagations;
  // Unknown answers stay out of the cross-session cache: an Unknown
  // computed under an armed stop control encodes this session's clock,
  // and even a budget-driven Unknown buys a later session nothing — a
  // miss merely recomputes (docs/serving.md).
  if (smt::QueryCache *QC = Options.SharedCache;
      QC && Answer.Result != smt::SatResult::Unknown) {
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
  if (smt::QueryCache *QC = Options.SharedCache) {
    smt::TermFingerprint Fp = Arena.fingerprint(Alt);
    if (auto Hit =
            QC->lookup(Fp, Gen, smt::QueryKind::Validity, Options.CacheEpoch)) {
      Result.ValidityQueryStats.SupportsExplored += Hit->ValiditySupports;
      Result.ValidityQueryStats.GroundingsTried += Hit->GroundingsTried;
      Result.ValidityQueryStats.GroundingsPruned += Hit->GroundingsPruned;
      ValidityAnswer Answer;
      Answer.Status = static_cast<ValidityStatus>(Hit->Status);
      Answer.ModelValue = decodeModel(Hit->Model, Arena);
      return Answer;
    }
  }
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
  // Same Unknown guard as solveSat.
  if (smt::QueryCache *QC = Options.SharedCache;
      QC && Answer.Status != ValidityStatus::Unknown) {
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
  smt::QueryCache *QC = Options.SharedCache;
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
    Candidate Cand = std::move(Frontier.front());
    Frontier.pop_front();
    if (!processCandidate(Cand))
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
  if (smt::QueryCache *QC = Options.SharedCache) {
    // The cache's cumulative counters: the per-search delta is not
    // separable while other sessions share it (see SearchResult).
    Result.CacheHits = QC->hits();
    Result.CacheMisses = QC->misses();
  }
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
