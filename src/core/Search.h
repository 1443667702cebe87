//===- core/Search.h - Directed search (DART / higher-order) --------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The systematic dynamic test generation loop of Section 2, parameterized
/// by concretization policy:
///
///  * Unsound / Sound / SoundDelayed — classic DART: negate the last
///    constraint of a path-constraint prefix, ask the satisfiability solver
///    for a model, run the new input, detect divergences.
///  * HigherOrder — the paper's contribution: build POST(ALT(pc)), derive
///    tests from validity proofs via the strategy solver, and fall back to
///    bounded multi-step test generation (intermediate runs that learn
///    uninterpreted-function samples) when a one-shot strategy is missing.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_CORE_SEARCH_H
#define HOTG_CORE_SEARCH_H

#include "core/Coverage.h"
#include "core/ValiditySolver.h"
#include "dse/SymbolicExecutor.h"
#include "interp/Interp.h"
#include "smt/SampleTable.h"
#include "smt/Solver.h"
#include "vm/Engine.h"

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <tuple>

namespace hotg::smt {
class QueryCache;
class SolverContext;
} // namespace hotg::smt

namespace hotg::core {

/// Options of one directed search.
struct SearchOptions {
  dse::ConcretizationPolicy Policy = dse::ConcretizationPolicy::Unsound;
  /// Total program executions (including multi-step intermediate runs).
  unsigned MaxTests = 64;
  /// Multi-step bound k: number of learning runs per candidate (Section
  /// 5.3, Example 7 needs k >= 1 extra run).
  unsigned MultiStepBound = 2;
  /// Record IOF samples (HigherOrder only) — off reproduces Example 4.
  bool RecordSamples = true;
  /// Use the recorded samples as the antecedent A of POST(pc) — off
  /// reproduces the "no antecedent" half of Example 6.
  bool UseAntecedent = true;
  /// Skip candidates whose target (branch, direction) is already covered.
  bool SkipCoveredTargets = true;
  /// Section 8: summarize calls to summarizable MiniLang functions
  /// (HigherOrder policy only) and ground their applications by
  /// instantiating summary disjuncts.
  bool SummarizeCalls = false;
  /// Candidate exploration order.
  enum class OrderKind : uint8_t { BreadthFirst, DepthFirst } Order =
      OrderKind::BreadthFirst;
  /// Execution engine for program runs: the bytecode VM, except under
  /// SummarizeCalls, which needs the interpreter engine (the only one that
  /// collects intraprocedural summaries). Both engines emit byte-identical
  /// search output; setting Interp here exists only so the VM differential
  /// suite can reach the reference interpreter.
  vm::EngineKind Engine = vm::EngineKind::VM;
  interp::RunLimits Limits;
  /// Initial input; random cells in [RandomLo, RandomHi] when absent.
  std::optional<interp::TestInput> InitialInput;
  /// Seed corpus executed (and expanded) before directed generation — the
  /// Section 7 mechanism for learning hard-coded hash pairs "by starting
  /// the testing session with a representative set of well-formed inputs".
  std::vector<interp::TestInput> SeedInputs;
  int64_t RandomLo = 0;
  int64_t RandomHi = 99;
  uint64_t Seed = 42;
  /// Read by nothing: the search runs on one thread. Kept only because
  /// perfbench/replay.cpp still sets it; it is deleted together with
  /// perfbench's `jobs` column.
  unsigned Jobs = 1;
  smt::SolverOptions SolverOpts;
  ValidityOptions ValidityOpts;
  /// Emit a `heartbeat` trace event (tests/s, solver checks/s, frontier
  /// size) at most every this many milliseconds, sampled at loop
  /// boundaries of the search. 0 (default) disables the heartbeat; it is
  /// also inert without a trace sink.
  uint64_t ProgressEveryMs = 0;
  /// Wall-clock stop controls (docs/robustness.md). The constructor
  /// threads them into SolverOpts and Limits (unless those carry their own
  /// already), so one deadline bounds the whole stack: search loop, solver
  /// decision loops, validity grounding, and program execution. Inactive
  /// by default — the search then never reads the clock.
  support::Deadline Deadline;
  support::CancelToken Cancel;
  /// A caller-owned query cache (hotg-serve's cross-session fabric, or a
  /// deadline-armed session's own cache; docs/serving.md). Null (the
  /// default) means no cache. When set, the search consults it keyed by
  /// CacheEpoch — the caller must guarantee that every search sharing an
  /// epoch runs an identical job configuration (program, entry, policy,
  /// options, seed, imported samples), which makes generation equality
  /// imply sample-table equality across those sessions. Cached answers
  /// are deterministic functions of the key and carry the work they cost,
  /// so a cache never changes tests, bugs, coverage or query stats. Must
  /// outlive the search.
  smt::QueryCache *SharedCache = nullptr;
  uint64_t CacheEpoch = 0;
};

/// One executed test.
struct TestRecord {
  interp::TestInput Input;
  interp::RunStatus Status = interp::RunStatus::Ok;
  /// The run took a different path than the path constraint predicted
  /// (only possible with unsound path constraints, Section 3.2).
  bool Diverged = false;
  /// Multi-step learning run (not derived from a satisfiable/valid query).
  bool Intermediate = false;
};

/// One distinct bug found.
struct BugRecord {
  interp::TestInput Input;
  interp::RunStatus Status = interp::RunStatus::Ok;
  lang::ErrorSiteId Site = ~0u; ///< Valid for ErrorHit.
  std::string Message;
  unsigned FoundAtTest = 0; ///< 1-based index of the discovering test.
};

/// Aggregate outcome of a search (also produced by the random baseline).
struct SearchResult {
  std::vector<TestRecord> Tests;
  std::vector<BugRecord> Bugs;
  Coverage Cov;
  unsigned Divergences = 0;
  unsigned SolverCalls = 0;
  unsigned ValidityCalls = 0;
  unsigned MultiStepRuns = 0;
  /// Work accumulated across every satisfiability query of the search (each
  /// query is charged to a fresh SolverStats, so budgets stay per-query;
  /// see docs/observability.md). Cache hits fold the cached work, so it is
  /// identical with and without a SharedCache.
  smt::SolverStats SolverQueryStats;
  /// Work accumulated across every validity query of the search.
  ValidityStats ValidityQueryStats;
  /// Why the search returned: None = the frontier drained naturally;
  /// anything else means this is a partial (but internally consistent)
  /// result — all tests, bugs, coverage and stats accumulated so far.
  support::StopReason Stopped = support::StopReason::None;
  /// Query retries performed after a query threw (an injected fault or a
  /// real failure; docs/robustness.md).
  unsigned InlineRetries = 0;

  bool foundErrorSite(lang::ErrorSiteId Site) const;
  bool foundStatus(interp::RunStatus Status) const;
  unsigned testsRun() const { return static_cast<unsigned>(Tests.size()); }
};

/// The directed search driver.
class DirectedSearch {
public:
  DirectedSearch(const lang::Program &Prog,
                 const interp::NativeRegistry &Natives,
                 std::string EntryName, SearchOptions Options = {});
  ~DirectedSearch(); // Out of line: SolverContext is incomplete here.

  /// Runs the search to budget exhaustion or frontier exhaustion.
  SearchResult run();

  /// The IOF table accumulated across all runs (HigherOrder policy).
  const smt::SampleTable &samples() const { return Samples; }

  /// The summary table accumulated across all runs (SummarizeCalls mode).
  const dse::SummaryTable &summaries() const { return Summaries; }

  /// Pre-loads IOF samples serialized by exportSamples() from an earlier
  /// session (Section 7's cross-session learning). Call before run().
  bool importSamples(std::string_view Text, std::string *Error = nullptr) {
    return Samples.deserialize(Text, Arena, Error);
  }

  /// Serializes the accumulated IOF table for reuse in later sessions.
  std::string exportSamples() const { return Samples.serialize(Arena); }

  /// The term arena shared by all runs (exposed for tests).
  smt::TermArena &arena() { return Arena; }

private:
  struct Candidate {
    /// Path constraint of the parent run (shared among its candidates).
    std::shared_ptr<const dse::PathConstraint> PC;
    /// Trace of the parent run.
    std::shared_ptr<const std::vector<interp::BranchEvent>> Trace;
    /// Input of the parent run (for completion of partial models).
    interp::TestInput ParentInput;
    /// Index of the entry to negate.
    size_t NegateIndex = 0;
    /// Monotonic identity, assigned at enqueue time (query attribution +
    /// the search-tree export of hotg-trace).
    uint64_t Id = 0;
    /// 1-based index of the test whose path spawned this candidate (query
    /// attribution + the search-tree export of hotg-trace).
    unsigned ParentTest = 0;
  };

  void seedFrontier();
  void expand(const dse::PathResult &Result, const interp::TestInput &Input,
              size_t Bound);
  /// Executes \p Input, records stats/coverage/bugs, and returns the path
  /// result; null when the test budget is exhausted.
  std::optional<dse::PathResult> runTest(const interp::TestInput &Input,
                                         bool Intermediate,
                                         const Candidate *From);
  interp::TestInput completeInput(const smt::Model &M,
                                  const interp::TestInput &Parent) const;
  bool processCandidate(const Candidate &Cand);

  /// Decides the effective engine (Options.Engine, forced to the
  /// interpreter for SummarizeCalls — the VM collects no summaries).
  vm::EngineKind effectiveEngine() const;
  /// One satisfiability query (classic policies), via Options.SharedCache
  /// when installed; folds work stats into SolverQueryStats.
  smt::SatAnswer solveSat(smt::TermId Alt);
  /// The sample-table generation a query sees now: the number of recorded
  /// IOF samples when validity queries read them as the antecedent
  /// (HigherOrder with UseAntecedent), else 0. Keys the query cache, the
  /// fault identity of a validity query, and candidateKey.
  uint64_t sampleGeneration() const;
  /// Structural identity of a candidate for frontier deduplication:
  /// (ALT fingerprint, sample generation, parent input cells). Two
  /// candidates with equal keys see byte-identical solver queries and
  /// complete to the same input, so the second is skipped.
  std::tuple<uint64_t, uint64_t, uint64_t, std::vector<int64_t>>
  candidateKey(smt::TermId Alt, const interp::TestInput &Parent) const;
  /// One POST(Alt) validity query (HigherOrder), via Options.SharedCache
  /// when installed; folds work stats into ValidityQueryStats.
  ValidityAnswer solveValidity(smt::TermId Alt);
  /// solveSat or solveValidity (\p Solve) wrapped in the bounded
  /// inline-retry loop of docs/robustness.md: a thrown fault (a
  /// satisfiability one also drops the incremental context) is retried;
  /// after MaxInlineRetries the answer degrades to Unknown (the candidate
  /// is abandoned, the search continues).
  template <typename AnswerT>
  AnswerT solveGuarded(smt::TermId Alt,
                       AnswerT (DirectedSearch::*Solve)(smt::TermId));
  /// Emits a `heartbeat` trace event when Options.ProgressEveryMs elapsed
  /// since the last one (no-op without a sink or with ProgressEveryMs 0).
  /// Called at search loop boundaries.
  void maybeEmitHeartbeat();

  const lang::Program &Prog;
  const interp::NativeRegistry &Natives;
  std::string EntryName;
  SearchOptions Options;

  smt::TermArena Arena;
  smt::SampleTable Samples;
  smt::SampleTable EmptySamples;
  dse::SummaryTable Summaries;
  /// The execution engine behind every program run (effectiveEngine()).
  std::unique_ptr<vm::IExecEngine> Engine;
  interp::InputLayout Layout;

  std::deque<Candidate> Frontier;
  std::set<std::vector<int64_t>> SeenInputs;
  /// Keys of candidates already evaluated (see candidateKey); later
  /// structural duplicates are skipped ("search.candidates_deduped").
  std::set<std::tuple<uint64_t, uint64_t, uint64_t, std::vector<int64_t>>>
      EvaluatedCandidates;
  SearchResult Result;
  /// Long-lived incremental context for the satisfiability queries,
  /// retargeted per query; created lazily. Its per-query stats do not
  /// depend on which queries ran before (docs/solver.md).
  std::unique_ptr<smt::SolverContext> SatCtx;
  /// Long-lived validity solver for the higher-order queries, created
  /// lazily; each query leaves it as a fresh one would be.
  std::unique_ptr<ValiditySolver> Validity;
  uint64_t NextCandidateId = 0;
  /// Heartbeat sampling state (maybeEmitHeartbeat): search start time,
  /// plus time and counter values at the previous beat for the
  /// per-interval rates.
  uint64_t SearchStartNs = 0;
  uint64_t LastBeatNs = 0;
  uint64_t LastBeatTests = 0;
  uint64_t LastBeatChecks = 0;
};

/// Blackbox random testing baseline (Section 7's comparison point): \p
/// NumTests runs with uniformly random cells in [Lo, Hi], executed on the
/// bytecode VM.
SearchResult runRandomSearch(const lang::Program &Prog,
                             const interp::NativeRegistry &Natives,
                             std::string_view EntryName, unsigned NumTests,
                             int64_t Lo, int64_t Hi, uint64_t Seed = 42,
                             interp::RunLimits Limits = {});

/// The canonical human-readable report of a search result — the exact
/// bytes hotg-run has always printed (summary line, bug lines, stop
/// reason). hotg-serve returns the same rendering in its job responses so
/// the CI smoke can assert byte-identity between the daemon and the
/// one-shot CLI. \p PolicyName is the user-facing policy string
/// ("higher-order", "random", ...).
std::string renderSearchReport(std::string_view PolicyName,
                               const SearchResult &Result);

/// True when \p Result is partial: the search stopped on a deadline or
/// cancellation, or some test run was truncated by the deadline. This is
/// the condition behind hotg-run's exit code 2 and hotg-serve's
/// `degraded` job status.
bool searchDegraded(const SearchResult &Result);

} // namespace hotg::core

#endif // HOTG_CORE_SEARCH_H
