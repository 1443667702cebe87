//===- core/ValiditySolver.cpp - Test generation from validity proofs -----------===//

#include "core/ValiditySolver.h"

#include "smt/Linear.h"
#include "smt/SolverContext.h"
#include "smt/Subst.h"
#include "smt/Simplify.h"
#include "smt/Supports.h"
#include "support/Deadline.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Support.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <unordered_set>

using namespace hotg;
using namespace hotg::core;
using namespace hotg::smt;

const char *hotg::core::validityStatusName(ValidityStatus Status) {
  switch (Status) {
  case ValidityStatus::Valid:
    return "valid";
  case ValidityStatus::NotValid:
    return "not-valid";
  case ValidityStatus::NeedsSamples:
    return "needs-samples";
  case ValidityStatus::Unknown:
    return "unknown";
  }
  HOTG_UNREACHABLE("unknown validity status");
}

namespace {

/// One way to justify a UF application in a strategy.
struct GroundingChoice {
  enum class Kind : uint8_t {
    Sample,  ///< Arguments bound to a recorded sample tuple.
    Disjunct,///< A summary disjunct instantiated at the arguments.
    PairWith,///< Arguments bound to an earlier application (congruence).
    Unbound, ///< Left universal; literals must not depend on it.
  } ChoiceKind = Kind::Unbound;
  size_t SampleIndex = 0; ///< Into the per-function sample list.
  size_t DisjunctIndex = 0; ///< Into the summary's disjunct list.
  size_t PeerApp = 0;     ///< Into the support's application list.
};

/// Result of verifying one model against the ∀-semantics.
struct ForcednessResult {
  bool Forced = false;
  std::vector<LearnRequest> Learn; ///< Non-empty when only learning blocks.
  bool HardFailure = false;        ///< A literal is outright not forceable.
};

class SupportValidity {
public:
  SupportValidity(TermArena &Arena, const SampleTable &Samples,
                  const ValidityOptions &Options, ValidityStats &Stats)
      : Arena(Arena), Samples(Samples), Options(Options), Stats(Stats),
        Ctx(Arena, contextOptions(Options, Samples)) {}

  /// Per-support outcome.
  struct Outcome {
    ValidityStatus Status = ValidityStatus::NotValid;
    Model ModelValue;
    std::vector<LearnRequest> Learn;
  };

  Outcome solve(const std::vector<TermId> &Literals) {
    // Fault site: once per support enumeration, before anything is
    // asserted, so a throw leaves no state behind (the caller retries the
    // whole checkPost) and fires whether or not any grounding reaches the
    // inner solver.
    support::maybeInjectFault(support::FaultSite::ValidityGround);
    Outcome Result;

    // Seed the worklist with the support's UF applications and the query
    // with its literals. Grounding choices may introduce further
    // applications (nested summaries, unknown functions inside disjunct
    // bodies); those join the worklist as they appear.
    Apps.clear();
    AppSamples.clear();
    AppDisjuncts.clear();
    AppPeers.clear();
    Choices.clear();
    Query = Literals;
    DeterminedApps.clear();
    OpaqueEntries = 0;

    std::vector<TermId> Seen;
    for (TermId Lit : Literals)
      Arena.collectApps(Lit, Seen);
    for (TermId App : Seen)
      registerApp(App);

    bool SawUnknown = false;
    std::optional<Outcome> Learnable;
    bool Found = false;
    if (assertQuerySince(0))
      Found = enumerate(0, Result, Learnable, SawUnknown);
    else
      pruneSubtree(0, SawUnknown);
    while (Ctx.numScopes() != 0)
      Ctx.pop();
    if (Found)
      return Result;
    if (Learnable && Options.AllowLearning) {
      Learnable->Status = ValidityStatus::NeedsSamples;
      return *Learnable;
    }
    Result.Status =
        SawUnknown ? ValidityStatus::Unknown : ValidityStatus::NotValid;
    return Result;
  }

private:
  /// Maximum applications considered in one support (bounds nested-summary
  /// expansion).
  static constexpr size_t MaxApps = 24;

  static SolverOptions contextOptions(const ValidityOptions &Options,
                                      const SampleTable &Samples) {
    SolverOptions CtxOpts = Options.SolverOpts;
    CtxOpts.Samples = &Samples;
    return CtxOpts;
  }

  /// Adds \p App to the worklist if new. Returns false when the cap is
  /// hit.
  bool registerApp(TermId App) {
    for (TermId Existing : Apps)
      if (Existing == App)
        return true;
    if (Apps.size() >= MaxApps)
      return false;
    smt::FuncId Func = Arena.funcIdOf(App);
    std::vector<size_t> Peers;
    for (size_t J = 0; J != Apps.size(); ++J)
      if (Arena.funcIdOf(Apps[J]) == Func)
        Peers.push_back(J);
    Apps.push_back(App);
    AppSamples.push_back(Samples.samplesFor(Func));
    if (Options.Summaries && Options.Summaries->isSummary(Func))
      AppDisjuncts.push_back(Options.Summaries->disjunctsFor(Func));
    else
      AppDisjuncts.emplace_back();
    AppPeers.push_back(std::move(Peers));
    Choices.emplace_back();
    return true;
  }

  /// Appends the constraints of choosing \p C for Apps[Index] to the
  /// query and registers any applications those constraints introduce.
  /// Asserts nothing. Returns false when the application cap is exceeded.
  bool pushChoice(size_t Index, const GroundingChoice &C) {
    size_t QMark = Query.size();
    Choices[Index] = C;
    // Copy the argument spans: the mkEq/mkIntConst/substituteVars calls
    // below intern terms, which may reallocate the arena's shared operand
    // pool under a live operands() span.
    auto ArgsSpan = Arena.operands(Apps[Index]);
    std::vector<TermId> Args(ArgsSpan.begin(), ArgsSpan.end());
    if (C.ChoiceKind == GroundingChoice::Kind::Sample) {
      const Sample &S = AppSamples[Index][C.SampleIndex];
      assert(S.Args.size() == Args.size() && "arity mismatch in samples");
      for (size_t A = 0; A != Args.size(); ++A)
        Query.push_back(Arena.mkEq(Args[A], Arena.mkIntConst(S.Args[A])));
    } else if (C.ChoiceKind == GroundingChoice::Kind::Disjunct) {
      // Section 8: instantiate the summary disjunct at the actual
      // arguments — the app is then determined by the callee's code.
      const dse::SummaryDisjunct &D = AppDisjuncts[Index][C.DisjunctIndex];
      const auto &Formals =
          Options.Summaries->formalsOf(Arena.funcIdOf(Apps[Index]));
      VarSubstitution Subst;
      for (size_t A = 0; A != Args.size(); ++A)
        Subst[Formals[A]] = Args[A];
      Query.push_back(substituteVars(Arena, D.Pre, Subst));
      Query.push_back(
          Arena.mkEq(Apps[Index], substituteVars(Arena, D.Out, Subst)));
      DeterminedApps.insert(Apps[Index]);
    } else if (C.ChoiceKind == GroundingChoice::Kind::PairWith) {
      auto PeerSpan = Arena.operands(Apps[C.PeerApp]);
      std::vector<TermId> PeerArgs(PeerSpan.begin(), PeerSpan.end());
      for (size_t A = 0; A != Args.size(); ++A)
        Query.push_back(Arena.mkEq(Args[A], PeerArgs[A]));
    }
    // Nested applications introduced by the instantiation join the
    // worklist so they get grounded too (the compositional recursion).
    std::vector<TermId> Fresh;
    for (size_t Q = QMark; Q != Query.size(); ++Q)
      Arena.collectApps(Query[Q], Fresh);
    for (TermId App : Fresh)
      if (!registerApp(App))
        return false;
    return true;
  }

  /// How far to roll back when a grounding choice is undone.
  struct ChoiceMark {
    size_t QuerySize;
    size_t NumApps;
    size_t NumScopes;
    size_t OpaqueEntries;
  };

  ChoiceMark mark() const {
    return {Query.size(), Apps.size(), Ctx.numScopes(), OpaqueEntries};
  }

  /// Undoes choice \p C for Apps[Index]: pops its scopes, shrinks the
  /// query and drops worklist growth.
  void undo(const ChoiceMark &M, size_t Index, const GroundingChoice &C) {
    while (Ctx.numScopes() > M.NumScopes)
      Ctx.pop();
    OpaqueEntries = M.OpaqueEntries;
    Query.resize(M.QuerySize);
    if (C.ChoiceKind == GroundingChoice::Kind::Disjunct)
      DeterminedApps.erase(Apps[Index]);
    Apps.resize(M.NumApps);
    AppSamples.resize(M.NumApps);
    AppDisjuncts.resize(M.NumApps);
    AppPeers.resize(M.NumApps);
    Choices.resize(M.NumApps);
  }

  /// Asserts the query entries Query[From...] on the context, one literal
  /// per scope, in the order simplify(mkAnd(Query)) lists them: a `true`
  /// literal is dropped, a literal already on the stack is skipped, and a
  /// conjunction contributes its conjuncts in place (the one departure
  /// from that order: simplify would list a summary precondition's
  /// conjuncts after every other entry). A disjunction cannot be asserted;
  /// it makes the grounding opaque, and its leaves are then checked as a
  /// formula. Returns false when the stack is refuted — by a `false`
  /// literal or at assert time — which refutes every grounding below.
  bool assertQuerySince(size_t From) {
    std::vector<TermId> Work;
    for (size_t Q = From; Q != Query.size(); ++Q) {
      Work.assign(1, toNNF(Arena, Query[Q]));
      while (!Work.empty()) {
        TermId T = Work.back();
        Work.pop_back();
        switch (Arena.kind(T)) {
        case TermKind::BoolConst:
          if (!Arena.boolConstValue(T))
            return false;
          continue;
        case TermKind::And: {
          auto Ops = Arena.operands(T);
          Work.insert(Work.end(), Ops.rbegin(), Ops.rend());
          continue;
        }
        case TermKind::Or:
          ++OpaqueEntries;
          continue;
        default:
          break;
        }
        std::span<const TermId> Stack = Ctx.literals();
        if (std::find(Stack.begin(), Stack.end(), T) != Stack.end())
          continue;
        Ctx.push();
        Ctx.assertLiteral(T);
        if (Ctx.refuted())
          return false;
      }
    }
    return true;
  }

  /// True (and SawUnknown set) once the grounding budget is spent: every
  /// node of the enumeration checks this on entry.
  bool budgetSpent(bool &SawUnknown) const {
    if (Stats.GroundingsTried + Stats.GroundingsPruned < Options.MaxGroundings)
      return false;
    SawUnknown = true;
    return true;
  }

  /// Calls \p Visit on each grounding choice for Apps[Index] in
  /// enumeration order until it returns true: summary disjuncts first
  /// (they cover whole argument regions), then sample bindings, then
  /// congruence pairings, then unbound.
  template <typename VisitFn> bool forEachChoice(size_t Index, VisitFn Visit) {
    for (size_t D = 0; D != AppDisjuncts[Index].size(); ++D)
      if (Visit(GroundingChoice{GroundingChoice::Kind::Disjunct, 0, D, 0}))
        return true;
    for (size_t S = 0; S != AppSamples[Index].size(); ++S)
      if (Visit(GroundingChoice{GroundingChoice::Kind::Sample, S, 0, 0}))
        return true;
    for (size_t P = 0; P != AppPeers[Index].size(); ++P)
      if (Visit(GroundingChoice{GroundingChoice::Kind::PairWith, 0, 0,
                                AppPeers[Index][P]}))
        return true;
    return Visit(GroundingChoice{});
  }

  /// Depth-first enumeration over grounding choices for Apps[Index...],
  /// with the stack of every choice so far asserted. Returns true when a
  /// Valid outcome was found (stored in Result).
  bool enumerate(size_t Index, Outcome &Result,
                 std::optional<Outcome> &Learnable, bool &SawUnknown) {
    if (budgetSpent(SawUnknown))
      return false;
    // The grounding enumeration is the validity solver's long loop; poll
    // the stop controls here (the inner solver polls its own decision
    // loop). Guarded so the default configuration never reads the clock.
    const SolverOptions &SO = Options.SolverOpts;
    if ((SO.Deadline.active() || SO.Cancel.valid()) &&
        support::stopRequested(SO.Deadline, SO.Cancel) !=
            support::StopReason::None) {
      SawUnknown = true;
      return false;
    }
    if (Index == Apps.size())
      return tryGrounding(Result, Learnable, SawUnknown);

    return forEachChoice(Index, [&](const GroundingChoice &C) {
      ChoiceMark M = mark();
      bool Found = false;
      if (C.ChoiceKind == GroundingChoice::Kind::Sample &&
          sampleExcluded(Index, AppSamples[Index][C.SampleIndex])) {
        // Cut before anything is asserted. Applications nested in the
        // arguments still go through pushChoice, which registers them (or
        // hits the application cap) as the assert-time path would.
        if (!argsHoldApps(Index) || pushChoice(Index, C))
          pruneSubtree(Index + 1, SawUnknown);
        else
          SawUnknown = true;
      } else if (!pushChoice(Index, C))
        SawUnknown = true;
      else if (!assertQuerySince(M.QuerySize))
        pruneSubtree(Index + 1, SawUnknown);
      else
        Found = enumerate(Index + 1, Result, Learnable, SawUnknown);
      if (!Found)
        undo(M, Index, C);
      return Found;
    });
  }

  /// True when the propagated domains already refute binding Apps[Index]
  /// to sample \p S: an argument atom's domain excludes the sampled
  /// argument, or the application's domain excludes the sampled output.
  /// Asserting the binding would empty that domain: an argument at once,
  /// the output once the equalities fix every argument (each is a
  /// constant or an atom) and the sample pins the application. So the
  /// assert-time path cuts the same choice (docs/solver.md).
  bool sampleExcluded(size_t Index, const Sample &S) const {
    auto Args = Arena.operands(Apps[Index]);
    bool ArgsFixed = true;
    for (size_t A = 0; A != Args.size(); ++A) {
      if (Ctx.excludes(Args[A], S.Args[A]))
        return true;
      TermKind Kind = Arena.kind(Args[A]);
      ArgsFixed &= Kind == TermKind::IntConst || Kind == TermKind::IntVar ||
                   Kind == TermKind::UFApp;
    }
    return ArgsFixed && Ctx.excludes(Apps[Index], S.Output);
  }

  /// True when an argument of Apps[Index] contains a UF application.
  bool argsHoldApps(size_t Index) const {
    for (TermId Arg : Arena.operands(Apps[Index])) {
      TermKind Kind = Arena.kind(Arg);
      if (Kind != TermKind::IntConst && Kind != TermKind::IntVar &&
          Arena.containsApp(Arg))
        return true;
    }
    return false;
  }

  /// Counts every grounding below a refuted stack as pruned, without the
  /// solver. The refutation is sticky (each leaf's stack extends the
  /// refuted one), so each of those groundings would have answered Unsat:
  /// they cost one budget unit apiece, exactly as the per-leaf loop would
  /// charge them, including the SawUnknown it sets when the budget runs
  /// out inside the subtree. Without summary disjuncts the subtree is a
  /// fixed product, ∏(samples + peers + 1) over Apps[Index...]; a
  /// disjunct may register further applications, so such subtrees are
  /// walked choice by choice.
  void pruneSubtree(size_t Index, bool &SawUnknown) {
    bool Fixed =
        std::all_of(AppDisjuncts.begin() + Index, AppDisjuncts.end(),
                    [](const auto &Disjuncts) { return Disjuncts.empty(); });
    if (!Fixed) {
      if (budgetSpent(SawUnknown))
        return;
      forEachChoice(Index, [&](const GroundingChoice &C) {
        ChoiceMark M = mark();
        if (pushChoice(Index, C))
          pruneSubtree(Index + 1, SawUnknown);
        else
          SawUnknown = true;
        undo(M, Index, C);
        return false;
      });
      return;
    }
    uint64_t Spent = Stats.GroundingsTried + Stats.GroundingsPruned;
    uint64_t Left = Options.MaxGroundings > Spent
                        ? Options.MaxGroundings - Spent
                        : 0;
    // Saturates at Left + 1: all that matters is whether the subtree
    // outgrows the budget.
    uint64_t Leaves = 1;
    for (size_t I = Index; I != Apps.size(); ++I)
      Leaves = std::min<uint64_t>(
          Leaves * (AppSamples[I].size() + AppPeers[I].size() + 1), Left + 1);
    Stats.GroundingsPruned += static_cast<unsigned>(std::min(Leaves, Left));
    if (Leaves > Left)
      SawUnknown = true;
  }

  /// Compact signature of the complete grounding under trial: how many
  /// applications each choice kind covers ("d1s2p0u0" = one disjunct, two
  /// samples). The trace schema calls this the grounding family.
  std::string groundingFamily() const {
    size_t Counts[4] = {};
    for (const GroundingChoice &C : Choices)
      ++Counts[static_cast<size_t>(C.ChoiceKind)];
    return formatString(
        "d%zus%zup%zuu%zu",
        Counts[static_cast<size_t>(GroundingChoice::Kind::Disjunct)],
        Counts[static_cast<size_t>(GroundingChoice::Kind::Sample)],
        Counts[static_cast<size_t>(GroundingChoice::Kind::PairWith)],
        Counts[static_cast<size_t>(GroundingChoice::Kind::Unbound)]);
  }

  /// Checks the complete grounding whose literals are asserted.
  bool tryGrounding(Outcome &Result, std::optional<Outcome> &Learnable,
                    bool &SawUnknown) {
    ++Stats.GroundingsTried;
    // Tag the inner solver checks of this grounding with its choice
    // signature, so solver_check events can be grouped by grounding
    // family offline. Only when a sink is attached: the signature
    // allocates.
    std::optional<telemetry::ScopedAttribution> Attribution;
    if (telemetry::sink()) {
      Attribution.emplace();
      telemetry::queryAttribution().GroundingFamily = groundingFamily();
    }
    // The stack already holds the grounding's literals, shared with every
    // sibling grounding that made the same earlier choices. An opaque
    // grounding is checked as a formula in scratch contexts instead,
    // which leaves the stack untouched.
    SolverStats QueryStats;
    SatAnswer Answer =
        OpaqueEntries == 0
            ? Ctx.check(QueryStats)
            : Ctx.checkFormula(Arena.mkAnd(Query), QueryStats);
    if (Answer.Result == SatResult::Unknown)
      SawUnknown = true;
    if (Answer.Result != SatResult::Sat)
      return false;

    // Forcedness must cover the grounding constraints too: a disjunct's
    // body may reference applications of its own (nested summaries,
    // unknown functions), and those must be determined as well.
    ForcednessResult Forced =
        verifyForcedness(Query, Answer.ModelValue, DeterminedApps);
    if (Forced.Forced) {
      Result.Status = ValidityStatus::Valid;
      Result.ModelValue = std::move(Answer.ModelValue);
      if (!DeterminedApps.empty()) {
        telemetry::Registry::global()
            .counter("validity.summaries_applied")
            .add(DeterminedApps.size());
        if (telemetry::TraceSink *S = telemetry::sink()) {
          telemetry::Event E(telemetry::EventKind::SummaryApplied);
          E.set("applications", int64_t(DeterminedApps.size()));
          S->handle(E);
        }
      }
      return true;
    }
    if (!Forced.HardFailure && !Forced.Learn.empty() && !Learnable) {
      Outcome Candidate;
      Candidate.ModelValue = std::move(Answer.ModelValue);
      Candidate.Learn = std::move(Forced.Learn);
      Learnable = std::move(Candidate);
    }
    return false;
  }

  /// Checks that, under \p M, every query term holds for all values of
  /// the unsampled application classes. Handles boolean structure: a
  /// conjunction must be forced conjunct-wise; for a disjunction, the
  /// disjunct the model satisfies must be forced.
  /// Applications in \p DeterminedApps are pinned by summary disjuncts.
  ForcednessResult
  verifyForcedness(const std::vector<TermId> &Terms, const Model &M,
                   const std::unordered_set<TermId> &Determined) {
    ForcednessResult Result;
    Result.Forced = true;
    for (TermId Term : Terms) {
      checkTermForced(simplify(Arena, Term), M, Determined, Result);
      if (Result.HardFailure)
        return Result;
    }
    return Result;
  }

  void checkTermForced(TermId Term, const Model &M,
                       const std::unordered_set<TermId> &Determined,
                       ForcednessResult &Result) {
    switch (Arena.kind(Term)) {
    case TermKind::BoolConst:
      if (!Arena.boolConstValue(Term)) {
        Result.Forced = false;
        Result.HardFailure = true;
      }
      return;
    case TermKind::And:
      for (TermId Op : Arena.operands(Term)) {
        checkTermForced(Op, M, Determined, Result);
        if (Result.HardFailure)
          return;
      }
      return;
    case TermKind::Or: {
      // The model picked some satisfied disjunct; that one must be forced.
      for (TermId Op : Arena.operands(Term))
        if (M.evalBool(Arena, Op)) {
          checkTermForced(Op, M, Determined, Result);
          return;
        }
      Result.Forced = false;
      Result.HardFailure = true; // Model satisfies no disjunct.
      return;
    }
    case TermKind::Not: // simplify() pushes Not onto comparisons already;
    case TermKind::Implies:
      Result.Forced = false;
      Result.HardFailure = true;
      return;
    default:
      break;
    }

    auto Atom = normalizeComparison(Arena, Term);
    if (!Atom) {
      Result.Forced = false;
      Result.HardFailure = true;
      return;
    }
    // Group application monomials into universal classes keyed by
    // (function, evaluated arguments); sampled points and summary-pinned
    // applications are determined.
    std::map<std::pair<FuncId, std::vector<int64_t>>, int64_t> ClassCoeff;
    for (const LinearMonomial &Mono : Atom->Expr.Monomials) {
      if (Arena.kind(Mono.Atom) != TermKind::UFApp)
        continue;
      if (Determined.count(Mono.Atom))
        continue; // Pinned by an instantiated summary disjunct.
      FuncId Func = Arena.funcIdOf(Mono.Atom);
      std::vector<int64_t> Args;
      for (TermId Arg : Arena.operands(Mono.Atom))
        Args.push_back(M.evalInt(Arena, Arg));
      if (Samples.lookup(Func, Args))
        continue; // Determined by the antecedent.
      ClassCoeff[{Func, std::move(Args)}] += Mono.Coeff;
    }
    for (auto &[Key, Coeff] : ClassCoeff) {
      if (Coeff == 0)
        continue; // Cancels out: independent of the universal value.
      Result.Forced = false;
      // The offending application has concrete arguments under M —
      // sampling it there is the multi-step opportunity.
      Result.Learn.push_back({Key.first, Key.second});
    }
  }

  TermArena &Arena;
  const SampleTable &Samples;
  const ValidityOptions &Options;
  ValidityStats &Stats;

  std::vector<TermId> Apps;
  std::vector<std::vector<Sample>> AppSamples;
  std::vector<std::vector<dse::SummaryDisjunct>> AppDisjuncts;
  std::vector<std::vector<size_t>> AppPeers;
  std::vector<GroundingChoice> Choices;
  std::vector<TermId> Query;
  std::unordered_set<TermId> DeterminedApps;
  /// Disjunctions among the query entries (see assertQuerySince).
  size_t OpaqueEntries = 0;
  /// The assertion stack of every support and grounding of this query.
  SolverContext Ctx;
};

} // namespace

namespace {

/// The Section 7 "partial implementation": rewrites `f(args) = c` literals
/// into the disjunction of sampled preimages `∧ args_i = c1_i` (handling
/// hash collisions), leaving everything else untouched.
class AdHocRewriter {
public:
  AdHocRewriter(TermArena &Arena, const SampleTable &Samples)
      : Arena(Arena), Samples(Samples) {}

  TermId rewrite(TermId Term) {
    switch (Arena.kind(Term)) {
    case TermKind::And:
    case TermKind::Or: {
      // Copy before recursing: rewrite() interns, which may reallocate
      // the arena's shared operand pool under a live operands() span.
      auto Span = Arena.operands(Term);
      std::vector<TermId> Ops(Span.begin(), Span.end());
      for (TermId &Op : Ops)
        Op = rewrite(Op);
      return Arena.kind(Term) == TermKind::And ? Arena.mkAnd(Ops)
                                               : Arena.mkOr(Ops);
    }
    case TermKind::Eq:
      if (TermId Inverted = tryInvert(Term); Inverted != InvalidTerm)
        return Inverted;
      return Term;
    default:
      return Term;
    }
  }

private:
  /// Matches an equality between exactly one UF application (coefficient
  /// ±1) and a UF-free remainder — `f(args) = c` and its natural
  /// generalization `f(args) = e(X)` — and returns the disjunction over
  /// the recorded samples: `∧ args_i = c1_i ∧ e(X) = output`. Returns
  /// InvalidTerm when the literal has a different shape.
  TermId tryInvert(TermId Eq) {
    auto Atom = normalizeComparison(Arena, Eq);
    if (!Atom || Atom->Rel != LinearRelKind::Eq)
      return InvalidTerm;
    const LinearMonomial *AppMono = nullptr;
    for (const LinearMonomial &M : Atom->Expr.Monomials) {
      if (Arena.kind(M.Atom) != TermKind::UFApp)
        continue;
      if (AppMono)
        return InvalidTerm; // Two applications: beyond the procedure.
      AppMono = &M;
    }
    if (!AppMono || (AppMono->Coeff != 1 && AppMono->Coeff != -1))
      return InvalidTerm;

    // Rest = Expr - AppMono: coeff*app + Rest = 0 → app = -Rest/coeff.
    LinearExpr Rest = Atom->Expr;
    Rest.add(-AppMono->Coeff, AppMono->Atom);
    TermId AppValue = linearExprToTerm(Arena, [&] {
      LinearExpr Negated;
      Negated.addScaled(Rest, AppMono->Coeff == 1 ? -1 : 1);
      return Negated;
    }());

    FuncId Func = Arena.funcIdOf(AppMono->Atom);
    // Copy the argument span: the mkEq/mkIntConst calls below intern,
    // which may reallocate the arena's shared operand pool.
    auto ArgsSpan = Arena.operands(AppMono->Atom);
    std::vector<TermId> Args(ArgsSpan.begin(), ArgsSpan.end());
    std::vector<TermId> Disjuncts;
    for (const Sample &S : Samples.samplesFor(Func)) {
      std::vector<TermId> Conjuncts;
      for (size_t I = 0; I != Args.size(); ++I)
        Conjuncts.push_back(
            Arena.mkEq(Args[I], Arena.mkIntConst(S.Args[I])));
      Conjuncts.push_back(
          Arena.mkEq(AppValue, Arena.mkIntConst(S.Output)));
      Disjuncts.push_back(Arena.mkAnd(Conjuncts));
    }
    // No samples: the procedure cannot satisfy this literal.
    return Arena.mkOr(Disjuncts);
  }

  TermArena &Arena;
  const SampleTable &Samples;
};

} // namespace

ValidityAnswer ValiditySolver::checkAdHoc(TermId PathCondition) {
  ValidityAnswer Answer;
  TermId NNF = toNNF(Arena, PathCondition);
  AdHocRewriter Rewriter(Arena, Samples);
  TermId Rewritten = simplify(Arena, Rewriter.rewrite(NNF));

  SolverOptions InnerOpts = Options.SolverOpts;
  InnerOpts.Samples = &Samples;
  SolverContext Inner(Arena, InnerOpts);
  ++Stats.GroundingsTried;
  SolverStats InnerStats;
  SatAnswer Sat = Inner.checkFormula(Rewritten, InnerStats);
  switch (Sat.Result) {
  case SatResult::Sat:
    // Note: unlike ground-then-verify, nothing checks that remaining UF
    // applications are forced — the ad-hoc method "is far from simulating
    // the full reasoning power of T ∪ T_EUF" (Section 7) and may yield
    // tests that diverge.
    Answer.Status = ValidityStatus::Valid;
    Answer.ModelValue = std::move(Sat.ModelValue);
    return Answer;
  case SatResult::Unsat:
    Answer.Status = ValidityStatus::NotValid;
    return Answer;
  case SatResult::Unknown:
    Answer.Status = ValidityStatus::Unknown;
    Answer.Reason = Sat.Reason;
    return Answer;
  }
  HOTG_UNREACHABLE("unknown sat result");
}

ValidityAnswer ValiditySolver::checkPost(TermId PathCondition) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::PhaseTimer &CheckTimer = Reg.timer("validity.check");
  static telemetry::Histogram &CheckHist = Reg.histogram("validity.check");
  static telemetry::Counter &Queries = Reg.counter("validity.queries");
  telemetry::ScopedSpan Span("validity.check");
  telemetry::ScopedTimer Timer(CheckTimer);
  Queries.add();

  ValidityAnswer Answer = checkPostImpl(PathCondition);

  Reg.counter("validity.groundings_tried").add(Stats.GroundingsTried);
  Reg.counter("validity.groundings_pruned").add(Stats.GroundingsPruned);
  switch (Answer.Status) {
  case ValidityStatus::Valid:
    Reg.counter("validity.strategy_found").add();
    break;
  case ValidityStatus::NeedsSamples:
    // No one-shot strategy: the search falls back to multi-step learning.
    Reg.counter("validity.fallback_taken").add();
    break;
  case ValidityStatus::NotValid:
    Reg.counter("validity.not_valid").add();
    break;
  case ValidityStatus::Unknown:
    Reg.counter("validity.unknown").add();
    break;
  }

  CheckHist.note(Timer.elapsedNs());
  if (telemetry::TraceSink *S = telemetry::sink()) {
    telemetry::Event E(telemetry::EventKind::ValidityQuery);
    E.set("status", validityStatusName(Answer.Status));
    E.set("supports", int64_t(Stats.SupportsExplored));
    E.set("groundings_tried", int64_t(Stats.GroundingsTried));
    E.set("groundings_pruned", int64_t(Stats.GroundingsPruned));
    E.set("learn_requests", int64_t(Answer.Learn.size()));
    E.set("ns", int64_t(Timer.elapsedNs()));
    if (!Answer.Reason.empty())
      E.set("reason", Answer.Reason);
    telemetry::attachAttribution(E);
    S->handle(E);
  }
  return Answer;
}

ValidityAnswer ValiditySolver::checkPostImpl(TermId PathCondition) {
  Stats = ValidityStats{};
  if (Options.Mode == ValidityOptions::StrategyMode::AdHocInversion)
    return checkAdHoc(PathCondition);

  ValidityAnswer Answer;
  TermId NNF = toNNF(Arena, PathCondition);
  if (Arena.isBoolConst(NNF)) {
    Answer.Status = Arena.boolConstValue(NNF) ? ValidityStatus::Valid
                                              : ValidityStatus::NotValid;
    return Answer;
  }

  SupportValidity Support(Arena, Samples, Options, Stats);
  bool SawUnknown = false;
  std::optional<ValidityAnswer> Learnable;

  SupportEnumStats EnumStats = forEachSupport(
      Arena, NNF, Options.MaxSupports,
      [&](const std::vector<TermId> &Literals) {
        if (support::stopRequested(Options.SolverOpts.Deadline,
                                   Options.SolverOpts.Cancel) !=
            support::StopReason::None) {
          SawUnknown = true;
          return true; // Halt the support enumeration.
        }
        auto Outcome = Support.solve(Literals);
        switch (Outcome.Status) {
        case ValidityStatus::Valid:
          Answer.Status = ValidityStatus::Valid;
          Answer.ModelValue = std::move(Outcome.ModelValue);
          return true;
        case ValidityStatus::NeedsSamples:
          if (!Learnable) {
            ValidityAnswer Candidate;
            Candidate.Status = ValidityStatus::NeedsSamples;
            Candidate.ModelValue = std::move(Outcome.ModelValue);
            Candidate.Learn = std::move(Outcome.Learn);
            Learnable = std::move(Candidate);
          }
          return false;
        case ValidityStatus::Unknown:
          SawUnknown = true;
          return false;
        case ValidityStatus::NotValid:
          return false;
        }
        return false;
      });
  Stats.SupportsExplored = EnumStats.SupportsTried;

  if (Answer.Status == ValidityStatus::Valid)
    return Answer;
  if (Learnable)
    return *Learnable;
  Answer.Status = SawUnknown || EnumStats.BudgetExhausted
                      ? ValidityStatus::Unknown
                      : ValidityStatus::NotValid;
  if (Answer.Status == ValidityStatus::Unknown) {
    // Stop controls are monotone within a query, so post-hoc
    // classification is exact (mirrors the sat solver's unknownReason).
    const SolverOptions &SO = Options.SolverOpts;
    if (SO.Cancel.cancelled())
      Answer.Reason = "cancelled";
    else if (SO.Deadline.expired())
      Answer.Reason = "deadline expired";
    else if (Stats.GroundingsTried + Stats.GroundingsPruned >=
             Options.MaxGroundings)
      Answer.Reason = "grounding budget exhausted";
    else if (EnumStats.BudgetExhausted)
      Answer.Reason = "support budget exhausted";
    else
      Answer.Reason = "inner solver unknown";
  }
  return Answer;
}
