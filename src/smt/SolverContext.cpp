//===- smt/SolverContext.cpp - Incremental solver contexts ------------------===//

#include "smt/SolverContext.h"

#include "smt/Simplify.h"
#include "smt/Supports.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "support/Support.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace hotg;
using namespace hotg::smt;

const char *hotg::smt::satResultName(SatResult Result) {
  switch (Result) {
  case SatResult::Sat:
    return "sat";
  case SatResult::Unsat:
    return "unsat";
  case SatResult::Unknown:
    return "unknown";
  }
  HOTG_UNREACHABLE("unknown sat result");
}

namespace {

/// Reduces the Eq rows of \p Rows to integer echelon form (Gauss–Jordan with
/// cross-multiplication and gcd normalization). Returns false when a row is
/// integer-infeasible. Rows whose cross-multiplication would overflow 64
/// bits are left untouched — elimination is an optimization, not required
/// for soundness.
bool normalizeEqRows(std::vector<LinearAtom> &Rows,
                     const std::vector<size_t> &EqIdx) {
  for (size_t Row : EqIdx) {
    LinearExpr &Expr = Rows[Row].Expr;
    if (Expr.Monomials.empty()) {
      if (Expr.Constant != 0)
        return false; // 0 = k with k != 0.
      continue;
    }
    int64_t G = 0;
    for (const LinearMonomial &M : Expr.Monomials)
      G = std::gcd(G, std::abs(M.Coeff));
    if (G > 1) {
      if (Expr.Constant % G != 0)
        return false; // No integer solutions.
      for (LinearMonomial &M : Expr.Monomials)
        M.Coeff /= G;
      Expr.Constant /= G;
    }
  }
  return true;
}

bool eliminateEqualities(std::vector<LinearAtom> &Rows) {
  std::vector<size_t> EqIdx;
  for (size_t I = 0; I != Rows.size(); ++I)
    if (Rows[I].Rel == LinearRelKind::Eq)
      EqIdx.push_back(I);
  if (EqIdx.size() < 2)
    return normalizeEqRows(Rows, EqIdx);

  std::vector<TermId> UsedPivots;
  for (size_t Row : EqIdx) {
    LinearExpr &Pivot = Rows[Row].Expr;
    // Choose the pivot atom with the smallest |coeff| not yet used.
    TermId PivotAtom = InvalidTerm;
    int64_t PivotCoeff = 0;
    for (const LinearMonomial &M : Pivot.Monomials) {
      bool Used = std::find(UsedPivots.begin(), UsedPivots.end(), M.Atom) !=
                  UsedPivots.end();
      if (Used)
        continue;
      if (PivotAtom == InvalidTerm ||
          std::abs(M.Coeff) < std::abs(PivotCoeff)) {
        PivotAtom = M.Atom;
        PivotCoeff = M.Coeff;
      }
    }
    if (PivotAtom == InvalidTerm)
      continue; // Fully reduced (or empty) row.
    UsedPivots.push_back(PivotAtom);

    for (size_t Other : EqIdx) {
      if (Other == Row)
        continue;
      LinearExpr &Target = Rows[Other].Expr;
      int64_t C = Target.coeffOf(PivotAtom);
      if (C == 0)
        continue;
      // Target := PivotCoeff * Target - C * Pivot, checked.
      LinearExpr Combined;
      bool Overflow = false;
      auto Fma = [&](int64_t A, int64_t B, int64_t D, int64_t E,
                     int64_t &Out) {
        int64_t P1, P2;
        if (__builtin_mul_overflow(A, B, &P1) ||
            __builtin_mul_overflow(D, E, &P2) ||
            __builtin_sub_overflow(P1, P2, &Out))
          Overflow = true;
      };
      for (const LinearMonomial &M : Target.Monomials) {
        int64_t NewCoeff;
        Fma(PivotCoeff, M.Coeff, C, Pivot.coeffOf(M.Atom), NewCoeff);
        if (Overflow)
          break;
        Combined.add(NewCoeff, M.Atom);
      }
      for (const LinearMonomial &M : Pivot.Monomials) {
        if (Target.coeffOf(M.Atom) != 0)
          continue; // Already combined above.
        int64_t NewCoeff;
        Fma(PivotCoeff, 0, C, M.Coeff, NewCoeff);
        if (Overflow)
          break;
        Combined.add(NewCoeff, M.Atom);
      }
      int64_t NewConst;
      Fma(PivotCoeff, Target.Constant, C, Pivot.Constant, NewConst);
      if (Overflow)
        continue; // Keep the original row.
      Combined.Constant = NewConst;
      Target = std::move(Combined);
    }
  }
  return normalizeEqRows(Rows, EqIdx);
}

/// One-step Fourier–Motzkin check: two inequalities whose left-hand sides
/// cancel refute each other when the combined constant is positive (catches
/// x < y ∧ y < x, which bound propagation cannot).
bool fourierMotzkinRefutes(const std::vector<LinearAtom> &Rows) {
  for (size_t I = 0; I != Rows.size(); ++I) {
    if (Rows[I].Rel != LinearRelKind::Le)
      continue;
    for (size_t J = I + 1; J != Rows.size(); ++J) {
      if (Rows[J].Rel != LinearRelKind::Le)
        continue;
      LinearExpr Sum = Rows[I].Expr;
      Sum.addScaled(Rows[J].Expr, 1);
      if (Sum.Monomials.empty() && Sum.Constant > 0)
        return true;
    }
  }
  return false;
}

/// Feeds the structural EUF content of \p LA into \p CC:
/// equalities/disequalities between two bare atoms, and bindings of a bare
/// atom to a constant. Returns false on congruence conflict.
bool assertRowInCC(TermArena &Arena, CongruenceClosure &CC,
                   const LinearAtom &LA) {
  if (LA.Expr.Monomials.size() == 2 && LA.Expr.Constant == 0) {
    const auto &M0 = LA.Expr.Monomials[0];
    const auto &M1 = LA.Expr.Monomials[1];
    if (M0.Coeff == 1 && M1.Coeff == -1) {
      if (LA.Rel == LinearRelKind::Eq && !CC.assertEqual(M0.Atom, M1.Atom))
        return false;
      if (LA.Rel == LinearRelKind::Ne && !CC.assertDistinct(M0.Atom, M1.Atom))
        return false;
    }
  } else if (LA.Expr.Monomials.size() == 1) {
    const auto &M0 = LA.Expr.Monomials[0];
    if (M0.Coeff == 1 || M0.Coeff == -1) {
      int64_t K = M0.Coeff == 1 ? -LA.Expr.Constant : LA.Expr.Constant;
      TermId KTerm = Arena.mkIntConst(K);
      if (LA.Rel == LinearRelKind::Eq && !CC.assertEqual(M0.Atom, KTerm))
        return false;
      if (LA.Rel == LinearRelKind::Ne && !CC.assertDistinct(M0.Atom, KTerm))
        return false;
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine: propagation and the check-time value search
//===----------------------------------------------------------------------===//

/// Decides one row system over the context's atom list. The engine never
/// mutates context state except through the domain vector it is handed
/// (the base domains at assert time, with \c Trail set so pop() can undo
/// the narrowing). Work is charged to the SolverStats it was built with
/// (per-query stats at check time, a discarded scratch at assert time).
///
/// Propagation is one worklist routine: a caller schedules the steps its
/// change can affect (wake/wakeRow/wakeAll), and every narrowing schedules
/// the steps that read the narrowed atom — its rows, the applications whose
/// arguments mention it, and its own congruence check when it is an
/// application. Each step only narrows, monotonically, so draining the
/// list reaches the same greatest fixpoint as sweeping every step until
/// nothing changes (docs/solver.md, "The scope stack").
class SolverContext::Engine {
public:
  enum class Outcome {
    Sat,      ///< Model found (verified).
    Refuted,  ///< Propagation proved the rows unsatisfiable.
    Exhausted ///< Budget or candidate exhaustion; no conclusion.
  };

  Engine(SolverContext &Ctx, const std::vector<LinearAtom> &Rows,
         const WatchLists &RowWatches, SolverStats &Stats)
      : Ctx(Ctx), Arena(Ctx.Arena), Options(Ctx.Options), Rows(Rows),
        RowWatches(RowWatches), NumAtoms(Ctx.Atoms.size()), Stats(Stats),
        RowQueued(Rows.size()), AppQueued(NumAtoms) {}

  /// (index, previous value) log for every narrowing, or null.
  std::vector<std::pair<size_t, Interval>> *Trail = nullptr;

  void wakeRow(size_t Row) {
    if (!RowQueued[Row]) {
      RowQueued[Row] = true;
      RowQueue.push_back(Row);
    }
  }

  /// Schedules every step that reads atom \p Idx's domain.
  void wake(size_t Idx) {
    for (uint32_t Row : RowWatches[Idx])
      wakeRow(Row);
    for (uint32_t App : Ctx.ArgUsers[Idx])
      wakeApp(App);
    if (Arena.kind(Ctx.Atoms[Idx]) == TermKind::UFApp)
      wakeApp(Idx);
  }

  void wakeAll() {
    for (size_t Row = 0; Row != Rows.size(); ++Row)
      wakeRow(Row);
    for (size_t I = 0; I != NumAtoms; ++I)
      if (Arena.kind(Ctx.Atoms[I]) == TermKind::UFApp)
        wakeApp(I);
  }

  /// Narrows atom \p Idx to \p NewDom and schedules its readers.
  void narrow(std::vector<Interval> &Domains, size_t Idx,
              const Interval &NewDom) {
    if (Trail)
      Trail->emplace_back(Idx, Domains[Idx]);
    Domains[Idx] = NewDom;
    wake(Idx);
  }

  /// Runs the scheduled steps until none is left. Returns false when a
  /// domain empties (a sound refutation of the rows). The visit budget,
  /// 64 steps per row and atom, stops a slow ping-pong between two bounds
  /// (x <= y - 1, y <= x - 1 over wide domains); stopping early only
  /// leaves domains wider than the fixpoint, never unsound.
  bool propagate(std::vector<Interval> &Domains) {
    ++Stats.Propagations;
    size_t Budget = 64 * (Rows.size() + NumAtoms + 1);
    size_t RowHead = 0, AppHead = 0;
    bool Ok = true;
    while (Ok && Budget-- != 0) {
      if (RowHead != RowQueue.size()) {
        size_t Row = RowQueue[RowHead++];
        RowQueued[Row] = false;
        Ok = propagateRow(Rows[Row], Domains);
      } else if (AppHead != AppQueue.size()) {
        size_t App = AppQueue[AppHead++];
        AppQueued[App] = false;
        Ok = propagateApp(App, Domains);
      } else {
        break;
      }
    }
    for (; RowHead != RowQueue.size(); ++RowHead)
      RowQueued[RowQueue[RowHead]] = false;
    for (; AppHead != AppQueue.size(); ++AppHead)
      AppQueued[AppQueue[AppHead]] = false;
    RowQueue.clear();
    AppQueue.clear();
    return Ok;
  }

  /// Case-split search: branches on the undetermined atom with the
  /// smallest domain, propagating after each candidate value.
  Outcome search(std::vector<Interval> Domains, Model &ModelOut) {
    if (Stats.Decisions >= Options.MaxDecisions)
      return Outcome::Exhausted;
    // Wall-clock stop controls: polled once per search node, but only when
    // a deadline or token is actually installed — the default search never
    // reads the clock (and stays exactly deterministic).
    if (Options.Deadline.active() || Options.Cancel.valid()) {
      static telemetry::Counter &DeadlineChecks =
          telemetry::Registry::global().counter("solver.deadline_checks");
      DeadlineChecks.add();
      if (support::stopRequested(Options.Deadline, Options.Cancel) !=
          support::StopReason::None)
        return Outcome::Exhausted;
    }

    // Find an undetermined atom (smallest domain first; infinite-width
    // atoms are eligible too).
    size_t BestIdx = NumAtoms;
    int64_t BestWidth = Bound::PosInf;
    for (size_t I = 0; I != NumAtoms; ++I) {
      if (Domains[I].isPoint())
        continue;
      int64_t W = Domains[I].width();
      if (BestIdx == NumAtoms || W < BestWidth) {
        BestWidth = W;
        BestIdx = I;
      }
    }

    if (BestIdx == NumAtoms)
      return finalize(Domains, ModelOut) ? Outcome::Sat : Outcome::Exhausted;

    std::vector<int64_t> Candidates = candidatesFor(BestIdx, Domains[BestIdx]);
    bool Exhaustive =
        !Domains[BestIdx].isEmpty() && Domains[BestIdx].isFinite() &&
        Domains[BestIdx].width() <= static_cast<int64_t>(Candidates.size());

    bool AllRefuted = true;
    for (int64_t Value : Candidates) {
      ++Stats.Decisions;
      std::vector<Interval> Next = Domains;
      Next[BestIdx] = Interval::point(Value);
      wake(BestIdx);
      if (!propagate(Next))
        continue;
      Outcome Sub = search(std::move(Next), ModelOut);
      if (Sub == Outcome::Sat)
        return Outcome::Sat;
      if (Sub != Outcome::Refuted)
        AllRefuted = false;
    }
    // Candidate sampling proves unsatisfiability only when it enumerated
    // the whole (finite) domain and every branch was refuted.
    if (Exhaustive && AllRefuted)
      return Outcome::Refuted;
    return Outcome::Exhausted;
  }

private:
  /// Interval evaluation of a linear expression under current domains.
  Interval evalExpr(const LinearExpr &Expr,
                    const std::vector<Interval> &Domains) const {
    Interval Acc = Interval::point(Expr.Constant);
    for (const LinearMonomial &M : Expr.Monomials) {
      const Interval &D = Domains[Ctx.AtomIndex.at(M.Atom)];
      Acc = Acc.add(D.scale(M.Coeff));
    }
    return Acc;
  }

  bool propagateRow(const LinearAtom &LA, std::vector<Interval> &Domains) {
    // Expr ⋈ 0 with ⋈ ∈ {=, ≠, ≤}.
    Interval Whole = evalExpr(LA.Expr, Domains);
    switch (LA.Rel) {
    case LinearRelKind::Eq:
      if (Whole.Lo > 0 || Whole.Hi < 0)
        return false;
      break;
    case LinearRelKind::Le:
      if (Whole.Lo > 0)
        return false;
      break;
    case LinearRelKind::Ne:
      if (Whole.isPoint() && Whole.Lo == 0)
        return false;
      // Ne prunes only singleton complements below.
      break;
    }

    // Tighten each monomial from the rest.
    for (const LinearMonomial &M : LA.Expr.Monomials) {
      size_t Idx = Ctx.AtomIndex.at(M.Atom);
      // Rest = Expr - M.
      Interval Rest = Interval::point(LA.Expr.Constant);
      for (const LinearMonomial &Other : LA.Expr.Monomials) {
        if (Other.Atom == M.Atom)
          continue;
        Rest =
            Rest.add(Domains[Ctx.AtomIndex.at(Other.Atom)].scale(Other.Coeff));
      }
      Interval NewDom = Domains[Idx];
      if (LA.Rel == LinearRelKind::Eq) {
        // coeff*x = -Rest → x ∈ ceil(-RestHi/coeff)..floor(-RestLo/coeff)
        // (for coeff > 0; flipped otherwise). Saturating division keeps
        // infinities intact.
        int64_t A = Bound::divCeil(negSat(Rest.Hi), M.Coeff);
        int64_t B = Bound::divFloor(negSat(Rest.Lo), M.Coeff);
        Interval Bounds =
            M.Coeff > 0
                ? Interval{A, B}
                : Interval{Bound::divCeil(negSat(Rest.Lo), M.Coeff),
                           Bound::divFloor(negSat(Rest.Hi), M.Coeff)};
        NewDom = NewDom.intersect(Bounds);
      } else if (LA.Rel == LinearRelKind::Le) {
        // coeff*x <= -Rest.Lo → upper bound (coeff>0) / lower bound.
        if (M.Coeff > 0)
          NewDom = NewDom.intersect(
              {Bound::NegInf, Bound::divFloor(negSat(Rest.Lo), M.Coeff)});
        else
          NewDom = NewDom.intersect(
              {Bound::divCeil(negSat(Rest.Lo), M.Coeff), Bound::PosInf});
      } else { // Ne: prune point only when everything else is fixed.
        if (Rest.isPoint() && (M.Coeff == 1 || M.Coeff == -1)) {
          int64_t Forbidden = M.Coeff == 1 ? -Rest.Lo : Rest.Lo;
          NewDom = NewDom.without(Forbidden);
        }
      }
      if (NewDom.isEmpty())
        return false;
      if (!(NewDom == Domains[Idx]))
        narrow(Domains, Idx, NewDom);
    }
    return true;
  }

  /// UF consistency of application \p App: a sampled point pins its
  /// output, and congruence with another application of the same symbol
  /// at the same (determined) arguments joins the two outputs.
  bool propagateApp(size_t App, std::vector<Interval> &Domains) {
    if (!determinedArgs(App, Domains, ArgBuf))
      return true;
    FuncId Func = Arena.funcIdOf(Ctx.Atoms[App]);
    if (Options.Samples)
      if (auto Out = Options.Samples->lookup(Func, ArgBuf)) {
        Interval NewDom = Domains[App].intersect(Interval::point(*Out));
        if (NewDom.isEmpty())
          return false;
        if (!(NewDom == Domains[App]))
          narrow(Domains, App, NewDom);
      }
    for (uint32_t Other : Ctx.FuncApps[Func]) {
      if (Other == App || !determinedArgs(Other, Domains, OtherArgBuf) ||
          OtherArgBuf != ArgBuf)
        continue;
      Interval Joint = Domains[App].intersect(Domains[Other]);
      if (Joint.isEmpty())
        return false;
      if (!(Joint == Domains[App]))
        narrow(Domains, App, Joint);
      if (!(Joint == Domains[Other]))
        narrow(Domains, Other, Joint);
    }
    return true;
  }

  /// Evaluates the arguments of application atom \p App into \p Out; false
  /// unless every argument's linear form is determined by point domains.
  bool determinedArgs(size_t App, const std::vector<Interval> &Domains,
                      std::vector<int64_t> &Out) const {
    Out.clear();
    for (const LinearExpr &Arg : Ctx.AppArgs[App]) {
      Interval V = evalExpr(Arg, Domains);
      if (!V.isPoint())
        return false;
      Out.push_back(V.Lo);
    }
    return true;
  }

  std::vector<int64_t> candidatesFor(size_t Idx, const Interval &Dom) {
    std::vector<int64_t> Out;
    auto Push = [&](int64_t V) {
      if (!Dom.contains(V))
        return;
      if (std::find(Out.begin(), Out.end(), V) == Out.end())
        Out.push_back(V);
    };

    if (Dom.isFinite() && Dom.width() <= Options.SmallDomainWidth) {
      for (int64_t V = Dom.Lo; V <= Dom.Hi; ++V)
        Push(V);
      return Out;
    }

    TermId Atom = Ctx.Atoms[Idx];
    // Sample-guided candidates (the Section 7 inversion behaviour).
    if (Options.Samples) {
      if (Arena.kind(Atom) == TermKind::UFApp) {
        for (const Sample &S :
             Options.Samples->samplesFor(Arena.funcIdOf(Atom)))
          Push(S.Output);
      } else {
        // If this atom feeds a UF application argument, try the sampled
        // argument values at the corresponding position.
        for (size_t AppIdx = 0; AppIdx != NumAtoms; ++AppIdx) {
          TermId App = Ctx.Atoms[AppIdx];
          if (Arena.kind(App) != TermKind::UFApp)
            continue;
          auto Args = Arena.operands(App);
          for (size_t Pos = 0; Pos != Args.size(); ++Pos) {
            if (Args[Pos] != Atom)
              continue;
            for (const Sample &S :
                 Options.Samples->samplesFor(Arena.funcIdOf(App)))
              Push(S.Args[Pos]);
          }
        }
      }
    }

    // Structure-guided defaults.
    if (Dom.Lo != Bound::NegInf)
      Push(Dom.Lo);
    if (Dom.Hi != Bound::PosInf)
      Push(Dom.Hi);
    Push(0);
    Push(1);
    Push(-1);
    int64_t PrefLo = std::max(Dom.Lo, Options.PreferredLo);
    int64_t PrefHi = std::min(Dom.Hi, Options.PreferredHi);
    if (PrefLo <= PrefHi) {
      Push(PrefLo);
      Push(PrefHi);
      RandomGen Rng(Options.Seed + Idx * 7919);
      for (int I = 0; I < 4 && Out.size() < Options.MaxBranchCandidates; ++I)
        Push(Rng.nextInRange(PrefLo, PrefHi));
    }
    if (Out.size() > Options.MaxBranchCandidates)
      Out.resize(Options.MaxBranchCandidates);
    return Out;
  }

  /// Builds and verifies a model from fully determined domains.
  bool finalize(const std::vector<Interval> &Domains, Model &ModelOut) {
    Model M;
    M.attachSamples(Options.Samples);
    // Assign variables first.
    for (size_t I = 0; I != NumAtoms; ++I)
      if (Arena.kind(Ctx.Atoms[I]) == TermKind::IntVar)
        M.setVar(Arena.varIdOf(Ctx.Atoms[I]), Domains[I].Lo);
    // Extend functions at the evaluated argument points; reject candidate
    // models with inconsistent extensions (congruence violations).
    for (size_t I = 0; I != NumAtoms; ++I) {
      TermId App = Ctx.Atoms[I];
      if (Arena.kind(App) != TermKind::UFApp)
        continue;
      std::vector<int64_t> Args;
      [[maybe_unused]] bool Determined = determinedArgs(I, Domains, Args);
      assert(Determined && "finalize with undetermined UF argument");
      if (auto Existing = M.funcValue(Arena.funcIdOf(App), Args)) {
        if (*Existing != Domains[I].Lo)
          return false;
      } else {
        M.extendFunc(Arena.funcIdOf(App), std::move(Args), Domains[I].Lo);
      }
    }
    // Verify every row under wrapped program semantics.
    for (const LinearAtom &LA : Rows) {
      int64_t Value = LA.Expr.Constant;
      for (const LinearMonomial &Mono : LA.Expr.Monomials) {
        int64_t AtomValue = Domains[Ctx.AtomIndex.at(Mono.Atom)].Lo;
        Value = static_cast<int64_t>(static_cast<uint64_t>(Value) +
                                     static_cast<uint64_t>(Mono.Coeff) *
                                         static_cast<uint64_t>(AtomValue));
      }
      bool Holds = LA.Rel == LinearRelKind::Eq   ? Value == 0
                   : LA.Rel == LinearRelKind::Ne ? Value != 0
                                                 : Value <= 0;
      if (!Holds)
        return false;
    }
    ModelOut = std::move(M);
    return true;
  }

  static int64_t negSat(int64_t V) {
    if (V == Bound::NegInf)
      return Bound::PosInf;
    if (V == Bound::PosInf)
      return Bound::NegInf;
    return -V;
  }

  void wakeApp(size_t App) {
    if (!AppQueued[App]) {
      AppQueued[App] = true;
      AppQueue.push_back(App);
    }
  }

  SolverContext &Ctx;
  TermArena &Arena;
  const SolverOptions &Options;
  const std::vector<LinearAtom> &Rows;
  const WatchLists &RowWatches;
  size_t NumAtoms;
  SolverStats &Stats;
  /// Scheduled steps: rows and application congruence checks, each queued
  /// at most once.
  std::vector<size_t> RowQueue, AppQueue;
  std::vector<bool> RowQueued, AppQueued;
  /// Argument buffers of propagateApp.
  std::vector<int64_t> ArgBuf, OtherArgBuf;
};

//===----------------------------------------------------------------------===//
// SolverContext
//===----------------------------------------------------------------------===//

SolverContext::SolverContext(TermArena &Arena, SolverOptions Options)
    : Arena(Arena), Options(std::move(Options)), CC(Arena) {}

SolverContext::~SolverContext() = default;

void SolverContext::push() {
  Frame F;
  F.LitSize = Lits.size();
  F.AtomSize = Atoms.size();
  F.RowSize = Rows.size();
  F.CCMark = CC.mark();
  Frames.push_back(std::move(F));
  static telemetry::Counter &Pushes =
      telemetry::Registry::global().counter("solver.scope_pushes");
  Pushes.add();
}

void SolverContext::pop() {
  assert(!Frames.empty() && "pop without a matching push");
  Frame &F = Frames.back();
  // Undo in-place domain narrowing first (while indices are still valid),
  // then drop atoms registered inside the scope. Watch-list entries made
  // in the scope sit at the tails of the surviving lists.
  for (auto It = F.DomainTrail.rbegin(); It != F.DomainTrail.rend(); ++It)
    Domains[It->first] = It->second;
  auto DropTail = [](std::vector<uint32_t> &List, size_t Limit) {
    while (!List.empty() && List.back() >= Limit)
      List.pop_back();
  };
  for (size_t Row = F.RowSize; Row != Rows.size(); ++Row)
    for (const LinearMonomial &M : Rows[Row].Expr.Monomials)
      if (size_t Idx = AtomIndex.at(M.Atom); Idx < F.AtomSize)
        DropTail(RowWatches[Idx], F.RowSize);
  for (size_t I = F.AtomSize; I != Atoms.size(); ++I) {
    if (Arena.kind(Atoms[I]) != TermKind::UFApp)
      continue;
    DropTail(FuncApps[Arena.funcIdOf(Atoms[I])], F.AtomSize);
    for (const LinearExpr &Arg : AppArgs[I])
      for (const LinearMonomial &M : Arg.Monomials)
        if (size_t Idx = AtomIndex.at(M.Atom); Idx < F.AtomSize)
          DropTail(ArgUsers[Idx], F.AtomSize);
  }
  for (size_t I = F.AtomSize; I != Atoms.size(); ++I)
    AtomIndex.erase(Atoms[I]);
  Domains.resize(F.AtomSize);
  RowWatches.resize(F.AtomSize);
  ArgUsers.resize(F.AtomSize);
  AppArgs.resize(F.AtomSize);
  Atoms.resize(F.AtomSize);
  Rows.resize(F.RowSize);
  Lits.resize(F.LitSize);
  CC.rollbackTo(F.CCMark);
  size_t Depth = Frames.size(); // This scope's depth before the pop.
  if (PoisonedAt && *PoisonedAt >= Depth)
    PoisonedAt.reset();
  if (RefutedAt && *RefutedAt >= Depth)
    RefutedAt.reset();
  Frames.pop_back();
  static telemetry::Counter &Pops =
      telemetry::Registry::global().counter("solver.scope_pops");
  Pops.add();
}

bool SolverContext::excludes(TermId Atom, int64_t Value) const {
  auto It = AtomIndex.find(Atom);
  return It != AtomIndex.end() && !Domains[It->second].contains(Value);
}

void SolverContext::registerAtom(TermId Atom) {
  size_t Idx = Atoms.size();
  if (!AtomIndex.try_emplace(Atom, Idx).second)
    return;
  Atoms.push_back(Atom);
  Domains.push_back(Interval::full());
  RowWatches.emplace_back();
  ArgUsers.emplace_back();
  AppArgs.emplace_back();
  if (Arena.kind(Atom) != TermKind::UFApp)
    return;
  // UF arguments are themselves solver atoms when they are vars/apps.
  std::vector<LinearExpr> Args;
  for (TermId Arg : Arena.operands(Atom)) {
    auto Lin = extractLinear(Arena, Arg);
    assert(Lin && "UF argument outside linear fragment");
    for (const LinearMonomial &M : Lin->Monomials)
      registerAtom(M.Atom);
    Args.push_back(std::move(*Lin));
  }
  for (const LinearExpr &Arg : Args)
    for (const LinearMonomial &M : Arg.Monomials) {
      std::vector<uint32_t> &Users = ArgUsers[AtomIndex.at(M.Atom)];
      if (Users.empty() || Users.back() != Idx)
        Users.push_back(Idx);
    }
  AppArgs[Idx] = std::move(Args);
  FuncId Func = Arena.funcIdOf(Atom);
  if (Func >= FuncApps.size())
    FuncApps.resize(Func + 1);
  FuncApps[Func].push_back(Idx);
}

bool SolverContext::assertLiteral(TermId Lit) {
  Lits.push_back(Lit);
  // Once the context is poisoned or refuted, later literals are recorded
  // (they are part of the canonical query) but not processed — exactly what
  // a from-scratch fold over the same list would do.
  if (PoisonedAt || RefutedAt)
    return true;

  auto CacheIt = NormCache.find(Lit);
  if (CacheIt == NormCache.end())
    CacheIt = NormCache.emplace(Lit, normalizeComparison(Arena, Lit)).first;
  if (!CacheIt->second) {
    PoisonedAt = Frames.size();
    return false; // Outside fragment; check() answers Unknown.
  }

  size_t OldAtoms = Atoms.size();
  for (const LinearMonomial &M : CacheIt->second->Expr.Monomials)
    registerAtom(M.Atom);
  size_t Row = Rows.size();
  Rows.push_back(*CacheIt->second);
  for (const LinearMonomial &M : Rows.back().Expr.Monomials)
    RowWatches[AtomIndex.at(M.Atom)].push_back(Row);

  auto Refute = [&] {
    RefutedAt = Frames.size();
    return true;
  };

  // Structural EUF content feeds congruence closure immediately.
  size_t MergesBefore = CC.numMerges();
  if (!assertRowInCC(Arena, CC, Rows.back()))
    return Refute();

  SolverStats Scratch; // Assert-time work never lands in per-query stats.
  Engine E(*this, Rows, RowWatches, Scratch);
  if (!Frames.empty())
    E.Trail = &Frames.back().DomainTrail;

  // Fold congruence-derived constants into the base domains. Earlier atoms
  // are registered in CC with their constants folded already, and only a
  // merge can give their classes a new one. constantOf registers the new
  // atoms; with a scope open every CC mutation lands on the undo trail.
  size_t FoldFrom = CC.numMerges() != MergesBefore ? 0 : OldAtoms;
  for (size_t I = FoldFrom; I != Atoms.size(); ++I)
    if (auto C = CC.constantOf(Atoms[I])) {
      Interval NewDom = Domains[I].intersect(Interval::point(*C));
      if (!(NewDom == Domains[I]))
        E.narrow(Domains, I, NewDom);
      if (NewDom.isEmpty())
        return Refute();
    }

  // The rest is at the previous fixpoint: only the new row, the new atoms
  // and what the fold narrowed can narrow anything.
  for (size_t I = OldAtoms; I != Atoms.size(); ++I)
    E.wake(I);
  E.wakeRow(Row);
  if (!E.propagate(Domains))
    return Refute();
  return true;
}

/// Why an inconclusive search came back Unknown. Deadline and
/// cancellation are monotone within one query (they cannot un-fire), so
/// classifying after the fact is exact: if a stop control tripped, it is
/// what cut the search short; otherwise the decision budget is checked,
/// and anything else is generic exhaustion (candidate sampling gave out
/// before the budget did, or the model failed verification).
static const char *unknownReason(const SolverOptions &Options,
                                 const SolverStats &QueryStats) {
  if (Options.Cancel.cancelled())
    return "cancelled";
  if (Options.Deadline.expired())
    return "deadline expired";
  if (QueryStats.Decisions >= Options.MaxDecisions)
    return "decision budget exhausted";
  return "search budget exhausted";
}

/// Stable slug for the solver.unknown.<reason> sub-counters (decision
/// budget vs. stop controls vs. incomplete theory), keyed off the
/// human-readable reason so trace events and counters can never disagree.
static const char *unknownReasonSlug(const SatAnswer &Answer) {
  const std::string &R = Answer.Reason;
  if (R == "cancelled")
    return "cancelled";
  if (R == "deadline expired")
    return "deadline";
  if (R == "decision budget exhausted")
    return "decision_budget";
  if (R == "search budget exhausted")
    return "search_budget";
  if (R == "support budget exhausted")
    return "support_budget";
  if (R == "non-linear literal")
    return "nonlinear";
  return "other";
}

SatAnswer SolverContext::solve(SolverStats &QueryStats) {
  SatAnswer Answer;
  if (PoisonedAt) {
    Answer.Result = SatResult::Unknown;
    Answer.Reason = "non-linear literal";
    return Answer;
  }
  if (RefutedAt) {
    Answer.Result = SatResult::Unsat;
    return Answer;
  }

  // Gauss–Jordan elimination over the equality subsystem runs on a copy at
  // check time: interval propagation alone cannot combine equations, but
  // keeping the elimination incremental would mean re-running it on every
  // assert. The copies are cheap (rows are small) and the base rows stay
  // untouched for pop().
  std::vector<LinearAtom> Work = Rows;
  if (!eliminateEqualities(Work)) {
    Answer.Result = SatResult::Unsat;
    return Answer;
  }
  if (fourierMotzkinRefutes(Work)) {
    Answer.Result = SatResult::Unsat;
    return Answer;
  }

  // Fast path: elimination was the identity, so the base domains (the
  // assert-time fixpoint over exactly these rows, with congruence constants
  // folded in) are the search's starting point. Slow path: elimination
  // rewrote rows, so congruence constants, watch lists and domains are
  // rebuilt against the echelon system, exactly like a fresh context would.
  bool Rewritten = !(Work == Rows);
  std::vector<Interval> Doms = Domains;
  WatchLists WorkWatches;
  if (Rewritten) {
    CongruenceClosure ScratchCC(Arena);
    WorkWatches.resize(Atoms.size());
    for (size_t Row = 0; Row != Work.size(); ++Row) {
      if (!assertRowInCC(Arena, ScratchCC, Work[Row])) {
        Answer.Result = SatResult::Unsat;
        return Answer;
      }
      for (const LinearMonomial &Mono : Work[Row].Expr.Monomials)
        WorkWatches[AtomIndex.at(Mono.Atom)].push_back(Row);
    }
    Doms.assign(Atoms.size(), Interval::full());
    for (size_t I = 0; I != Atoms.size(); ++I)
      if (auto C = ScratchCC.constantOf(Atoms[I]))
        Doms[I] = Doms[I].intersect(Interval::point(*C));
  }
  // Every step starts scheduled: the base domains are the assert-time
  // fixpoint only when no visit budget bound and the sample table has not
  // grown since the asserts.
  Engine E(*this, Rewritten ? Work : Rows,
           Rewritten ? WorkWatches : RowWatches, QueryStats);
  E.wakeAll();
  if (!E.propagate(Doms)) {
    Answer.Result = SatResult::Unsat;
    return Answer;
  }
  Model M;
  Engine::Outcome Out = E.search(std::move(Doms), M);

  switch (Out) {
  case Engine::Outcome::Sat: {
    // Re-verify against the original literals; the engine only checked its
    // row system.
    M.attachSamples(Options.Samples);
    bool Verified = true;
    for (TermId Lit : Lits)
      if (!M.evalBool(Arena, Lit)) {
        Verified = false;
        break;
      }
    if (Verified) {
      Answer.Result = SatResult::Sat;
      Answer.ModelValue = std::move(M);
    } else {
      Answer.Result = SatResult::Unknown;
      Answer.Reason = unknownReason(Options, QueryStats);
    }
    return Answer;
  }
  case Engine::Outcome::Refuted:
    Answer.Result = SatResult::Unsat;
    return Answer;
  case Engine::Outcome::Exhausted:
    Answer.Result = SatResult::Unknown;
    Answer.Reason = unknownReason(Options, QueryStats);
    return Answer;
  }
  HOTG_UNREACHABLE("unknown engine outcome");
}

std::optional<std::vector<TermId>>
SolverContext::conjunctiveLiterals(TermArena &Arena, TermId Formula) {
  TermId NNF = toNNF(Arena, Formula);
  if (Arena.isBoolConst(NNF))
    return std::nullopt;
  std::vector<TermId> Out;
  std::vector<TermId> Stack{NNF};
  while (!Stack.empty()) {
    TermId T = Stack.back();
    Stack.pop_back();
    if (Arena.kind(T) == TermKind::And) {
      auto Ops = Arena.operands(T);
      for (auto It = Ops.rbegin(); It != Ops.rend(); ++It)
        Stack.push_back(*It);
      continue;
    }
    if (Arena.kind(T) == TermKind::Or || Arena.isBoolConst(T))
      return std::nullopt;
    Out.push_back(T);
  }
  return Out;
}

void SolverContext::retarget(std::span<const TermId> Literals) {
  assert(Lits.size() == Frames.size() &&
         "retarget requires one literal per scope and no base assertions");
  size_t Common = 0;
  while (Common < Lits.size() && Common < Literals.size() &&
         Lits[Common] == Literals[Common])
    ++Common;
  while (Frames.size() > Common)
    pop();
  if (Common != 0) {
    static telemetry::Counter &Reused =
        telemetry::Registry::global().counter("solver.prefix_literals_reused");
    Reused.add(Common);
  }
  for (size_t I = Common; I != Literals.size(); ++I) {
    push();
    assertLiteral(Literals[I]);
  }
}

SatAnswer SolverContext::solveFormula(TermId Formula,
                                      SolverStats &QueryStats) {
  TermId NNF = toNNF(Arena, Formula);
  if (Arena.isBoolConst(NNF)) {
    SatAnswer Answer;
    Answer.Result =
        Arena.boolConstValue(NNF) ? SatResult::Sat : SatResult::Unsat;
    return Answer;
  }

  if (auto Literals = conjunctiveLiterals(Arena, Formula)) {
    // Incremental fast path: a flat conjunction retargets this context's
    // assertion stack, sharing whatever prefix is already asserted.
    retarget(*Literals);
    QueryStats.SupportsExplored += 1;
    return solve(QueryStats);
  }

  // Disjunctive structure: enumerate conjunctive supports in scratch
  // contexts, sharing QueryStats so the decision budget spans the whole
  // query.
  SatAnswer Answer;
  Answer.Result = SatResult::Unsat; // Until a support survives.
  bool SawExhausted = false;
  bool StopHit = false;
  SupportEnumStats EnumStats = forEachSupport(
      Arena, NNF, Options.MaxSupports,
      [&](const std::vector<TermId> &Literals) {
        // Between supports is the natural poll point of the enumeration
        // loop: halt it entirely once a stop control trips (the per-node
        // poll inside check() only cuts the current support short).
        if (support::stopRequested(Options.Deadline, Options.Cancel) !=
            support::StopReason::None) {
          StopHit = true;
          SawExhausted = true;
          return true;
        }
        SolverContext Scratch(Arena, Options);
        for (TermId Lit : Literals)
          Scratch.assertLiteral(Lit);
        SatAnswer Sub = Scratch.solve(QueryStats);
        if (Sub.isSat()) {
          // Verify against the full original formula under the model.
          if (Sub.ModelValue.evalBool(Arena, Formula)) {
            Answer.Result = SatResult::Sat;
            Answer.ModelValue = std::move(Sub.ModelValue);
            return true;
          }
          SawExhausted = true; // Model verification failed; inconclusive.
          return false;
        }
        if (Sub.Result == SatResult::Unknown)
          SawExhausted = true;
        return false;
      });
  QueryStats.SupportsExplored += EnumStats.SupportsTried;

  if (Answer.Result == SatResult::Sat)
    return Answer;
  if (SawExhausted || EnumStats.BudgetExhausted) {
    Answer.Result = SatResult::Unknown;
    // unknownReason reports a tripped stop control first, so a deadline
    // that halted the enumeration (StopHit) or the inner search wins over
    // the budget labels.
    Answer.Reason = EnumStats.BudgetExhausted && !StopHit
                        ? "support budget exhausted"
                        : unknownReason(Options, QueryStats);
  }
  return Answer;
}

/// Folds \p QueryStats into \p CumStats and emits the per-query telemetry
/// counters, latency-histogram sample, and SolverCheck trace event. The
/// event also carries \p ScopeDepth and the thread's query attribution
/// (test / candidate / worker / grounding).
static void foldQueryTelemetry(const SatAnswer &Answer,
                               const SolverStats &QueryStats,
                               SolverStats &CumStats, int64_t ElapsedNs,
                               size_t ScopeDepth) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::Histogram &CheckHist = Reg.histogram("solver.check");
  CheckHist.note(static_cast<uint64_t>(ElapsedNs));
  ++CumStats.Checks;
  CumStats.SupportsExplored += QueryStats.SupportsExplored;
  CumStats.Decisions += QueryStats.Decisions;
  CumStats.Propagations += QueryStats.Propagations;
  Reg.counter("solver.decisions").add(QueryStats.Decisions);
  Reg.counter("solver.propagations").add(QueryStats.Propagations);
  Reg.counter("solver.supports_explored").add(QueryStats.SupportsExplored);
  switch (Answer.Result) {
  case SatResult::Sat:
    Reg.counter("solver.sat").add();
    break;
  case SatResult::Unsat:
    Reg.counter("solver.unsat").add();
    break;
  case SatResult::Unknown:
    Reg.counter("solver.unknown").add();
    // Structured sub-counter so residual unknowns are attributable in
    // --stats-json without parsing trace reason strings.
    Reg.counter(std::string("solver.unknown.") + unknownReasonSlug(Answer))
        .add();
    break;
  }

  if (telemetry::TraceSink *S = telemetry::sink()) {
    telemetry::Event E(telemetry::EventKind::SolverCheck);
    E.set("result", satResultName(Answer.Result));
    E.set("supports", int64_t(QueryStats.SupportsExplored));
    E.set("decisions", int64_t(QueryStats.Decisions));
    E.set("propagations", int64_t(QueryStats.Propagations));
    E.set("ns", ElapsedNs);
    if (!Answer.Reason.empty())
      E.set("reason", Answer.Reason);
    E.set("scope_depth", int64_t(ScopeDepth));
    telemetry::attachAttribution(E);
    S->handle(E);
  }
}

template <typename SolveFn>
SatAnswer SolverContext::instrumented(SolverStats &CumStats, SolveFn Solve) {
  // Fault site: before the context or the cumulative stats are touched, so
  // a recovering caller can simply retry the call (docs/robustness.md).
  support::maybeInjectFault(support::FaultSite::SolverCheck);
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::PhaseTimer &CheckTimer = Reg.timer("solver.check");
  static telemetry::Counter &Checks = Reg.counter("solver.checks");
  telemetry::ScopedSpan Span("solver.check");
  telemetry::ScopedTimer Timer(CheckTimer);
  Checks.add();

  SolverStats QueryStats;
  SatAnswer Answer = Solve(QueryStats);
  foldQueryTelemetry(Answer, QueryStats, CumStats, int64_t(Timer.elapsedNs()),
                     numScopes());
  return Answer;
}

SatAnswer SolverContext::check(SolverStats &CumStats) {
  return instrumented(CumStats, [&](SolverStats &QueryStats) {
    // The asserted stack is one conjunctive support, as in solveFormula's
    // conjunctive path.
    QueryStats.SupportsExplored += 1;
    return solve(QueryStats);
  });
}

SatAnswer SolverContext::checkFormula(TermId Formula, SolverStats &CumStats) {
  return instrumented(CumStats, [&](SolverStats &QueryStats) {
    return solveFormula(Formula, QueryStats);
  });
}
