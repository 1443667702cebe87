//===- dse/SymbolicExecutor.cpp - Concrete+symbolic co-execution ---------------===//

#include "dse/SymbolicExecutor.h"

#include "smt/Simplify.h"
#include "smt/Subst.h"
#include "support/Deadline.h"
#include "support/Support.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace hotg;
using namespace hotg::dse;
using namespace hotg::lang;
using namespace hotg::interp;

const char *hotg::dse::policyName(ConcretizationPolicy Policy) {
  switch (Policy) {
  case ConcretizationPolicy::Unsound:
    return "unsound";
  case ConcretizationPolicy::Sound:
    return "sound";
  case ConcretizationPolicy::SoundDelayed:
    return "sound-delayed";
  case ConcretizationPolicy::HigherOrder:
    return "higher-order";
  }
  HOTG_UNREACHABLE("unknown policy");
}

namespace {

/// Sorted-unique set of input variables a concretized value depends on
/// (used only by the SoundDelayed policy).
using PendingSet = std::vector<smt::VarId>;

void mergeInto(PendingSet &Dest, const PendingSet &Src) {
  for (smt::VarId V : Src) {
    auto It = std::lower_bound(Dest.begin(), Dest.end(), V);
    if (It == Dest.end() || *It != V)
      Dest.insert(It, V);
  }
}

/// A concrete value paired with its symbolic shadow. Sym == InvalidTerm
/// means "purely concrete" (the paper's default S(v) = M(v)).
struct SVal {
  Value Concrete;
  smt::TermId Sym = smt::InvalidTerm;
  PendingSet Pending;

  bool isSymbolic() const { return Sym != smt::InvalidTerm; }

  static SVal concrete(Value V) { return {V, smt::InvalidTerm, {}}; }
};

/// Per-slot / per-cell symbolic shadow.
struct SymCell {
  smt::TermId Sym = smt::InvalidTerm;
  PendingSet Pending;
};

class CoExecution {
public:
  CoExecution(const Program &Prog, const NativeRegistry &Natives,
              smt::TermArena &Arena, const ExecOptions &Options,
              smt::SampleTable *Samples, SummaryTable *Summaries)
      : Prog(Prog), Natives(Natives), Arena(Arena), Options(Options),
        Samples(Samples), Summaries(Summaries) {}

  PathResult run(const FunctionDecl &Entry, const TestInput &Input) {
    InputLayout Layout(Entry);
    if (Layout.size() != Input.Cells.size())
      reportFatalError("test input size does not match the entry "
                       "function's input layout");

    // Register one symbolic variable per input cell and remember its
    // current concrete value (needed for concretization constraints).
    std::vector<smt::TermId> CellTerms;
    for (unsigned I = 0; I != Layout.size(); ++I) {
      smt::VarId Var = Arena.getOrCreateVar(Layout.name(I));
      InputValueOf[Var] = Input.Cells[I];
      CellTerms.push_back(Arena.mkVar(Var));
    }

    // Build the entry frame.
    std::vector<Value> Frame(Entry.NumSlots);
    std::vector<SymCell> SymFrame(Entry.NumSlots);
    unsigned Cell = 0;
    for (const ParamDecl &Param : Entry.Params) {
      if (Param.ParamType.isArray()) {
        uint32_t HeapId = allocArray(Param.ParamType.ArraySize);
        for (uint32_t I = 0; I != Param.ParamType.ArraySize; ++I) {
          Heap[HeapId][I] = Input.Cells[Cell];
          SymHeap[HeapId][I] = {CellTerms[Cell], {}};
          ++Cell;
        }
        Frame[Param.Slot] = Value::arrayValue(HeapId);
      } else if (Param.ParamType.isBool()) {
        // Boolean inputs are modelled as the integer cell compared to 0.
        Frame[Param.Slot] = Value::boolValue(Input.Cells[Cell] != 0);
        SymFrame[Param.Slot] = {
            Arena.mkNe(CellTerms[Cell], Arena.mkIntConst(0)), {}};
        ++Cell;
      } else {
        Frame[Param.Slot] = Value::intValue(Input.Cells[Cell]);
        SymFrame[Param.Slot] = {CellTerms[Cell], {}};
        ++Cell;
      }
    }

    callFunction(Entry, std::move(Frame), std::move(SymFrame));
    Result.Run.Steps = Steps;
    return std::move(Result);
  }

private:
  enum class Flow : uint8_t { Normal, Returned, Halted };

  //===--------------------------------------------------------------------===//
  // Bookkeeping shared with the concrete interpreter's semantics
  //===--------------------------------------------------------------------===//

  uint32_t allocArray(uint32_t Size) {
    Heap.emplace_back(Size, 0);
    SymHeap.emplace_back(Size);
    return static_cast<uint32_t>(Heap.size() - 1);
  }

  bool budget() {
    if (++Steps > Options.Limits.MaxSteps) {
      halt(RunStatus::StepLimit);
      return false;
    }
    // Same stop-control poll as the concrete interpreter (every 1024
    // steps, nothing read when inactive) so co-execution honours the
    // search deadline too.
    if ((Steps & 1023) == 0 &&
        support::stopRequested(Options.Limits.Deadline,
                               Options.Limits.Cancel) !=
            support::StopReason::None) {
      halt(RunStatus::Deadline);
      return false;
    }
    return true;
  }

  void halt(RunStatus Status) {
    if (Result.Run.Status == RunStatus::Ok)
      Result.Run.Status = Status;
    Halted = true;
  }

  void fault(RunStatus Status, SourceLoc Loc, std::string Message) {
    if (Result.Run.Status == RunStatus::Ok) {
      Result.Run.Status = Status;
      ErrorInfo Info;
      Info.Message = std::move(Message);
      Info.Loc = Loc;
      Result.Run.Error = std::move(Info);
    }
    Halted = true;
  }

  //===--------------------------------------------------------------------===//
  // Path-constraint management
  //===--------------------------------------------------------------------===//

  void appendEntry(smt::TermId Constraint, BranchId Branch, bool Taken,
                   bool IsConcretization, bool IsCheck = false,
                   std::optional<uint32_t> AtTraceIndex = std::nullopt) {
    if (Result.PC.Entries.size() >= Options.MaxPathLength) {
      Result.PC.Truncated = true;
      return;
    }
    smt::TermId Simple = smt::simplify(Arena, Constraint);
    if (Arena.isBoolConst(Simple) && Arena.boolConstValue(Simple))
      return; // Trivially true constraints carry no information.
    if (!SummaryCtx.empty()) {
      // Inside a summarized call: constraints become part of the summary
      // disjunct's precondition instead of the caller's path constraint.
      SummaryCtx.back().push_back(Simple);
      return;
    }
    PathEntry Entry;
    Entry.Constraint = Simple;
    Entry.Branch = Branch;
    Entry.Taken = Taken;
    Entry.IsConcretization = IsConcretization;
    Entry.IsCheck = IsCheck;
    // Branch constraints are recorded right after their trace event;
    // concretization and check constraints point at the upcoming event
    // (summary preconditions at the call-entry event).
    if (AtTraceIndex)
      Entry.TraceIndex = *AtTraceIndex;
    else
      Entry.TraceIndex =
          IsConcretization || IsCheck
              ? static_cast<uint32_t>(Result.Run.Trace.size())
              : static_cast<uint32_t>(Result.Run.Trace.size() - 1);
    Result.PC.Entries.push_back(Entry);
  }

  /// Injects x_i = I_i for every variable in \p Vars not already fixed
  /// (Figure 1 line 14).
  void injectConcretizations(const PendingSet &Vars) {
    for (smt::VarId Var : Vars) {
      if (ConcretizedVars.count(Var))
        continue;
      ConcretizedVars.insert(Var);
      smt::TermId Constraint = Arena.mkEq(
          Arena.mkVar(Var), Arena.mkIntConst(InputValueOf.at(Var)));
      appendEntry(Constraint, InvalidBranch, /*Taken=*/true,
                  /*IsConcretization=*/true);
    }
  }

  PendingSet varsOf(smt::TermId Term) {
    std::vector<smt::VarId> Vars;
    Arena.collectVars(Term, Vars);
    std::sort(Vars.begin(), Vars.end());
    return Vars;
  }

  //===--------------------------------------------------------------------===//
  // Imprecision handling — the heart of the paper
  //===--------------------------------------------------------------------===//

  /// Handles an unknown instruction (nonlinear arithmetic, or any operation
  /// the theory cannot express) whose operands are \p Operands and whose
  /// concrete result is \p ConcreteResult. \p FuncName names the operation
  /// ("__mul", "__div", ...) when the HigherOrder policy represents it as
  /// an uninterpreted function.
  SVal handleUnknownInstruction(const char *FuncName,
                                std::span<const SVal> Operands,
                                int64_t ConcreteResult) {
    if (Options.Policy == ConcretizationPolicy::HigherOrder) {
      ++Result.NumUFApps;
      smt::FuncId Func = Arena.getOrCreateFunc(
          FuncName, static_cast<unsigned>(Operands.size()));
      std::vector<smt::TermId> ArgTerms;
      std::vector<int64_t> ArgValues;
      for (const SVal &Op : Operands) {
        ArgTerms.push_back(termOf(Op));
        ArgValues.push_back(Op.Concrete.Scalar);
      }
      recordSample(Func, ArgValues, ConcreteResult);
      SVal Out = SVal::concrete(Value::intValue(ConcreteResult));
      Out.Sym = Arena.mkUFApp(Func, ArgTerms);
      return Out;
    }
    return concretize(Operands, ConcreteResult);
  }

  /// Concretizes per the Unsound/Sound/SoundDelayed policies.
  SVal concretize(std::span<const SVal> Operands, int64_t ConcreteResult) {
    ++Result.NumConcretizations;
    SVal Out = SVal::concrete(Value::intValue(ConcreteResult));
    if (Options.Policy == ConcretizationPolicy::Unsound)
      return Out;

    PendingSet Vars;
    for (const SVal &Op : Operands) {
      if (Op.isSymbolic())
        mergeInto(Vars, varsOf(Op.Sym));
      mergeInto(Vars, Op.Pending);
    }
    if (Options.Policy == ConcretizationPolicy::Sound) {
      injectConcretizations(Vars);
      return Out;
    }
    // SoundDelayed: remember the dependency; injected when the value is
    // actually used in a constraint.
    Out.Pending = std::move(Vars);
    return Out;
  }

  void recordSample(smt::FuncId Func, std::span<const int64_t> Args,
                    int64_t Output) {
    if (!Options.RecordSamples || !Samples)
      return;
    if (telemetry::TraceSink *S = telemetry::sink()) {
      telemetry::Event E(telemetry::EventKind::SampleLearned);
      E.set("func", Arena.func(Func).Name);
      E.setArray("args", Args);
      E.set("output", Output);
      S->handle(E);
    }
    Samples->record(Func, Args, Output);
    ++Result.NumSamplesRecorded;
  }

  /// The symbolic term of \p V (its concrete constant when not symbolic).
  smt::TermId termOf(const SVal &V) {
    if (V.isSymbolic())
      return V.Sym;
    assert(!V.Concrete.isArray() && "arrays have no scalar term");
    return Arena.mkIntConst(V.Concrete.Scalar);
  }

  /// Records the branch event and the corresponding path constraint.
  void recordBranch(BranchId Branch, const SVal &Cond, bool Taken) {
    Result.Run.Trace.push_back({Branch, Taken});
    if (Options.Policy == ConcretizationPolicy::SoundDelayed &&
        !Cond.Pending.empty())
      injectConcretizations(Cond.Pending);
    if (!Cond.isSymbolic())
      return; // Condition does not depend on inputs symbolically.
    smt::TermId Constraint =
        Taken ? Cond.Sym : smt::negate(Arena, Cond.Sym);
    appendEntry(Constraint, Branch, Taken, /*IsConcretization=*/false);
  }

  //===--------------------------------------------------------------------===//
  // Statement execution (Figure 2/3 main loop)
  //===--------------------------------------------------------------------===//

  std::optional<Value> callFunction(const FunctionDecl &Fn,
                                    std::vector<Value> Frame,
                                    std::vector<SymCell> SymFrame,
                                    SVal *SymOut = nullptr) {
    if (Depth >= Options.Limits.MaxCallDepth) {
      halt(RunStatus::CallDepth);
      return std::nullopt;
    }
    ++Depth;
    Frames.push_back(std::move(Frame));
    SymFrames.push_back(std::move(SymFrame));
    ReturnSlots.push_back(std::nullopt);

    execStmt(*Fn.Body);
    std::optional<SVal> Ret = ReturnSlots.back();
    Frames.pop_back();
    SymFrames.pop_back();
    ReturnSlots.pop_back();
    --Depth;

    if (Halted)
      return std::nullopt;
    if (!Ret && !Fn.ReturnType.isVoid())
      Ret = SVal::concrete(Value::intValue(0));
    if (!Ret)
      Ret = SVal::concrete(Value::intValue(0));
    if (Depth == 0 && !Ret->Concrete.isArray())
      Result.Run.ReturnValue = Ret->Concrete.Scalar;
    if (SymOut)
      *SymOut = *Ret;
    return Ret->Concrete;
  }

  std::vector<Value> &frame() { return Frames.back(); }
  std::vector<SymCell> &symFrame() { return SymFrames.back(); }

  Flow execStmt(const Stmt &S) {
    if (Halted || !budget())
      return Flow::Halted;
    switch (S.Kind) {
    case StmtKind::Block: {
      for (const auto &Sub : static_cast<const BlockStmt &>(S).Body) {
        Flow F = execStmt(*Sub);
        if (F != Flow::Normal)
          return F;
      }
      return Flow::Normal;
    }
    case StmtKind::VarDecl: {
      const auto &V = static_cast<const VarDeclStmt &>(S);
      if (V.DeclType.isArray()) {
        frame()[V.Slot] = Value::arrayValue(allocArray(V.DeclType.ArraySize));
        symFrame()[V.Slot] = {};
        return Flow::Normal;
      }
      SVal Init = SVal::concrete(V.DeclType.isBool()
                                     ? Value::boolValue(false)
                                     : Value::intValue(0));
      if (V.Init) {
        auto E = evalExpr(*V.Init);
        if (!E)
          return Flow::Halted;
        Init = std::move(*E);
      }
      frame()[V.Slot] = Init.Concrete;
      symFrame()[V.Slot] = {Init.Sym, Init.Pending};
      return Flow::Normal;
    }
    case StmtKind::Assign: {
      const auto &A = static_cast<const AssignStmt &>(S);
      auto Val = evalExpr(*A.Value);
      if (!Val)
        return Flow::Halted;
      if (const auto *VR = dynamic_cast<const VarRefExpr *>(A.Target.get())) {
        frame()[VR->Slot] = Val->Concrete;
        symFrame()[VR->Slot] = {Val->Sym, Val->Pending};
        return Flow::Normal;
      }
      const auto &AI = static_cast<const ArrayIndexExpr &>(*A.Target);
      auto Cell = resolveArrayCell(AI);
      if (!Cell)
        return Flow::Halted;
      Heap[Cell->first][Cell->second] = Val->Concrete.Scalar;
      SymHeap[Cell->first][Cell->second] = {Val->Sym, Val->Pending};
      return Flow::Normal;
    }
    case StmtKind::If: {
      const auto &I = static_cast<const IfStmt &>(S);
      auto Cond = evalExpr(*I.Cond);
      if (!Cond)
        return Flow::Halted;
      bool Taken = Cond->Concrete.asBool();
      recordBranch(I.Branch, *Cond, Taken);
      if (Taken)
        return execStmt(*I.Then);
      if (I.Else)
        return execStmt(*I.Else);
      return Flow::Normal;
    }
    case StmtKind::While: {
      const auto &W = static_cast<const WhileStmt &>(S);
      while (true) {
        if (Halted || !budget())
          return Flow::Halted;
        auto Cond = evalExpr(*W.Cond);
        if (!Cond)
          return Flow::Halted;
        bool Taken = Cond->Concrete.asBool();
        recordBranch(W.Branch, *Cond, Taken);
        if (!Taken)
          return Flow::Normal;
        Flow F = execStmt(*W.Body);
        if (F != Flow::Normal)
          return F;
      }
    }
    case StmtKind::Return: {
      const auto &R = static_cast<const ReturnStmt &>(S);
      if (R.Value) {
        auto Val = evalExpr(*R.Value);
        if (!Val)
          return Flow::Halted;
        ReturnSlots.back() = std::move(*Val);
      } else {
        ReturnSlots.back() = SVal::concrete(Value::intValue(0));
      }
      return Flow::Returned;
    }
    case StmtKind::Assert: {
      const auto &A = static_cast<const AssertStmt &>(S);
      auto Cond = evalExpr(*A.Cond);
      if (!Cond)
        return Flow::Halted;
      bool Ok = Cond->Concrete.asBool();
      recordBranch(A.Branch, *Cond, Ok);
      if (!Ok) {
        fault(RunStatus::AssertFailed, S.Loc, "assertion failed");
        return Flow::Halted;
      }
      return Flow::Normal;
    }
    case StmtKind::Error: {
      const auto &E = static_cast<const ErrorStmt &>(S);
      if (Result.Run.Status == RunStatus::Ok) {
        Result.Run.Status = RunStatus::ErrorHit;
        ErrorInfo Info;
        Info.Site = E.Site;
        Info.Message = E.Message;
        Info.Loc = E.Loc;
        Result.Run.Error = std::move(Info);
      }
      Halted = true;
      return Flow::Halted;
    }
    case StmtKind::ExprStmt: {
      auto E = evalExpr(*static_cast<const ExprStmt &>(S).Value);
      return E ? Flow::Normal : Flow::Halted;
    }
    }
    HOTG_UNREACHABLE("unknown statement kind");
  }

  /// Resolves an array access. Symbolic indices are an imprecision source:
  /// the index is concretized soundly (eager concretization constraints)
  /// under every policy except Unsound — uninterpreted functions cannot
  /// model stateful array reads, so HigherOrder also falls back to sound
  /// concretization here (see DESIGN.md).
  std::optional<std::pair<uint32_t, uint32_t>>
  resolveArrayCell(const ArrayIndexExpr &AI) {
    auto Base = evalExpr(*AI.Base);
    if (!Base)
      return std::nullopt;
    auto Index = evalExpr(*AI.Index);
    if (!Index)
      return std::nullopt;
    assert(Base->Concrete.isArray() && "sema guarantees an array base");

    const auto &Storage = Heap[Base->Concrete.HeapId];
    int64_t Idx = Index->Concrete.Scalar;
    bool InBounds = Idx >= 0 && Idx < static_cast<int64_t>(Storage.size());

    // Section 3.2: inject the bounds-check constraint so the search can
    // target out-of-bounds faults on this (otherwise covered) path.
    if (Options.InjectChecks && Index->isSymbolic() && InBounds) {
      smt::TermId Zero = Arena.mkIntConst(0);
      smt::TermId Size =
          Arena.mkIntConst(static_cast<int64_t>(Storage.size()));
      appendEntry(Arena.mkAnd(Arena.mkGe(Index->Sym, Zero),
                              Arena.mkLt(Index->Sym, Size)),
                  InvalidBranch, /*Taken=*/true,
                  /*IsConcretization=*/false, /*IsCheck=*/true);
    }

    if (Index->isSymbolic() || !Index->Pending.empty()) {
      ++Result.NumConcretizations;
      PendingSet Vars = Index->Pending;
      if (Index->isSymbolic())
        mergeInto(Vars, varsOf(Index->Sym));
      if (Options.Policy != ConcretizationPolicy::Unsound)
        injectConcretizations(Vars);
    }

    if (!InBounds) {
      fault(RunStatus::OutOfBounds, AI.Loc, "array index out of bounds");
      return std::nullopt;
    }
    return std::make_pair(Base->Concrete.HeapId, static_cast<uint32_t>(Idx));
  }

  //===--------------------------------------------------------------------===//
  // Expression co-evaluation (Figure 1 evalSymbolic + evalConcrete)
  //===--------------------------------------------------------------------===//

  std::optional<SVal> evalExpr(const Expr &E) {
    if (Halted || !budget())
      return std::nullopt;
    switch (E.Kind) {
    case ExprKind::IntLit:
      return SVal::concrete(
          Value::intValue(static_cast<const IntLitExpr &>(E).Value));
    case ExprKind::BoolLit:
      return SVal::concrete(
          Value::boolValue(static_cast<const BoolLitExpr &>(E).Value));
    case ExprKind::VarRef: {
      const auto &V = static_cast<const VarRefExpr &>(E);
      SVal Out;
      Out.Concrete = frame()[V.Slot];
      Out.Sym = symFrame()[V.Slot].Sym;
      Out.Pending = symFrame()[V.Slot].Pending;
      return Out;
    }
    case ExprKind::ArrayIndex: {
      auto Cell = resolveArrayCell(static_cast<const ArrayIndexExpr &>(E));
      if (!Cell)
        return std::nullopt;
      SVal Out;
      Out.Concrete = Value::intValue(Heap[Cell->first][Cell->second]);
      Out.Sym = SymHeap[Cell->first][Cell->second].Sym;
      Out.Pending = SymHeap[Cell->first][Cell->second].Pending;
      return Out;
    }
    case ExprKind::Unary: {
      const auto &U = static_cast<const UnaryExpr &>(E);
      auto Operand = evalExpr(*U.Operand);
      if (!Operand)
        return std::nullopt;
      SVal Out;
      Out.Pending = Operand->Pending;
      if (U.Op == UnaryOp::Neg) {
        Out.Concrete = Value::intValue(ops::wrapNeg(Operand->Concrete.Scalar));
        if (Operand->isSymbolic())
          Out.Sym = Arena.mkNeg(Operand->Sym);
      } else {
        Out.Concrete = Value::boolValue(!Operand->Concrete.asBool());
        if (Operand->isSymbolic())
          Out.Sym = smt::negate(Arena, Operand->Sym);
      }
      return Out;
    }
    case ExprKind::Binary:
      return evalBinary(static_cast<const BinaryExpr &>(E));
    case ExprKind::Call:
      return evalCall(static_cast<const CallExpr &>(E));
    }
    HOTG_UNREACHABLE("unknown expression kind");
  }

  std::optional<SVal> evalBinary(const BinaryExpr &B) {
    // Strict logicals (see interp/Interp.cpp): the whole condition is one
    // atomic expression, so conjunctions appear whole in path constraints
    // — `(x == hash(y)) && (y == hash(x))` yields the single constraint of
    // Example 3 rather than a short-circuit prefix.
    if (B.Op == BinaryOp::And || B.Op == BinaryOp::Or) {
      auto Lhs = evalExpr(*B.Lhs);
      if (!Lhs)
        return std::nullopt;
      auto Rhs = evalExpr(*B.Rhs);
      if (!Rhs)
        return std::nullopt;
      bool L = Lhs->Concrete.asBool(), R = Rhs->Concrete.asBool();
      SVal Out;
      Out.Concrete =
          Value::boolValue(B.Op == BinaryOp::And ? (L && R) : (L || R));
      Out.Pending = Lhs->Pending;
      mergeInto(Out.Pending, Rhs->Pending);
      if (Lhs->isSymbolic() || Rhs->isSymbolic()) {
        smt::TermId LT =
            Lhs->isSymbolic() ? Lhs->Sym : Arena.mkBoolConst(L);
        smt::TermId RT =
            Rhs->isSymbolic() ? Rhs->Sym : Arena.mkBoolConst(R);
        Out.Sym = B.Op == BinaryOp::And ? Arena.mkAnd(LT, RT)
                                        : Arena.mkOr(LT, RT);
        Out.Sym = smt::simplify(Arena, Out.Sym);
        if (Arena.isBoolConst(Out.Sym))
          Out.Sym = smt::InvalidTerm;
      }
      return Out;
    }

    auto Lhs = evalExpr(*B.Lhs);
    if (!Lhs)
      return std::nullopt;
    auto Rhs = evalExpr(*B.Rhs);
    if (!Rhs)
      return std::nullopt;
    int64_t L = Lhs->Concrete.Scalar, R = Rhs->Concrete.Scalar;
    bool AnySymbolic = Lhs->isSymbolic() || Rhs->isSymbolic();

    SVal Out;
    Out.Pending = Lhs->Pending;
    mergeInto(Out.Pending, Rhs->Pending);

    auto SymBinary = [&](smt::TermId Term) {
      Out.Sym = smt::simplify(Arena, Term);
      if (Arena.isIntConst(Out.Sym) || Arena.isBoolConst(Out.Sym))
        Out.Sym = smt::InvalidTerm; // Folded away: purely concrete.
    };

    switch (B.Op) {
    case BinaryOp::Add:
      Out.Concrete = Value::intValue(ops::wrapAdd(L, R));
      if (AnySymbolic)
        SymBinary(Arena.mkAdd(termOf(*Lhs), termOf(*Rhs)));
      return Out;
    case BinaryOp::Sub:
      Out.Concrete = Value::intValue(ops::wrapSub(L, R));
      if (AnySymbolic)
        SymBinary(Arena.mkSub(termOf(*Lhs), termOf(*Rhs)));
      return Out;
    case BinaryOp::Mul: {
      int64_t Product = ops::wrapMul(L, R);
      Out.Concrete = Value::intValue(Product);
      if (!AnySymbolic)
        return Out;
      if (!Lhs->isSymbolic() || !Rhs->isSymbolic()) {
        SymBinary(Arena.mkMul(termOf(*Lhs), termOf(*Rhs)));
        return Out;
      }
      // Nonlinear multiplication: unknown instruction (Figure 1 default
      // case / Figure 3 line 10).
      SVal Operands[2] = {*Lhs, *Rhs};
      return handleUnknownInstruction("__mul", Operands, Product);
    }
    case BinaryOp::Div:
    case BinaryOp::Mod: {
      bool IsDiv = B.Op == BinaryOp::Div;
      if (R == 0) {
        fault(RunStatus::DivByZero, B.Loc,
              IsDiv ? "division by zero" : "modulo by zero");
        return std::nullopt;
      }
      // Section 3.2: the nonzero-divisor check constraint.
      if (Options.InjectChecks && Rhs->isSymbolic())
        appendEntry(Arena.mkNe(Rhs->Sym, Arena.mkIntConst(0)),
                    InvalidBranch, /*Taken=*/true,
                    /*IsConcretization=*/false, /*IsCheck=*/true);
      int64_t Quot = IsDiv ? ops::wrapDiv(L, R) : ops::wrapMod(L, R);
      Out.Concrete = Value::intValue(Quot);
      if (!AnySymbolic)
        return Out;
      // Division is outside the linear fragment: unknown instruction.
      SVal Operands[2] = {*Lhs, *Rhs};
      return handleUnknownInstruction(IsDiv ? "__div" : "__mod", Operands,
                                      Quot);
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      bool CmpResult;
      smt::TermKind Kind;
      switch (B.Op) {
      case BinaryOp::Eq:
        CmpResult = L == R;
        Kind = smt::TermKind::Eq;
        break;
      case BinaryOp::Ne:
        CmpResult = L != R;
        Kind = smt::TermKind::Ne;
        break;
      case BinaryOp::Lt:
        CmpResult = L < R;
        Kind = smt::TermKind::Lt;
        break;
      case BinaryOp::Le:
        CmpResult = L <= R;
        Kind = smt::TermKind::Le;
        break;
      case BinaryOp::Gt:
        CmpResult = L > R;
        Kind = smt::TermKind::Gt;
        break;
      default:
        CmpResult = L >= R;
        Kind = smt::TermKind::Ge;
        break;
      }
      Out.Concrete = Value::boolValue(CmpResult);
      if (AnySymbolic)
        SymBinary(Arena.mkCmp(Kind, termOf(*Lhs), termOf(*Rhs)));
      return Out;
    }
    case BinaryOp::And:
    case BinaryOp::Or:
      break;
    }
    HOTG_UNREACHABLE("unhandled binary op");
  }

  std::optional<SVal> evalCall(const CallExpr &C) {
    std::vector<SVal> Args;
    for (const auto &Arg : C.Args) {
      auto V = evalExpr(*Arg);
      if (!V)
        return std::nullopt;
      Args.push_back(std::move(*V));
    }

    if (C.callsExtern())
      return evalExternCall(C, Args);

    const FunctionDecl *Callee = C.ResolvedFunction;
    assert(Callee && "sema guarantees resolution");

    if (Options.SummarizeCalls && Summaries && isSummarizable(*Callee)) {
      bool AnySymbolic = false;
      for (const SVal &A : Args)
        AnySymbolic |= A.isSymbolic();
      if (AnySymbolic)
        return evalSummarizedCall(*Callee, Args);
    }
    std::vector<Value> Frame(Callee->NumSlots);
    std::vector<SymCell> SymFrame(Callee->NumSlots);
    for (size_t I = 0; I != Args.size(); ++I) {
      Frame[Callee->Params[I].Slot] = Args[I].Concrete;
      SymFrame[Callee->Params[I].Slot] = {Args[I].Sym, Args[I].Pending};
    }
    SVal Ret;
    if (!callFunction(*Callee, std::move(Frame), std::move(SymFrame), &Ret))
      return std::nullopt;
    return Ret;
  }

  /// True when \p Fn can be summarized: integer-only signature, no
  /// arrays, no error/assert statements, and only extern or summarizable
  /// callees (recursion is rejected).
  bool isSummarizable(const FunctionDecl &Fn) {
    auto It = SummarizableCache.find(&Fn);
    if (It != SummarizableCache.end())
      return It->second;
    SummarizableCache[&Fn] = false; // Recursion guard.
    bool Ok = Fn.ReturnType.isInt();
    for (const ParamDecl &P : Fn.Params)
      Ok = Ok && P.ParamType.isInt();
    if (Ok)
      Ok = stmtSummarizable(*Fn.Body);
    SummarizableCache[&Fn] = Ok;
    return Ok;
  }

  bool stmtSummarizable(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Block:
      for (const auto &Sub : static_cast<const BlockStmt &>(S).Body)
        if (!stmtSummarizable(*Sub))
          return false;
      return true;
    case StmtKind::VarDecl: {
      const auto &V = static_cast<const VarDeclStmt &>(S);
      return !V.DeclType.isArray() &&
             (!V.Init || exprSummarizable(*V.Init));
    }
    case StmtKind::Assign: {
      const auto &A = static_cast<const AssignStmt &>(S);
      return A.Target->Kind == ExprKind::VarRef &&
             exprSummarizable(*A.Value);
    }
    case StmtKind::If: {
      const auto &I = static_cast<const IfStmt &>(S);
      return exprSummarizable(*I.Cond) && stmtSummarizable(*I.Then) &&
             (!I.Else || stmtSummarizable(*I.Else));
    }
    case StmtKind::While: {
      const auto &W = static_cast<const WhileStmt &>(S);
      return exprSummarizable(*W.Cond) && stmtSummarizable(*W.Body);
    }
    case StmtKind::Return: {
      const auto &R = static_cast<const ReturnStmt &>(S);
      return !R.Value || exprSummarizable(*R.Value);
    }
    case StmtKind::ExprStmt:
      return exprSummarizable(*static_cast<const ExprStmt &>(S).Value);
    case StmtKind::Assert:
    case StmtKind::Error:
      return false; // Bug sites must stay visible to the caller's search.
    }
    HOTG_UNREACHABLE("unknown statement kind");
  }

  bool exprSummarizable(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::VarRef:
      return true;
    case ExprKind::ArrayIndex:
      return false;
    case ExprKind::Unary:
      return exprSummarizable(*static_cast<const UnaryExpr &>(E).Operand);
    case ExprKind::Binary: {
      const auto &B = static_cast<const BinaryExpr &>(E);
      return exprSummarizable(*B.Lhs) && exprSummarizable(*B.Rhs);
    }
    case ExprKind::Call: {
      const auto &C = static_cast<const CallExpr &>(E);
      for (const auto &Arg : C.Args)
        if (!exprSummarizable(*Arg))
          return false;
      return C.callsExtern() ||
             (C.ResolvedFunction && isSummarizable(*C.ResolvedFunction));
    }
    }
    HOTG_UNREACHABLE("unknown expression kind");
  }

  /// Section 8: execute the callee against fresh formal variables,
  /// record the intraprocedural path as a summary disjunct, and return an
  /// opaque `sum:<name>` application to the caller.
  std::optional<SVal> evalSummarizedCall(const FunctionDecl &Callee,
                                         const std::vector<SVal> &Args) {
    smt::FuncId SymId = Arena.getOrCreateFunc(
        "sum:" + Callee.Name, static_cast<unsigned>(Args.size()));
    std::vector<smt::VarId> FormalIds;
    std::vector<Value> Frame(Callee.NumSlots);
    std::vector<SymCell> SymFrame(Callee.NumSlots);
    for (size_t I = 0; I != Args.size(); ++I) {
      smt::VarId Formal = Arena.getOrCreateVar(
          "sum:" + Callee.Name + "#" + Callee.Params[I].Name);
      FormalIds.push_back(Formal);
      Frame[Callee.Params[I].Slot] = Args[I].Concrete;
      SymFrame[Callee.Params[I].Slot] = {Arena.mkVar(Formal), {}};
    }
    Summaries->registerFunction(SymId, FormalIds);

    uint32_t CallEntryEvent = static_cast<uint32_t>(Result.Run.Trace.size());
    SummaryCtx.emplace_back();
    SVal Ret;
    bool Completed =
        callFunction(Callee, std::move(Frame), std::move(SymFrame), &Ret)
            .has_value();
    std::vector<smt::TermId> Ctx = std::move(SummaryCtx.back());
    SummaryCtx.pop_back();
    if (!Completed)
      return std::nullopt; // Halted inside the callee (limits).

    SummaryDisjunct Disjunct;
    Disjunct.Pre = smt::simplify(Arena, Arena.mkAnd(Ctx));
    Disjunct.Out = termOf(Ret);
    Summaries->record(SymId, Disjunct);

    std::vector<smt::TermId> ArgTerms;
    std::vector<int64_t> ArgValues;
    for (const SVal &A : Args) {
      ArgTerms.push_back(termOf(A));
      ArgValues.push_back(A.Concrete.Scalar);
    }
    assert(!Ret.Concrete.isArray() && "summarizable returns are scalar");
    recordSample(SymId, ArgValues, Ret.Concrete.Scalar);

    // The instantiated precondition becomes a negatable caller entry, so
    // the directed search can steer the callee down its other paths (and
    // thereby grow the summary). Check semantics: the "event to flip" is
    // inside the callee, so only the prefix before the call must replay.
    smt::VarSubstitution Subst;
    for (size_t I = 0; I != FormalIds.size(); ++I)
      Subst[FormalIds[I]] = ArgTerms[I];
    smt::TermId InstPre = smt::substituteVars(Arena, Disjunct.Pre, Subst);
    appendEntry(InstPre, InvalidBranch, /*Taken=*/true,
                /*IsConcretization=*/false, /*IsCheck=*/true,
                CallEntryEvent);

    SVal Out = SVal::concrete(Ret.Concrete);
    Out.Sym = Arena.mkUFApp(SymId, ArgTerms);
    return Out;
  }

  /// Figure 3 lines 10-13: the extern (unknown) function call.
  std::optional<SVal> evalExternCall(const CallExpr &C,
                                     const std::vector<SVal> &Args) {
    const ExternDecl &Ext = Prog.Externs[C.ResolvedExtern];
    const NativeFunc *Native = Natives.find(Ext.Name);
    if (!Native)
      reportFatalError("extern '" + Ext.Name + "' has no native binding");

    std::vector<int64_t> Scalars;
    for (const SVal &A : Args)
      Scalars.push_back(A.Concrete.Scalar);
    int64_t Out = Native->Impl(Scalars);

    bool AnySymbolic = false;
    bool AnyPending = false;
    for (const SVal &A : Args) {
      AnySymbolic |= A.isSymbolic();
      AnyPending |= !A.Pending.empty();
    }

    if (Options.Policy == ConcretizationPolicy::HigherOrder) {
      smt::FuncId Func = Arena.getOrCreateFunc(Ext.Name, Ext.Arity);
      // Record the sample even for concrete calls: the Section 7 lexer
      // depends on observing hash(keyword) pairs during initialization.
      recordSample(Func, Scalars, Out);
      if (!AnySymbolic)
        return SVal::concrete(Value::intValue(Out));
      ++Result.NumUFApps;
      std::vector<smt::TermId> ArgTerms;
      for (const SVal &A : Args)
        ArgTerms.push_back(termOf(A));
      SVal Ret = SVal::concrete(Value::intValue(Out));
      Ret.Sym = Arena.mkUFApp(Func, ArgTerms);
      return Ret;
    }

    if (!AnySymbolic && !AnyPending)
      return SVal::concrete(Value::intValue(Out));
    return concretize(Args, Out);
  }

  const Program &Prog;
  const NativeRegistry &Natives;
  smt::TermArena &Arena;
  const ExecOptions &Options;
  smt::SampleTable *Samples;

  std::vector<std::vector<int64_t>> Heap;
  std::vector<std::vector<SymCell>> SymHeap;
  std::vector<std::vector<Value>> Frames;
  std::vector<std::vector<SymCell>> SymFrames;
  std::vector<std::optional<SVal>> ReturnSlots;

  std::unordered_map<smt::VarId, int64_t> InputValueOf;
  std::unordered_set<smt::VarId> ConcretizedVars;
  SummaryTable *Summaries;
  /// Stack of open summary contexts (innermost receives constraints).
  std::vector<std::vector<smt::TermId>> SummaryCtx;
  std::unordered_map<const FunctionDecl *, bool> SummarizableCache;

  PathResult Result;
  uint64_t Steps = 0;
  unsigned Depth = 0;
  bool Halted = false;
};

} // namespace

PathResult SymbolicExecutor::execute(std::string_view EntryName,
                                     const TestInput &Input,
                                     smt::SampleTable *Samples,
                                     SummaryTable *Summaries) {
  const FunctionDecl *Entry = Prog.findFunction(EntryName);
  if (!Entry)
    reportFatalError("entry function '" + std::string(EntryName) +
                     "' not found");
  if (Options.SummarizeCalls) {
    if (Options.Policy != ConcretizationPolicy::HigherOrder)
      reportFatalError("SummarizeCalls requires the HigherOrder policy");
    if (!Summaries)
      reportFatalError("SummarizeCalls requires a SummaryTable");
  }
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::PhaseTimer &ExecTimer = Reg.timer("dse.execute");
  static telemetry::Histogram &ExecHist = Reg.histogram("dse.execute");
  telemetry::ScopedSpan Span("dse.execute");
  telemetry::ScopedTimer Timer(ExecTimer);

  CoExecution Exec(Prog, Natives, Arena, Options, Samples, Summaries);
  PathResult PR = Exec.run(*Entry, Input);
  ExecHist.note(Timer.elapsedNs());

  Reg.counter("dse.runs").add();
  Reg.counter("dse.constraints_collected").add(PR.PC.size());
  Reg.counter("dse.uf_apps").add(PR.NumUFApps);
  Reg.counter("dse.samples_recorded").add(PR.NumSamplesRecorded);
  if (PR.NumConcretizations)
    Reg.counter(std::string("dse.concretizations.") +
                policyName(Options.Policy))
        .add(PR.NumConcretizations);
  return PR;
}
