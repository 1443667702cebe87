//===- vm/VM.cpp - Register bytecode virtual machine ---------------------------===//
//
// The dispatch loop is templated on the shadow pass. With ShadowMode off,
// every symbolic block compiles away and the machine touches only the flat
// int64 register file. With ShadowMode on, the symbolic operations are kept
// textually identical to dse/SymbolicExecutor.cpp (same arena-call shapes in
// the same order), which is what makes the emitted path constraints, pc
// tables and IOF samples byte-identical — term interning order included.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "smt/Simplify.h"
#include "support/Deadline.h"
#include "support/Support.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

using namespace hotg;
using namespace hotg::vm;
using namespace hotg::lang;
using namespace hotg::interp;
using namespace hotg::dse;

namespace hotg::vm::detail {

/// Sorted-unique set of input variables a concretized value depends on
/// (used only by the SoundDelayed policy). Same as the co-executor's.
using PendingSet = std::vector<smt::VarId>;

/// Per-register / per-cell symbolic shadow. The concrete half lives in the
/// flat register file; Sym == InvalidTerm means "purely concrete".
struct ShadowVal {
  smt::TermId Sym = smt::InvalidTerm;
  PendingSet Pending;

  bool isSymbolic() const { return Sym != smt::InvalidTerm; }
};

/// Run-to-run reusable machine state. Constructing these vectors (and
/// zeroing a register file sized for the deepest call chain) per run costs
/// more than a typical replay executes in instructions, so the VM keeps
/// one Scratch alive across runs and each run resets only the entry
/// frame: callee frames are zeroed at their Call, expression temporaries
/// are written before they are read (a compiler invariant both the frame
/// protocol and this reuse rely on), and heap arrays are reset when their
/// handle is (re)allocated.
/// One suspended caller awaiting a Ret.
struct ReturnFrame {
  const CompiledFunction *Fn = nullptr;
  uint32_t RetPC = 0;
  uint32_t Base = 0;
  uint32_t RetReg = 0;
};

struct Scratch {
  std::vector<int64_t> Regs;
  std::vector<ReturnFrame> Stack;
  std::vector<ShadowVal> Shadow;
  std::vector<std::vector<int64_t>> Heap;
  std::vector<std::vector<ShadowVal>> SymHeap;
  size_t HeapUsed = 0;
  std::vector<const interp::NativeFunc *> ExternCache;
  std::vector<int64_t> ScalarBuf;
  std::unordered_map<smt::VarId, int64_t> InputValueOf;
  std::unordered_set<smt::VarId> ConcretizedVars;
  uint32_t MaxRegs = 0; // max NumRegs over CP.Functions, computed once

  // Input-cell layout of the last entry function (formatting the per-cell
  // variable names is pure per-run overhead on replay).
  const lang::FunctionDecl *LayoutFor = nullptr;
  interp::InputLayout Layout;

  // Last entry-function lookup (replay re-enters the same function).
  const CompiledFunction *CachedEntry = nullptr;
  std::string CachedEntryName;

  // Branch-trace length of the previous run: reserving it up front turns
  // the per-run trace growth into a single allocation.
  size_t LastTraceLen = 0;
};

} // namespace hotg::vm::detail

namespace {

using detail::PendingSet;
using detail::ShadowVal;

void mergeInto(PendingSet &Dest, const PendingSet &Src) {
  for (smt::VarId V : Src) {
    auto It = std::lower_bound(Dest.begin(), Dest.end(), V);
    if (It == Dest.end() || *It != V)
      Dest.insert(It, V);
  }
}

/// An operand handed to the imprecision handlers: its concrete scalar plus
/// its shadow (the co-executor's SVal, minus the Value wrapper).
struct SOp {
  int64_t Concrete = 0;
  const ShadowVal *S = nullptr;
};

template <bool ShadowMode> class Machine {
public:
  Machine(const CompiledProgram &CP, const NativeRegistry &Natives,
          smt::TermArena &Arena, const ExecOptions &Options,
          const RunLimits &Limits, smt::SampleTable *Samples,
          const NativeCallObserver *Observer, detail::Scratch &S)
      : CP(CP), Natives(Natives), Arena(Arena), Options(Options),
        Limits(Limits), Samples(Samples), Observer(Observer), Regs(S.Regs),
        Shadow(S.Shadow), Heap(S.Heap), SymHeap(S.SymHeap),
        HeapUsed(S.HeapUsed), ExternCache(S.ExternCache),
        ScalarBuf(S.ScalarBuf), InputValueOf(S.InputValueOf),
        ConcretizedVars(S.ConcretizedVars), Scr(S), Stack(S.Stack) {
    if (S.MaxRegs == 0)
      for (const CompiledFunction &Fn : CP.Functions)
        S.MaxRegs = std::max(S.MaxRegs, Fn.NumRegs);
    MaxRegs = S.MaxRegs;
    ExternCache.resize(CP.Prog->Externs.size(), nullptr);
  }

  uint64_t instructionsExecuted() const { return Instructions; }

  PathResult run(const CompiledFunction &Entry, const TestInput &Input) {
    const FunctionDecl &Decl = *Entry.Decl;
    if (Scr.LayoutFor != &Decl) {
      Scr.Layout = InputLayout(Decl);
      Scr.LayoutFor = &Decl;
    }
    const InputLayout &Layout = Scr.Layout;
    if (Layout.size() != Input.Cells.size())
      reportFatalError("test input size does not match the entry "
                       "function's input layout");

    // One flat register file sized for the deepest permitted call chain,
    // reused across runs: only the entry frame is reset here (callee
    // frames are zeroed at their Call, temporaries are written before
    // they are read).
    uint64_t Needed = (uint64_t(Limits.MaxCallDepth) + 1) * MaxRegs;
    if (Regs.size() < Needed)
      Regs.resize(Needed, 0);
    std::fill_n(Regs.begin(), Entry.NumRegs, int64_t(0));
    if constexpr (ShadowMode) {
      if (Shadow.size() < Needed)
        Shadow.resize(Needed);
      for (uint32_t I = 0; I != Entry.NumRegs; ++I)
        clearShadow(I);
      InputValueOf.clear();
      ConcretizedVars.clear();
    }
    HeapUsed = 0;
    Stack.clear();
    Result.Run.Trace.reserve(Scr.LastTraceLen);

    // Register one symbolic variable per input cell and remember its
    // current concrete value (needed for concretization constraints).
    std::vector<smt::TermId> CellTerms;
    if constexpr (ShadowMode) {
      for (unsigned I = 0; I != Layout.size(); ++I) {
        smt::VarId Var = Arena.getOrCreateVar(Layout.name(I));
        InputValueOf[Var] = Input.Cells[I];
        CellTerms.push_back(Arena.mkVar(Var));
      }
    }

    // Materialize the input vector into the entry frame (base 0).
    unsigned Cell = 0;
    for (const ParamDecl &Param : Decl.Params) {
      if (Param.ParamType.isArray()) {
        uint32_t HeapId = allocArray(Param.ParamType.ArraySize);
        for (uint32_t I = 0; I != Param.ParamType.ArraySize; ++I) {
          Heap[HeapId][I] = Input.Cells[Cell];
          if constexpr (ShadowMode)
            SymHeap[HeapId][I] = {CellTerms[Cell], {}};
          ++Cell;
        }
        Regs[Param.Slot] = HeapId;
      } else if (Param.ParamType.isBool()) {
        // Boolean inputs are modelled as the integer cell compared to 0.
        Regs[Param.Slot] = Input.Cells[Cell] != 0;
        if constexpr (ShadowMode)
          Shadow[Param.Slot] = {
              Arena.mkNe(CellTerms[Cell], Arena.mkIntConst(0)), {}};
        ++Cell;
      } else {
        Regs[Param.Slot] = Input.Cells[Cell];
        if constexpr (ShadowMode)
          Shadow[Param.Slot] = {CellTerms[Cell], {}};
        ++Cell;
      }
    }

    if (0 >= Limits.MaxCallDepth)
      halt(RunStatus::CallDepth); // Degenerate limit, same as the walkers.
    else
      dispatch(Entry);
    Result.Run.Steps = Steps;
    Scr.LastTraceLen = Result.Run.Trace.size();
    return std::move(Result);
  }

private:
  //===--------------------------------------------------------------------===//
  // Dispatch
  //===--------------------------------------------------------------------===//

  void dispatch(const CompiledFunction &Entry) {
    const CompiledFunction *Fn = &Entry;
    const Instr *Code = Fn->Code.data();
    uint32_t PC = 0;
    uint32_t Base = 0;

    while (true) {
      const Instr &In = Code[PC];
      ++Instructions;
      if (In.Cost != 0 && !charge(In.Cost))
        return;
      uint32_t Next = PC + 1;

      switch (In.Op) {
      case Opcode::Nop:
        break;

      case Opcode::LdcI8:
        Regs[Base + In.A] = CP.ConstPool[In.B];
        if constexpr (ShadowMode)
          clearShadow(Base + In.A);
        break;

      case Opcode::Mov:
        Regs[Base + In.A] = Regs[Base + In.B];
        if constexpr (ShadowMode)
          Shadow[Base + In.A] = Shadow[Base + In.B];
        break;

      case Opcode::Add: {
        int64_t L = Regs[Base + In.B], R = Regs[Base + In.C];
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          const ShadowVal &Rs = Shadow[Base + In.C];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          mergeInto(Out.Pending, Rs.Pending);
          if (Ls.isSymbolic() || Rs.isSymbolic())
            symBinary(Out, Arena.mkAdd(termOf(Ls, L), termOf(Rs, R)));
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = ops::wrapAdd(L, R);
        break;
      }

      case Opcode::Sub: {
        int64_t L = Regs[Base + In.B], R = Regs[Base + In.C];
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          const ShadowVal &Rs = Shadow[Base + In.C];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          mergeInto(Out.Pending, Rs.Pending);
          if (Ls.isSymbolic() || Rs.isSymbolic())
            symBinary(Out, Arena.mkSub(termOf(Ls, L), termOf(Rs, R)));
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = ops::wrapSub(L, R);
        break;
      }

      case Opcode::Mul: {
        int64_t L = Regs[Base + In.B], R = Regs[Base + In.C];
        int64_t Product = ops::wrapMul(L, R);
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          const ShadowVal &Rs = Shadow[Base + In.C];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          mergeInto(Out.Pending, Rs.Pending);
          if (Ls.isSymbolic() || Rs.isSymbolic()) {
            if (!Ls.isSymbolic() || !Rs.isSymbolic()) {
              symBinary(Out, Arena.mkMul(termOf(Ls, L), termOf(Rs, R)));
            } else {
              // Nonlinear multiplication: unknown instruction (Figure 1
              // default case / Figure 3 line 10).
              SOp Operands[2] = {{L, &Ls}, {R, &Rs}};
              Out = handleUnknownInstruction("__mul", Operands, Product);
            }
          }
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = Product;
        break;
      }

      case Opcode::Div:
      case Opcode::Mod: {
        bool IsDiv = In.Op == Opcode::Div;
        int64_t L = Regs[Base + In.B], R = Regs[Base + In.C];
        if (R == 0) {
          fault(RunStatus::DivByZero, Fn->Locs[PC],
                IsDiv ? "division by zero" : "modulo by zero");
          return;
        }
        if constexpr (ShadowMode) {
          const ShadowVal &Rs = Shadow[Base + In.C];
          // Section 3.2: the nonzero-divisor check constraint.
          if (Options.InjectChecks && Rs.isSymbolic())
            appendEntry(Arena.mkNe(Rs.Sym, Arena.mkIntConst(0)),
                        InvalidBranch, /*Taken=*/true,
                        /*IsConcretization=*/false, /*IsCheck=*/true);
        }
        int64_t Quot = IsDiv ? ops::wrapDiv(L, R) : ops::wrapMod(L, R);
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          const ShadowVal &Rs = Shadow[Base + In.C];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          mergeInto(Out.Pending, Rs.Pending);
          if (Ls.isSymbolic() || Rs.isSymbolic()) {
            // Division is outside the linear fragment: unknown instruction.
            SOp Operands[2] = {{L, &Ls}, {R, &Rs}};
            Out = handleUnknownInstruction(IsDiv ? "__div" : "__mod",
                                           Operands, Quot);
          }
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = Quot;
        break;
      }

      case Opcode::Neg: {
        int64_t V = Regs[Base + In.B];
        if constexpr (ShadowMode) {
          const ShadowVal &Os = Shadow[Base + In.B];
          ShadowVal Out;
          Out.Pending = Os.Pending;
          if (Os.isSymbolic())
            Out.Sym = Arena.mkNeg(Os.Sym);
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = ops::wrapNeg(V);
        break;
      }

      case Opcode::NotB: {
        int64_t V = Regs[Base + In.B];
        if constexpr (ShadowMode) {
          const ShadowVal &Os = Shadow[Base + In.B];
          ShadowVal Out;
          Out.Pending = Os.Pending;
          if (Os.isSymbolic())
            Out.Sym = smt::negate(Arena, Os.Sym);
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = V == 0;
        break;
      }

      case Opcode::CmpEq:
      case Opcode::CmpNe:
      case Opcode::CmpLt:
      case Opcode::CmpLe:
      case Opcode::CmpGt:
      case Opcode::CmpGe: {
        int64_t L = Regs[Base + In.B], R = Regs[Base + In.C];
        bool CmpResult;
        smt::TermKind Kind;
        switch (In.Op) {
        case Opcode::CmpEq:
          CmpResult = L == R;
          Kind = smt::TermKind::Eq;
          break;
        case Opcode::CmpNe:
          CmpResult = L != R;
          Kind = smt::TermKind::Ne;
          break;
        case Opcode::CmpLt:
          CmpResult = L < R;
          Kind = smt::TermKind::Lt;
          break;
        case Opcode::CmpLe:
          CmpResult = L <= R;
          Kind = smt::TermKind::Le;
          break;
        case Opcode::CmpGt:
          CmpResult = L > R;
          Kind = smt::TermKind::Gt;
          break;
        default:
          CmpResult = L >= R;
          Kind = smt::TermKind::Ge;
          break;
        }
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          const ShadowVal &Rs = Shadow[Base + In.C];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          mergeInto(Out.Pending, Rs.Pending);
          if (Ls.isSymbolic() || Rs.isSymbolic())
            symBinary(Out, Arena.mkCmp(Kind, termOf(Ls, L), termOf(Rs, R)));
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = CmpResult;
        break;
      }

      case Opcode::AndB:
      case Opcode::OrB: {
        // Strict logicals: operands were both evaluated by earlier
        // instructions, so the whole condition stays one atomic constraint.
        bool IsAnd = In.Op == Opcode::AndB;
        bool L = Regs[Base + In.B] != 0, R = Regs[Base + In.C] != 0;
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          const ShadowVal &Rs = Shadow[Base + In.C];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          mergeInto(Out.Pending, Rs.Pending);
          if (Ls.isSymbolic() || Rs.isSymbolic()) {
            smt::TermId LT = Ls.isSymbolic() ? Ls.Sym : Arena.mkBoolConst(L);
            smt::TermId RT = Rs.isSymbolic() ? Rs.Sym : Arena.mkBoolConst(R);
            Out.Sym = IsAnd ? Arena.mkAnd(LT, RT) : Arena.mkOr(LT, RT);
            Out.Sym = smt::simplify(Arena, Out.Sym);
            if (Arena.isBoolConst(Out.Sym))
              Out.Sym = smt::InvalidTerm;
          }
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = IsAnd ? (L && R) : (L || R);
        break;
      }

      case Opcode::NewArr: {
        uint32_t HeapId = allocArray(In.B);
        Regs[Base + In.A] = HeapId;
        if constexpr (ShadowMode)
          clearShadow(Base + In.A);
        break;
      }

      case Opcode::LoadArr: {
        if constexpr (!ShadowMode) {
          // Concrete fast path: in-bounds access with no constraint or
          // concretization work; the slow path only reports the fault.
          const auto &Storage = Heap[static_cast<uint32_t>(Regs[Base + In.B])];
          int64_t Idx = Regs[Base + In.C];
          if (Idx >= 0 && Idx < static_cast<int64_t>(Storage.size())) {
            Regs[Base + In.A] = Storage[static_cast<size_t>(Idx)];
            break;
          }
        }
        auto CellIdx = resolveCell(Base, In.B, In.C, Fn->Locs[PC]);
        if (!CellIdx)
          return;
        auto [HeapId, Idx] = *CellIdx;
        Regs[Base + In.A] = Heap[HeapId][Idx];
        if constexpr (ShadowMode)
          Shadow[Base + In.A] = SymHeap[HeapId][Idx];
        break;
      }

      case Opcode::StoreArr: {
        if constexpr (!ShadowMode) {
          auto &Storage = Heap[static_cast<uint32_t>(Regs[Base + In.A])];
          int64_t Idx = Regs[Base + In.B];
          if (Idx >= 0 && Idx < static_cast<int64_t>(Storage.size())) {
            Storage[static_cast<size_t>(Idx)] = Regs[Base + In.C];
            break;
          }
        }
        auto CellIdx = resolveCell(Base, In.A, In.B, Fn->Locs[PC]);
        if (!CellIdx)
          return;
        auto [HeapId, Idx] = *CellIdx;
        Heap[HeapId][Idx] = Regs[Base + In.C];
        if constexpr (ShadowMode)
          SymHeap[HeapId][Idx] = {Shadow[Base + In.C].Sym,
                                  Shadow[Base + In.C].Pending};
        break;
      }

      // Immediate forms: the constant operand is exactly a freshly ldc'd
      // register — non-symbolic, no pending inputs — so each shadow path
      // below is the reg-reg handler specialized for a concrete right
      // operand (same arena calls in the same order).
      case Opcode::AddImm: {
        int64_t L = Regs[Base + In.B], R = CP.ConstPool[In.C];
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          if (Ls.isSymbolic())
            symBinary(Out, Arena.mkAdd(Ls.Sym, Arena.mkIntConst(R)));
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = ops::wrapAdd(L, R);
        break;
      }

      case Opcode::SubImm: {
        int64_t L = Regs[Base + In.B], R = CP.ConstPool[In.C];
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          if (Ls.isSymbolic())
            symBinary(Out, Arena.mkSub(Ls.Sym, Arena.mkIntConst(R)));
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = ops::wrapSub(L, R);
        break;
      }

      case Opcode::MulImm: {
        // Always linear: one factor is a compile-time constant, so the
        // nonlinear UF fallback of the register form cannot trigger.
        int64_t L = Regs[Base + In.B], R = CP.ConstPool[In.C];
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          if (Ls.isSymbolic())
            symBinary(Out, Arena.mkMul(Ls.Sym, Arena.mkIntConst(R)));
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = ops::wrapMul(L, R);
        break;
      }

      case Opcode::CmpEqImm:
      case Opcode::CmpNeImm:
      case Opcode::CmpLtImm:
      case Opcode::CmpLeImm:
      case Opcode::CmpGtImm:
      case Opcode::CmpGeImm: {
        int64_t L = Regs[Base + In.B], R = CP.ConstPool[In.C];
        bool CmpResult;
        smt::TermKind Kind;
        switch (In.Op) {
        case Opcode::CmpEqImm:
          CmpResult = L == R;
          Kind = smt::TermKind::Eq;
          break;
        case Opcode::CmpNeImm:
          CmpResult = L != R;
          Kind = smt::TermKind::Ne;
          break;
        case Opcode::CmpLtImm:
          CmpResult = L < R;
          Kind = smt::TermKind::Lt;
          break;
        case Opcode::CmpLeImm:
          CmpResult = L <= R;
          Kind = smt::TermKind::Le;
          break;
        case Opcode::CmpGtImm:
          CmpResult = L > R;
          Kind = smt::TermKind::Gt;
          break;
        default:
          CmpResult = L >= R;
          Kind = smt::TermKind::Ge;
          break;
        }
        if constexpr (ShadowMode) {
          const ShadowVal &Ls = Shadow[Base + In.B];
          ShadowVal Out;
          Out.Pending = Ls.Pending;
          if (Ls.isSymbolic())
            symBinary(Out, Arena.mkCmp(Kind, Ls.Sym, Arena.mkIntConst(R)));
          Shadow[Base + In.A] = std::move(Out);
        }
        Regs[Base + In.A] = CmpResult;
        break;
      }

      case Opcode::LoadArrImm: {
        // A constant index carries no symbolic state: no bounds-check
        // constraint, no concretization — just the access and the fault.
        uint32_t HeapId = static_cast<uint32_t>(Regs[Base + In.B]);
        const auto &Storage = Heap[HeapId];
        int64_t Idx = CP.ConstPool[In.C];
        if (Idx < 0 || Idx >= static_cast<int64_t>(Storage.size())) {
          fault(RunStatus::OutOfBounds, Fn->Locs[PC],
                "array index out of bounds");
          return;
        }
        Regs[Base + In.A] = Storage[static_cast<size_t>(Idx)];
        if constexpr (ShadowMode)
          Shadow[Base + In.A] = SymHeap[HeapId][static_cast<size_t>(Idx)];
        break;
      }

      case Opcode::StoreArrImm: {
        uint32_t HeapId = static_cast<uint32_t>(Regs[Base + In.A]);
        auto &Storage = Heap[HeapId];
        int64_t Idx = CP.ConstPool[In.B];
        if (Idx < 0 || Idx >= static_cast<int64_t>(Storage.size())) {
          fault(RunStatus::OutOfBounds, Fn->Locs[PC],
                "array index out of bounds");
          return;
        }
        Storage[static_cast<size_t>(Idx)] = Regs[Base + In.C];
        if constexpr (ShadowMode)
          SymHeap[HeapId][static_cast<size_t>(Idx)] = {
              Shadow[Base + In.C].Sym, Shadow[Base + In.C].Pending};
        break;
      }

      case Opcode::Jmp:
        Next = In.A;
        break;

      case Opcode::BrCond: {
        bool Taken = Regs[Base + In.A] != 0;
        Result.Run.Trace.push_back({In.B, Taken});
        if constexpr (ShadowMode)
          recordBranchConstraint(Shadow[Base + In.A], In.B, Taken);
        if (!Taken)
          Next = In.C;
        break;
      }

      case Opcode::Assert: {
        bool Ok = Regs[Base + In.A] != 0;
        Result.Run.Trace.push_back({In.B, Ok});
        if constexpr (ShadowMode)
          recordBranchConstraint(Shadow[Base + In.A], In.B, Ok);
        if (!Ok) {
          fault(RunStatus::AssertFailed, Fn->Locs[PC], "assertion failed");
          return;
        }
        break;
      }

      case Opcode::Error: {
        if (Result.Run.Status == RunStatus::Ok) {
          Result.Run.Status = RunStatus::ErrorHit;
          ErrorInfo Info;
          Info.Site = In.A;
          Info.Message = CP.ErrorMessages[In.B];
          Info.Loc = Fn->Locs[PC];
          Result.Run.Error = std::move(Info);
        }
        return;
      }

      case Opcode::Call: {
        // Depth counts active frames, entry included, mirroring the
        // walkers' callFunction entry check.
        if (Stack.size() + 1 >= Limits.MaxCallDepth) {
          halt(RunStatus::CallDepth);
          return;
        }
        const CompiledFunction &Callee = CP.Functions[In.B];
        const FunctionDecl &CalleeDecl = *Callee.Decl;
        uint32_t NewBase = Base + Fn->NumRegs;
        // Fresh frame: zero the callee's variable slots (expression
        // temporaries are always written before they are read).
        std::fill_n(Regs.begin() + NewBase, Callee.NumSlots, int64_t(0));
        if constexpr (ShadowMode)
          for (uint32_t I = 0; I != Callee.NumSlots; ++I)
            clearShadow(NewBase + I);
        for (size_t I = 0; I != CalleeDecl.Params.size(); ++I) {
          uint32_t Slot = CalleeDecl.Params[I].Slot;
          Regs[NewBase + Slot] = Regs[Base + In.C + I];
          if constexpr (ShadowMode)
            Shadow[NewBase + Slot] = Shadow[Base + In.C + I];
        }
        Stack.push_back({Fn, Next, Base, In.A});
        Fn = &Callee;
        Code = Fn->Code.data();
        Base = NewBase;
        Next = 0;
        break;
      }

      case Opcode::CallNat: {
        const ExternDecl &Ext = CP.Prog->Externs[In.B];
        const NativeFunc *Native = ExternCache[In.B];
        if (!Native) {
          Native = Natives.find(Ext.Name);
          if (!Native)
            reportFatalError("extern '" + Ext.Name +
                             "' has no native binding");
          ExternCache[In.B] = Native;
        }
        if constexpr (!ShadowMode) {
          // The argument window is contiguous in the register file; hand
          // the native a span over it directly (no staging buffer).
          std::span<const int64_t> Args(Regs.data() + Base + In.C, Ext.Arity);
          int64_t Out = Native->Impl(Args);
          if (Observer && *Observer)
            (*Observer)(*Native, Args, Out);
          Regs[Base + In.A] = Out;
          break;
        }
        ScalarBuf.clear();
        for (unsigned I = 0; I != Ext.Arity; ++I)
          ScalarBuf.push_back(Regs[Base + In.C + I]);
        int64_t Out = Native->Impl(ScalarBuf);
        externShadow(In, Ext, ScalarBuf, Out, Base);
        Regs[Base + In.A] = Out;
        break;
      }

      case Opcode::Ret:
      case Opcode::RetZero: {
        bool IsRet = In.Op == Opcode::Ret;
        int64_t Val = IsRet ? Regs[Base + In.A] : 0;
        ShadowVal ValS;
        if constexpr (ShadowMode)
          if (IsRet)
            ValS = Shadow[Base + In.A];
        if (Stack.empty()) {
          if constexpr (ShadowMode) {
            // The co-executor records the entry's scalar result even for
            // void functions falling off the end.
            Result.Run.ReturnValue = Val;
          } else {
            // The concrete walker leaves ReturnValue unset only for a void
            // entry with no explicit return (epilogue flag B).
            if (!(In.Op == Opcode::RetZero && In.B != 0))
              Result.Run.ReturnValue = Val;
          }
          return;
        }
        ReturnFrame F = Stack.back();
        Stack.pop_back();
        Regs[F.Base + F.RetReg] = Val;
        if constexpr (ShadowMode)
          Shadow[F.Base + F.RetReg] = std::move(ValS);
        Fn = F.Fn;
        Code = Fn->Code.data();
        Base = F.Base;
        Next = F.RetPC;
        break;
      }
      }

      PC = Next;
    }
  }

  //===--------------------------------------------------------------------===//
  // Budget and halting (bit-identical to the AST walkers)
  //===--------------------------------------------------------------------===//

  /// Charges \p Cost accumulated AST-walk steps. The fast path bulk-adds
  /// when no 1024-step poll boundary and no step limit lies in
  /// (Steps, Steps + Cost]; otherwise the slow path replays the walkers'
  /// budget() one step at a time, so halt states (which status, at which
  /// step count) are exactly theirs.
  bool charge(uint32_t Cost) {
    uint64_t End = Steps + Cost;
    if (End <= (Steps | 1023) && End <= Limits.MaxSteps) {
      Steps = End;
      return true;
    }
    for (uint32_t I = 0; I != Cost; ++I) {
      if (++Steps > Limits.MaxSteps) {
        halt(RunStatus::StepLimit);
        return false;
      }
      if ((Steps & 1023) == 0 &&
          support::stopRequested(Limits.Deadline, Limits.Cancel) !=
              support::StopReason::None) {
        halt(RunStatus::Deadline);
        return false;
      }
    }
    return true;
  }

  void halt(RunStatus Status) {
    if (Result.Run.Status == RunStatus::Ok)
      Result.Run.Status = Status;
  }

  void fault(RunStatus Status, SourceLoc Loc, std::string Message) {
    if (Result.Run.Status == RunStatus::Ok) {
      Result.Run.Status = Status;
      ErrorInfo Info;
      Info.Message = std::move(Message);
      Info.Loc = Loc;
      Result.Run.Error = std::move(Info);
    }
  }

  uint32_t allocArray(uint32_t Size) {
    if (HeapUsed < Heap.size())
      Heap[HeapUsed].assign(Size, 0);
    else
      Heap.emplace_back(Size, 0);
    if constexpr (ShadowMode) {
      if (HeapUsed < SymHeap.size())
        SymHeap[HeapUsed].assign(Size, ShadowVal{});
      else
        SymHeap.emplace_back(Size);
    }
    return static_cast<uint32_t>(HeapUsed++);
  }

  void clearShadow(uint64_t Reg) {
    Shadow[Reg].Sym = smt::InvalidTerm;
    Shadow[Reg].Pending.clear();
  }

  /// Resolves an array access (handle in register \p HeapReg, index in
  /// \p IdxReg): bounds-check constraint, index concretization, and the
  /// out-of-bounds fault, in the co-executor's resolveArrayCell order.
  std::optional<std::pair<uint32_t, uint32_t>>
  resolveCell(uint32_t Base, uint32_t HeapReg, uint32_t IdxReg,
              SourceLoc Loc) {
    uint32_t HeapId = static_cast<uint32_t>(Regs[Base + HeapReg]);
    int64_t Idx = Regs[Base + IdxReg];
    const auto &Storage = Heap[HeapId];
    bool InBounds = Idx >= 0 && Idx < static_cast<int64_t>(Storage.size());

    if constexpr (ShadowMode) {
      const ShadowVal &Is = Shadow[Base + IdxReg];
      // Section 3.2: inject the bounds-check constraint so the search can
      // target out-of-bounds faults on this (otherwise covered) path.
      if (Options.InjectChecks && Is.isSymbolic() && InBounds) {
        smt::TermId Zero = Arena.mkIntConst(0);
        smt::TermId Size =
            Arena.mkIntConst(static_cast<int64_t>(Storage.size()));
        appendEntry(Arena.mkAnd(Arena.mkGe(Is.Sym, Zero),
                                Arena.mkLt(Is.Sym, Size)),
                    InvalidBranch, /*Taken=*/true,
                    /*IsConcretization=*/false, /*IsCheck=*/true);
      }
      if (Is.isSymbolic() || !Is.Pending.empty()) {
        ++Result.NumConcretizations;
        PendingSet Vars = Is.Pending;
        if (Is.isSymbolic())
          mergeInto(Vars, varsOf(Is.Sym));
        if (Options.Policy != ConcretizationPolicy::Unsound)
          injectConcretizations(Vars);
      }
    }

    if (!InBounds) {
      fault(RunStatus::OutOfBounds, Loc, "array index out of bounds");
      return std::nullopt;
    }
    return std::make_pair(HeapId, static_cast<uint32_t>(Idx));
  }

  //===--------------------------------------------------------------------===//
  // Shadow pass (textually mirrors dse/SymbolicExecutor.cpp)
  //===--------------------------------------------------------------------===//

  void appendEntry(smt::TermId Constraint, BranchId Branch, bool Taken,
                   bool IsConcretization, bool IsCheck = false) {
    if (Result.PC.Entries.size() >= Options.MaxPathLength) {
      Result.PC.Truncated = true;
      return;
    }
    smt::TermId Simple = smt::simplify(Arena, Constraint);
    if (Arena.isBoolConst(Simple) && Arena.boolConstValue(Simple))
      return; // Trivially true constraints carry no information.
    PathEntry Entry;
    Entry.Constraint = Simple;
    Entry.Branch = Branch;
    Entry.Taken = Taken;
    Entry.IsConcretization = IsConcretization;
    Entry.IsCheck = IsCheck;
    Entry.TraceIndex =
        IsConcretization || IsCheck
            ? static_cast<uint32_t>(Result.Run.Trace.size())
            : static_cast<uint32_t>(Result.Run.Trace.size() - 1);
    Result.PC.Entries.push_back(Entry);
  }

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

  ShadowVal handleUnknownInstruction(const char *FuncName,
                                     std::span<const SOp> Operands,
                                     int64_t ConcreteResult) {
    if (Options.Policy == ConcretizationPolicy::HigherOrder) {
      ++Result.NumUFApps;
      smt::FuncId Func = Arena.getOrCreateFunc(
          FuncName, static_cast<unsigned>(Operands.size()));
      std::vector<smt::TermId> ArgTerms;
      std::vector<int64_t> ArgValues;
      for (const SOp &Op : Operands) {
        ArgTerms.push_back(termOf(*Op.S, Op.Concrete));
        ArgValues.push_back(Op.Concrete);
      }
      recordSample(Func, ArgValues, ConcreteResult);
      ShadowVal Out;
      Out.Sym = Arena.mkUFApp(Func, ArgTerms);
      return Out;
    }
    return concretize(Operands);
  }

  ShadowVal concretize(std::span<const SOp> Operands) {
    ++Result.NumConcretizations;
    ShadowVal Out;
    if (Options.Policy == ConcretizationPolicy::Unsound)
      return Out;

    PendingSet Vars;
    for (const SOp &Op : Operands) {
      if (Op.S->isSymbolic())
        mergeInto(Vars, varsOf(Op.S->Sym));
      mergeInto(Vars, Op.S->Pending);
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

  smt::TermId termOf(const ShadowVal &S, int64_t Concrete) {
    if (S.isSymbolic())
      return S.Sym;
    return Arena.mkIntConst(Concrete);
  }

  void symBinary(ShadowVal &Out, smt::TermId Term) {
    Out.Sym = smt::simplify(Arena, Term);
    if (Arena.isIntConst(Out.Sym) || Arena.isBoolConst(Out.Sym))
      Out.Sym = smt::InvalidTerm; // Folded away: purely concrete.
  }

  /// The trace event was already pushed by the caller (recordBranch order:
  /// event first, pending injection second, constraint third).
  void recordBranchConstraint(const ShadowVal &Cond, BranchId Branch,
                              bool Taken) {
    if (Options.Policy == ConcretizationPolicy::SoundDelayed &&
        !Cond.Pending.empty())
      injectConcretizations(Cond.Pending);
    if (!Cond.isSymbolic())
      return; // Condition does not depend on inputs symbolically.
    smt::TermId Constraint =
        Taken ? Cond.Sym : smt::negate(Arena, Cond.Sym);
    appendEntry(Constraint, Branch, Taken, /*IsConcretization=*/false);
  }

  /// Figure 3 lines 10-13 (evalExternCall): the shadow half of a native
  /// call whose concrete result \p Out was already computed.
  void externShadow(const Instr &In, const ExternDecl &Ext,
                    const std::vector<int64_t> &Scalars, int64_t Out,
                    uint32_t Base) {
    bool AnySymbolic = false;
    bool AnyPending = false;
    for (unsigned I = 0; I != Ext.Arity; ++I) {
      const ShadowVal &S = Shadow[Base + In.C + I];
      AnySymbolic |= S.isSymbolic();
      AnyPending |= !S.Pending.empty();
    }

    if (Options.Policy == ConcretizationPolicy::HigherOrder) {
      smt::FuncId Func = Arena.getOrCreateFunc(Ext.Name, Ext.Arity);
      // Record the sample even for concrete calls: the Section 7 lexer
      // depends on observing hash(keyword) pairs during initialization.
      recordSample(Func, Scalars, Out);
      ShadowVal Ret;
      if (AnySymbolic) {
        ++Result.NumUFApps;
        std::vector<smt::TermId> ArgTerms;
        for (unsigned I = 0; I != Ext.Arity; ++I)
          ArgTerms.push_back(termOf(Shadow[Base + In.C + I], Scalars[I]));
        Ret.Sym = Arena.mkUFApp(Func, ArgTerms);
      }
      Shadow[Base + In.A] = std::move(Ret);
      return;
    }

    if (!AnySymbolic && !AnyPending) {
      clearShadow(Base + In.A);
      return;
    }
    std::vector<SOp> Ops;
    for (unsigned I = 0; I != Ext.Arity; ++I)
      Ops.push_back({Scalars[I], &Shadow[Base + In.C + I]});
    Shadow[Base + In.A] = concretize(Ops);
  }

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  using ReturnFrame = detail::ReturnFrame;

  const CompiledProgram &CP;
  const NativeRegistry &Natives;
  smt::TermArena &Arena;
  const ExecOptions &Options;
  const RunLimits &Limits;
  smt::SampleTable *Samples;
  const NativeCallObserver *Observer;

  // Run-to-run state lives in the VM's Scratch (see its comment for the
  // reset protocol); the Machine only borrows it for one run.
  std::vector<int64_t> &Regs;
  std::vector<ShadowVal> &Shadow;
  std::vector<std::vector<int64_t>> &Heap;
  std::vector<std::vector<ShadowVal>> &SymHeap;
  size_t &HeapUsed;
  std::vector<const NativeFunc *> &ExternCache;
  std::vector<int64_t> &ScalarBuf;
  std::unordered_map<smt::VarId, int64_t> &InputValueOf;
  std::unordered_set<smt::VarId> &ConcretizedVars;
  detail::Scratch &Scr;
  uint32_t MaxRegs = 0;

  std::vector<ReturnFrame> &Stack;

  PathResult Result;
  uint64_t Steps = 0;
  uint64_t Instructions = 0;
};

} // namespace

VM::VM(const CompiledProgram &CP, const NativeRegistry &Natives,
       smt::TermArena &Arena)
    : CP(CP), Natives(Natives), Arena(Arena),
      Reusable(std::make_unique<detail::Scratch>()) {}

VM::~VM() = default;

namespace {

/// Replay re-enters the same function thousands of times; memoize the
/// linear name lookup on the scratch.
const CompiledFunction *lookupEntry(const CompiledProgram &CP,
                                    detail::Scratch &S,
                                    std::string_view EntryName) {
  if (S.CachedEntry && S.CachedEntryName == EntryName)
    return S.CachedEntry;
  const CompiledFunction *Entry = CP.findFunction(EntryName);
  if (!Entry)
    reportFatalError("entry function '" + std::string(EntryName) +
                     "' not found");
  S.CachedEntry = Entry;
  S.CachedEntryName = EntryName;
  return Entry;
}

} // namespace

PathResult VM::execute(std::string_view EntryName, const TestInput &Input,
                       smt::SampleTable *Samples) {
  const CompiledFunction *Entry = lookupEntry(CP, *Reusable, EntryName);
  if (Options.SummarizeCalls)
    reportFatalError("the VM engine does not support SummarizeCalls; use "
                     "the interpreter engine");
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::PhaseTimer &ExecTimer = Reg.timer("vm.exec");
  static telemetry::Histogram &ExecHist = Reg.histogram("vm.exec");
  static telemetry::Counter &Runs = Reg.counter("vm.runs");
  static telemetry::Counter &Insns = Reg.counter("vm.instructions");
  static telemetry::Counter &ShadowInsns =
      Reg.counter("vm.shadow_instructions");
  telemetry::ScopedSpan Span("vm.exec");
  uint64_t StartNs = telemetry::monotonicNanos();

  Machine<true> M(CP, Natives, Arena, Options, Options.Limits, Samples,
                  nullptr, *Reusable);
  PathResult PR = M.run(*Entry, Input);
  uint64_t Ns = telemetry::monotonicNanos() - StartNs;
  ExecTimer.note(Ns);
  ExecHist.note(Ns);

  Runs.add();
  Insns.add(M.instructionsExecuted());
  ShadowInsns.add(M.instructionsExecuted());
  Reg.counter("vm.constraints_collected").add(PR.PC.size());
  Reg.counter("vm.uf_apps").add(PR.NumUFApps);
  Reg.counter("vm.samples_recorded").add(PR.NumSamplesRecorded);
  if (PR.NumConcretizations)
    Reg.counter(std::string("vm.concretizations.") +
                policyName(Options.Policy))
        .add(PR.NumConcretizations);
  return PR;
}

RunResult VM::runConcrete(std::string_view EntryName, const TestInput &Input,
                          const RunLimits &Limits,
                          const NativeCallObserver *Observer) {
  const CompiledFunction *Entry = lookupEntry(CP, *Reusable, EntryName);
  telemetry::Registry &Reg = telemetry::Registry::global();
  static telemetry::PhaseTimer &ExecTimer = Reg.timer("vm.exec");
  static telemetry::Histogram &ExecHist = Reg.histogram("vm.exec");
  static telemetry::Counter &Runs = Reg.counter("vm.runs");
  static telemetry::Counter &Insns = Reg.counter("vm.instructions");
  telemetry::ScopedSpan Span("vm.exec");
  uint64_t StartNs = telemetry::monotonicNanos();

  ExecOptions ConcreteOpts; // Only Limits is consulted without a shadow.
  ConcreteOpts.Limits = Limits;
  Machine<false> M(CP, Natives, Arena, ConcreteOpts, ConcreteOpts.Limits,
                   nullptr, Observer, *Reusable);
  PathResult PR = M.run(*Entry, Input);
  uint64_t Ns = telemetry::monotonicNanos() - StartNs;
  ExecTimer.note(Ns);
  ExecHist.note(Ns);

  Runs.add();
  Insns.add(M.instructionsExecuted());
  return std::move(PR.Run);
}
