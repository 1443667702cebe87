//===- smt/Term.cpp - Hash-consed terms for LIA+EUF ------------------------===//

#include "smt/Term.h"

#include "smt/Linear.h"

#include "support/Hashing.h"
#include "support/StringUtils.h"
#include "support/Support.h"

#include <algorithm>
#include <cassert>

using namespace hotg;
using namespace hotg::smt;

const char *hotg::smt::termKindName(TermKind Kind) {
  switch (Kind) {
  case TermKind::IntConst:
    return "int";
  case TermKind::BoolConst:
    return "bool";
  case TermKind::IntVar:
    return "var";
  case TermKind::Add:
    return "+";
  case TermKind::Sub:
    return "-";
  case TermKind::Neg:
    return "neg";
  case TermKind::Mul:
    return "*";
  case TermKind::Eq:
    return "=";
  case TermKind::Ne:
    return "distinct";
  case TermKind::Lt:
    return "<";
  case TermKind::Le:
    return "<=";
  case TermKind::Gt:
    return ">";
  case TermKind::Ge:
    return ">=";
  case TermKind::Not:
    return "not";
  case TermKind::And:
    return "and";
  case TermKind::Or:
    return "or";
  case TermKind::Implies:
    return "=>";
  case TermKind::UFApp:
    return "uf";
  }
  HOTG_UNREACHABLE("unknown term kind");
}

TermArena::TermArena() {
  Nodes.reserve(1024);
  OperandPool.reserve(4096);
}

TermArena::~TermArena() = default;

VarId TermArena::getOrCreateVar(std::string_view Name) {
  auto It = VarByName.find(std::string(Name));
  if (It != VarByName.end())
    return It->second;
  VarId Id = static_cast<VarId>(VarNames.size());
  VarNames.emplace_back(Name);
  VarByName.emplace(std::string(Name), Id);
  return Id;
}

std::string_view TermArena::varName(VarId Var) const {
  assert(Var < VarNames.size() && "invalid variable id");
  return VarNames[Var];
}

FuncId TermArena::getOrCreateFunc(std::string_view Name, unsigned Arity) {
  auto It = FuncByName.find(std::string(Name));
  if (It != FuncByName.end()) {
    if (Funcs[It->second].Arity != Arity)
      reportFatalError("function symbol re-registered with different arity");
    return It->second;
  }
  FuncId Id = static_cast<FuncId>(Funcs.size());
  Funcs.push_back({std::string(Name), Arity});
  FuncByName.emplace(std::string(Name), Id);
  return Id;
}

const FuncSymbol &TermArena::func(FuncId Func) const {
  assert(Func < Funcs.size() && "invalid function id");
  return Funcs[Func];
}

namespace {
/// splitmix64 finalizer — the avalanche step behind the fingerprint mixes
/// and the dedup slot of a node.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

size_t nodeHash(TermKind Kind, int64_t Payload,
                std::span<const TermId> Operands) {
  size_t Hash = 0x811c9dc5u;
  hashCombine(Hash, static_cast<size_t>(Kind));
  hashCombine(Hash, static_cast<size_t>(Payload));
  for (TermId Op : Operands)
    hashCombine(Hash, Op);
  return mix64(Hash);
}
} // namespace

void TermArena::growDedup() {
  std::vector<TermId> Slots(std::max<size_t>(2048, 2 * DedupSlots.size()),
                            InvalidTerm);
  size_t Mask = Slots.size() - 1;
  for (TermId T = 0; T != Nodes.size(); ++T) {
    const TermNode &N = Nodes[T];
    size_t Slot = nodeHash(N.Kind, N.Payload, operands(T)) & Mask;
    while (Slots[Slot] != InvalidTerm)
      Slot = (Slot + 1) & Mask;
    Slots[Slot] = T;
  }
  DedupSlots = std::move(Slots);
}

TermId TermArena::intern(TermKind Kind, TermType Type, int64_t Payload,
                         std::span<const TermId> Operands) {
  if (2 * (Nodes.size() + 1) > DedupSlots.size())
    growDedup();
  size_t Mask = DedupSlots.size() - 1;
  size_t Slot = nodeHash(Kind, Payload, Operands) & Mask;
  for (;; Slot = (Slot + 1) & Mask) {
    TermId Candidate = DedupSlots[Slot];
    if (Candidate == InvalidTerm)
      break;
    const TermNode &N = Nodes[Candidate];
    if (N.Kind != Kind || N.Payload != Payload ||
        N.NumOperands != Operands.size())
      continue;
    bool Same = true;
    for (unsigned I = 0; I != N.NumOperands; ++I)
      if (OperandPool[N.OperandBegin + I] != Operands[I]) {
        Same = false;
        break;
      }
    if (Same)
      return Candidate;
  }

  TermNode Node;
  Node.Kind = Kind;
  Node.Type = Type;
  Node.Payload = Payload;
  Node.OperandBegin = static_cast<uint32_t>(OperandPool.size());
  Node.NumOperands = static_cast<uint32_t>(Operands.size());
  OperandPool.insert(OperandPool.end(), Operands.begin(), Operands.end());
  TermId Id = static_cast<TermId>(Nodes.size());
  Nodes.push_back(Node);
  DedupSlots[Slot] = Id;
  return Id;
}

TermId TermArena::mkIntConst(int64_t Value) {
  return intern(TermKind::IntConst, TermType::Int, Value, {});
}

TermId TermArena::mkBoolConst(bool Value) {
  return intern(TermKind::BoolConst, TermType::Bool, Value ? 1 : 0, {});
}

TermId TermArena::mkVar(VarId Var) {
  assert(Var < VarNames.size() && "unregistered variable");
  return intern(TermKind::IntVar, TermType::Int, Var, {});
}

TermId TermArena::mkAdd(std::span<const TermId> Operands) {
  assert(!Operands.empty() && "add needs operands");
  for ([[maybe_unused]] TermId Op : Operands)
    assert(type(Op) == TermType::Int && "add operands must be int");
  if (Operands.size() == 1)
    return Operands[0];
  return intern(TermKind::Add, TermType::Int, 0, Operands);
}

TermId TermArena::mkAdd(TermId Lhs, TermId Rhs) {
  TermId Ops[2] = {Lhs, Rhs};
  return mkAdd(Ops);
}

TermId TermArena::mkSub(TermId Lhs, TermId Rhs) {
  assert(type(Lhs) == TermType::Int && type(Rhs) == TermType::Int);
  TermId Ops[2] = {Lhs, Rhs};
  return intern(TermKind::Sub, TermType::Int, 0, Ops);
}

TermId TermArena::mkNeg(TermId Operand) {
  assert(type(Operand) == TermType::Int);
  TermId Ops[1] = {Operand};
  return intern(TermKind::Neg, TermType::Int, 0, Ops);
}

TermId TermArena::mkMul(TermId Lhs, TermId Rhs) {
  assert(type(Lhs) == TermType::Int && type(Rhs) == TermType::Int);
  if (!isIntConst(Lhs) && !isIntConst(Rhs))
    reportFatalError("mkMul: nonlinear multiplication is outside the solver "
                     "fragment; the DSE engine must treat it as an unknown "
                     "instruction");
  TermId Ops[2] = {Lhs, Rhs};
  return intern(TermKind::Mul, TermType::Int, 0, Ops);
}

TermId TermArena::mkCmp(TermKind Kind, TermId Lhs, TermId Rhs) {
  assert((Kind == TermKind::Eq || Kind == TermKind::Ne ||
          Kind == TermKind::Lt || Kind == TermKind::Le ||
          Kind == TermKind::Gt || Kind == TermKind::Ge) &&
         "not a comparison kind");
  assert(type(Lhs) == TermType::Int && type(Rhs) == TermType::Int);
  TermId Ops[2] = {Lhs, Rhs};
  return intern(Kind, TermType::Bool, 0, Ops);
}

TermId TermArena::mkNot(TermId Operand) {
  assert(type(Operand) == TermType::Bool);
  TermId Ops[1] = {Operand};
  return intern(TermKind::Not, TermType::Bool, 0, Ops);
}

TermId TermArena::mkAnd(std::span<const TermId> Operands) {
  if (Operands.empty())
    return mkTrue();
  for ([[maybe_unused]] TermId Op : Operands)
    assert(type(Op) == TermType::Bool && "and operands must be bool");
  if (Operands.size() == 1)
    return Operands[0];
  return intern(TermKind::And, TermType::Bool, 0, Operands);
}

TermId TermArena::mkAnd(TermId Lhs, TermId Rhs) {
  TermId Ops[2] = {Lhs, Rhs};
  return mkAnd(Ops);
}

TermId TermArena::mkOr(std::span<const TermId> Operands) {
  if (Operands.empty())
    return mkFalse();
  for ([[maybe_unused]] TermId Op : Operands)
    assert(type(Op) == TermType::Bool && "or operands must be bool");
  if (Operands.size() == 1)
    return Operands[0];
  return intern(TermKind::Or, TermType::Bool, 0, Operands);
}

TermId TermArena::mkOr(TermId Lhs, TermId Rhs) {
  TermId Ops[2] = {Lhs, Rhs};
  return mkOr(Ops);
}

TermId TermArena::mkImplies(TermId Lhs, TermId Rhs) {
  assert(type(Lhs) == TermType::Bool && type(Rhs) == TermType::Bool);
  TermId Ops[2] = {Lhs, Rhs};
  return intern(TermKind::Implies, TermType::Bool, 0, Ops);
}

TermId TermArena::mkUFApp(FuncId Func, std::span<const TermId> Args) {
  assert(Func < Funcs.size() && "unregistered function symbol");
  if (Funcs[Func].Arity != Args.size())
    reportFatalError("mkUFApp: arity mismatch for " + Funcs[Func].Name);
  for ([[maybe_unused]] TermId Arg : Args)
    assert(type(Arg) == TermType::Int && "UF arguments must be int");
  return intern(TermKind::UFApp, TermType::Int, Func, Args);
}

const TermNode &TermArena::node(TermId Term) const {
  assert(Term < Nodes.size() && "invalid term id");
  return Nodes[Term];
}

std::span<const TermId> TermArena::operands(TermId Term) const {
  const TermNode &N = node(Term);
  return {OperandPool.data() + N.OperandBegin, N.NumOperands};
}

TermId TermArena::operand(TermId Term, unsigned Index) const {
  const TermNode &N = node(Term);
  assert(Index < N.NumOperands && "operand index out of range");
  return OperandPool[N.OperandBegin + Index];
}

int64_t TermArena::intConstValue(TermId Term) const {
  assert(isIntConst(Term) && "not an integer constant");
  return node(Term).Payload;
}

bool TermArena::boolConstValue(TermId Term) const {
  assert(isBoolConst(Term) && "not a boolean constant");
  return node(Term).Payload != 0;
}

VarId TermArena::varIdOf(TermId Term) const {
  assert(kind(Term) == TermKind::IntVar && "not a variable");
  return static_cast<VarId>(node(Term).Payload);
}

FuncId TermArena::funcIdOf(TermId Term) const {
  assert(kind(Term) == TermKind::UFApp && "not a UF application");
  return static_cast<FuncId>(node(Term).Payload);
}

namespace {
uint64_t hashBytes(std::string_view Bytes, uint64_t Seed) {
  uint64_t H = Seed;
  for (unsigned char C : Bytes)
    H = mix64(H ^ C);
  return H;
}
} // namespace

TermFingerprint TermArena::fingerprint(TermId Term) {
  if (Fingerprints.size() < Nodes.size())
    Fingerprints.resize(Nodes.size());

  // Bottom-up over the DAG: operands are always interned before their
  // users, so ids below Term already have memo slots filled on demand.
  std::vector<TermId> Stack = {Term};
  while (!Stack.empty()) {
    TermId T = Stack.back();
    if (Fingerprints[T] != TermFingerprint{}) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (TermId Op : operands(T))
      if (Fingerprints[Op] == TermFingerprint{}) {
        Stack.push_back(Op);
        Ready = false;
      }
    if (!Ready)
      continue;
    Stack.pop_back();

    const TermNode &N = node(T);
    uint64_t Payload;
    switch (N.Kind) {
    case TermKind::IntVar:
      Payload = hashBytes(varName(static_cast<VarId>(N.Payload)), 0x9e37);
      break;
    case TermKind::UFApp: {
      const FuncSymbol &Sym = func(static_cast<FuncId>(N.Payload));
      Payload = hashBytes(Sym.Name, 0x85eb ^ Sym.Arity);
      break;
    }
    default:
      Payload = static_cast<uint64_t>(N.Payload);
      break;
    }

    TermFingerprint F;
    F.Hi = mix64(0xc2b2ae3d27d4eb4full ^ static_cast<uint64_t>(N.Kind));
    F.Lo = mix64(0x165667b19e3779f9ull ^ static_cast<uint64_t>(N.Kind));
    F.Hi = mix64(F.Hi ^ Payload);
    F.Lo = mix64(F.Lo ^ Payload);
    for (TermId Op : operands(T)) {
      F.Hi = mix64(F.Hi ^ Fingerprints[Op].Hi);
      F.Lo = mix64(F.Lo ^ Fingerprints[Op].Lo);
    }
    if (F == TermFingerprint{})
      F.Lo = 1; // Keep {0,0} reserved as the "unset" memo marker.
    Fingerprints[T] = F;
  }
  return Fingerprints[Term];
}

namespace {
/// Scratch of postorder, one per thread (hotg-serve runs one search per
/// worker thread): the DFS stack and visit marks stamped with the epoch of
/// the traversal that set them, so a traversal neither allocates nor
/// clears marks over the whole arena once the buffers are warm. Indexed by
/// TermId of whichever arena is being walked; a new epoch invalidates
/// every mark at once.
struct VisitScratch {
  std::vector<TermId> Stack;
  std::vector<uint32_t> Marks;
  uint32_t Epoch = 0;
};
thread_local VisitScratch Visits;

/// Shared DFS used by collectVars/collectApps/containsApp. \p Visit must
/// not start another traversal on the same thread.
template <typename Visitor>
void postorder(const TermArena &Arena, TermId Root, Visitor &&Visit) {
  VisitScratch &S = Visits;
  if (S.Marks.size() < Arena.numTerms())
    S.Marks.resize(Arena.numTerms(), 0);
  if (++S.Epoch == 0) { // Wrapped: no mark may look current.
    std::fill(S.Marks.begin(), S.Marks.end(), 0);
    S.Epoch = 1;
  }
  S.Stack.assign(1, Root);
  while (!S.Stack.empty()) {
    TermId Term = S.Stack.back();
    S.Stack.pop_back();
    if (S.Marks[Term] == S.Epoch)
      continue;
    S.Marks[Term] = S.Epoch;
    Visit(Term);
    auto Ops = Arena.operands(Term);
    // Push in reverse so the first operand is visited first.
    for (size_t I = Ops.size(); I != 0; --I)
      S.Stack.push_back(Ops[I - 1]);
  }
}
} // namespace

void TermArena::collectVars(TermId Term, std::vector<VarId> &Vars) const {
  std::vector<bool> Present(numVars(), false);
  for (VarId V : Vars)
    Present[V] = true;
  postorder(*this, Term, [&](TermId T) {
    if (kind(T) == TermKind::IntVar) {
      VarId V = varIdOf(T);
      if (!Present[V]) {
        Present[V] = true;
        Vars.push_back(V);
      }
    }
  });
}

void TermArena::collectApps(TermId Term, std::vector<TermId> &Apps) const {
  postorder(*this, Term, [&](TermId T) {
    if (kind(T) == TermKind::UFApp) {
      bool Known = false;
      for (TermId A : Apps)
        if (A == T) {
          Known = true;
          break;
        }
      if (!Known)
        Apps.push_back(T);
    }
  });
}

bool TermArena::containsApp(TermId Term) const {
  bool Found = false;
  postorder(*this, Term, [&](TermId T) {
    if (kind(T) == TermKind::UFApp)
      Found = true;
  });
  return Found;
}

std::string TermArena::toString(TermId Term) const {
  const TermNode &N = node(Term);
  switch (N.Kind) {
  case TermKind::IntConst:
    return formatString("%lld", static_cast<long long>(N.Payload));
  case TermKind::BoolConst:
    return N.Payload ? "true" : "false";
  case TermKind::IntVar:
    return std::string(varName(static_cast<VarId>(N.Payload)));
  default:
    break;
  }
  std::string Out = "(";
  if (N.Kind == TermKind::UFApp)
    Out += Funcs[static_cast<FuncId>(N.Payload)].Name;
  else
    Out += termKindName(N.Kind);
  for (TermId Op : operands(Term)) {
    Out.push_back(' ');
    Out += toString(Op);
  }
  Out.push_back(')');
  return Out;
}
