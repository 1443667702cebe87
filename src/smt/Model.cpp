//===- smt/Model.cpp - Models and term evaluation ---------------------------===//

#include "smt/Model.h"

#include "support/StringUtils.h"
#include "support/Support.h"

#include <algorithm>
#include <cassert>

using namespace hotg;
using namespace hotg::smt;

std::optional<int64_t> Model::varValue(VarId Var) const {
  auto It = VarValues.find(Var);
  if (It == VarValues.end())
    return std::nullopt;
  return It->second;
}

int64_t Model::varValueOr(VarId Var, int64_t Default) const {
  auto It = VarValues.find(Var);
  return It == VarValues.end() ? Default : It->second;
}

void Model::extendFunc(FuncId Func, std::vector<int64_t> Args,
                       int64_t Output) {
  Extensions.record(Func, std::move(Args), Output);
}

std::optional<int64_t>
Model::funcValue(FuncId Func, std::span<const int64_t> Args) const {
  if (auto V = Extensions.lookup(Func, Args))
    return V;
  if (Samples)
    return Samples->lookup(Func, Args);
  return std::nullopt;
}

std::optional<int64_t> Model::evalIntImpl(const TermArena &Arena, TermId Term,
                                          bool Checked) const {
  const TermNode &N = Arena.node(Term);
  switch (N.Kind) {
  case TermKind::IntConst:
    return N.Payload;
  case TermKind::IntVar: {
    auto V = varValue(static_cast<VarId>(N.Payload));
    if (V)
      return V;
    return Checked ? std::nullopt : std::optional<int64_t>(0);
  }
  case TermKind::Add: {
    uint64_t Sum = 0;
    for (TermId Op : Arena.operands(Term)) {
      auto V = evalIntImpl(Arena, Op, Checked);
      if (!V)
        return std::nullopt;
      Sum += static_cast<uint64_t>(*V);
    }
    return static_cast<int64_t>(Sum);
  }
  case TermKind::Sub: {
    auto L = evalIntImpl(Arena, Arena.operand(Term, 0), Checked);
    auto R = evalIntImpl(Arena, Arena.operand(Term, 1), Checked);
    if (!L || !R)
      return std::nullopt;
    return static_cast<int64_t>(static_cast<uint64_t>(*L) -
                                static_cast<uint64_t>(*R));
  }
  case TermKind::Neg: {
    auto V = evalIntImpl(Arena, Arena.operand(Term, 0), Checked);
    if (!V)
      return std::nullopt;
    return static_cast<int64_t>(-static_cast<uint64_t>(*V));
  }
  case TermKind::Mul: {
    auto L = evalIntImpl(Arena, Arena.operand(Term, 0), Checked);
    auto R = evalIntImpl(Arena, Arena.operand(Term, 1), Checked);
    if (!L || !R)
      return std::nullopt;
    return static_cast<int64_t>(static_cast<uint64_t>(*L) *
                                static_cast<uint64_t>(*R));
  }
  case TermKind::UFApp: {
    // Arguments up to InlineArity are evaluated into a stack buffer: one
    // evaluation per UF application must not cost a heap allocation.
    constexpr size_t InlineArity = 8;
    auto Ops = Arena.operands(Term);
    int64_t Inline[InlineArity] = {};
    std::vector<int64_t> Spill;
    int64_t *Args = Inline;
    if (Ops.size() > InlineArity) {
      Spill.resize(Ops.size());
      Args = Spill.data();
    }
    for (size_t I = 0; I != Ops.size(); ++I) {
      auto V = evalIntImpl(Arena, Ops[I], Checked);
      if (!V)
        return std::nullopt;
      Args[I] = *V;
    }
    auto Out = funcValue(static_cast<FuncId>(N.Payload),
                         std::span<const int64_t>(Args, Ops.size()));
    if (Out)
      return Out;
    return Checked ? std::nullopt : std::optional<int64_t>(0);
  }
  default:
    HOTG_UNREACHABLE("evalInt: not an integer term");
  }
}

std::optional<bool> Model::evalBoolImpl(const TermArena &Arena, TermId Term,
                                        bool Checked) const {
  const TermNode &N = Arena.node(Term);
  switch (N.Kind) {
  case TermKind::BoolConst:
    return N.Payload != 0;
  case TermKind::Not: {
    auto V = evalBoolImpl(Arena, Arena.operand(Term, 0), Checked);
    if (!V)
      return std::nullopt;
    return !*V;
  }
  case TermKind::And: {
    for (TermId Op : Arena.operands(Term)) {
      auto V = evalBoolImpl(Arena, Op, Checked);
      if (!V)
        return std::nullopt;
      if (!*V)
        return false;
    }
    return true;
  }
  case TermKind::Or: {
    for (TermId Op : Arena.operands(Term)) {
      auto V = evalBoolImpl(Arena, Op, Checked);
      if (!V)
        return std::nullopt;
      if (*V)
        return true;
    }
    return false;
  }
  case TermKind::Implies: {
    auto L = evalBoolImpl(Arena, Arena.operand(Term, 0), Checked);
    auto R = evalBoolImpl(Arena, Arena.operand(Term, 1), Checked);
    if (!L || !R)
      return std::nullopt;
    return !*L || *R;
  }
  case TermKind::Eq:
  case TermKind::Ne:
  case TermKind::Lt:
  case TermKind::Le:
  case TermKind::Gt:
  case TermKind::Ge: {
    auto L = evalIntImpl(Arena, Arena.operand(Term, 0), Checked);
    auto R = evalIntImpl(Arena, Arena.operand(Term, 1), Checked);
    if (!L || !R)
      return std::nullopt;
    switch (N.Kind) {
    case TermKind::Eq:
      return *L == *R;
    case TermKind::Ne:
      return *L != *R;
    case TermKind::Lt:
      return *L < *R;
    case TermKind::Le:
      return *L <= *R;
    case TermKind::Gt:
      return *L > *R;
    case TermKind::Ge:
      return *L >= *R;
    default:
      break;
    }
    HOTG_UNREACHABLE("unexpected comparison kind");
  }
  default:
    HOTG_UNREACHABLE("evalBool: not a boolean term");
  }
}

int64_t Model::evalInt(const TermArena &Arena, TermId Term) const {
  auto V = evalIntImpl(Arena, Term, /*Checked=*/false);
  assert(V && "unchecked evaluation cannot fail");
  return *V;
}

bool Model::evalBool(const TermArena &Arena, TermId Term) const {
  auto V = evalBoolImpl(Arena, Term, /*Checked=*/false);
  assert(V && "unchecked evaluation cannot fail");
  return *V;
}

std::optional<int64_t> Model::evalIntChecked(const TermArena &Arena,
                                             TermId Term) const {
  return evalIntImpl(Arena, Term, /*Checked=*/true);
}

std::optional<bool> Model::evalBoolChecked(const TermArena &Arena,
                                           TermId Term) const {
  return evalBoolImpl(Arena, Term, /*Checked=*/true);
}

std::string Model::toString(const TermArena &Arena) const {
  std::vector<std::pair<VarId, int64_t>> Sorted(VarValues.begin(),
                                                VarValues.end());
  std::sort(Sorted.begin(), Sorted.end());
  std::vector<std::string> Parts;
  for (auto [Var, Value] : Sorted)
    Parts.push_back(formatString("%s=%lld",
                                 std::string(Arena.varName(Var)).c_str(),
                                 static_cast<long long>(Value)));
  return join(Parts, ", ");
}
