//===- smt/Linear.cpp - Linear expression extraction ------------------------===//

#include "smt/Linear.h"

#include "support/Support.h"

#include <algorithm>
#include <cassert>

using namespace hotg;
using namespace hotg::smt;

int64_t LinearExpr::coeffOf(TermId Atom) const {
  for (const LinearMonomial &M : Monomials)
    if (M.Atom == Atom)
      return M.Coeff;
  return 0;
}

void LinearExpr::add(int64_t Coeff, TermId Atom) {
  if (Coeff == 0)
    return;
  auto It = std::lower_bound(
      Monomials.begin(), Monomials.end(), Atom,
      [](const LinearMonomial &M, TermId A) { return M.Atom < A; });
  if (It != Monomials.end() && It->Atom == Atom) {
    It->Coeff = static_cast<int64_t>(static_cast<uint64_t>(It->Coeff) +
                                     static_cast<uint64_t>(Coeff));
    if (It->Coeff == 0)
      Monomials.erase(It);
    return;
  }
  Monomials.insert(It, {Coeff, Atom});
}

void LinearExpr::addScaled(const LinearExpr &Other, int64_t Scale) {
  if (Scale == 0)
    return;
  for (const LinearMonomial &M : Other.Monomials)
    add(static_cast<int64_t>(static_cast<uint64_t>(M.Coeff) *
                             static_cast<uint64_t>(Scale)),
        M.Atom);
  Constant = static_cast<int64_t>(
      static_cast<uint64_t>(Constant) +
      static_cast<uint64_t>(Other.Constant) * static_cast<uint64_t>(Scale));
}

namespace {

bool extractInto(const TermArena &Arena, TermId Term, int64_t Scale,
                 LinearExpr &Out) {
  const TermNode &N = Arena.node(Term);
  switch (N.Kind) {
  case TermKind::IntConst:
    Out.Constant = static_cast<int64_t>(
        static_cast<uint64_t>(Out.Constant) +
        static_cast<uint64_t>(N.Payload) * static_cast<uint64_t>(Scale));
    return true;
  case TermKind::IntVar:
  case TermKind::UFApp:
    Out.add(Scale, Term);
    return true;
  case TermKind::Add:
    for (TermId Op : Arena.operands(Term))
      if (!extractInto(Arena, Op, Scale, Out))
        return false;
    return true;
  case TermKind::Sub:
    return extractInto(Arena, Arena.operand(Term, 0), Scale, Out) &&
           extractInto(Arena, Arena.operand(Term, 1), -Scale, Out);
  case TermKind::Neg:
    return extractInto(Arena, Arena.operand(Term, 0), -Scale, Out);
  case TermKind::Mul: {
    TermId L = Arena.operand(Term, 0);
    TermId R = Arena.operand(Term, 1);
    if (Arena.isIntConst(L))
      return extractInto(Arena, R,
                         static_cast<int64_t>(
                             static_cast<uint64_t>(Scale) *
                             static_cast<uint64_t>(Arena.intConstValue(L))),
                         Out);
    if (Arena.isIntConst(R))
      return extractInto(Arena, L,
                         static_cast<int64_t>(
                             static_cast<uint64_t>(Scale) *
                             static_cast<uint64_t>(Arena.intConstValue(R))),
                         Out);
    return false;
  }
  default:
    return false;
  }
}

} // namespace

std::optional<LinearExpr> hotg::smt::extractLinear(const TermArena &Arena,
                                                   TermId Term) {
  assert(Arena.type(Term) == TermType::Int && "expected an integer term");
  LinearExpr Out;
  if (!extractInto(Arena, Term, /*Scale=*/1, Out))
    return std::nullopt;
  return Out;
}

TermId hotg::smt::linearExprToTerm(TermArena &Arena,
                                   const LinearExpr &Expr) {
  std::vector<TermId> Summands;
  for (const LinearMonomial &M : Expr.Monomials) {
    if (M.Coeff == 1)
      Summands.push_back(M.Atom);
    else
      Summands.push_back(Arena.mkMul(Arena.mkIntConst(M.Coeff), M.Atom));
  }
  if (Expr.Constant != 0 || Summands.empty())
    Summands.push_back(Arena.mkIntConst(Expr.Constant));
  return Arena.mkAdd(Summands);
}

std::optional<LinearAtom> hotg::smt::normalizeComparison(const TermArena &Arena,
                                                         TermId Cmp) {
  TermKind Kind = Arena.kind(Cmp);
  TermId Lhs = Arena.operand(Cmp, 0);
  TermId Rhs = Arena.operand(Cmp, 1);

  LinearAtom Atom;
  if (!extractInto(Arena, Lhs, 1, Atom.Expr) ||
      !extractInto(Arena, Rhs, -1, Atom.Expr))
    return std::nullopt;

  switch (Kind) {
  case TermKind::Eq:
    Atom.Rel = LinearRelKind::Eq;
    return Atom;
  case TermKind::Ne:
    Atom.Rel = LinearRelKind::Ne;
    return Atom;
  case TermKind::Le: // lhs - rhs <= 0.
    Atom.Rel = LinearRelKind::Le;
    return Atom;
  case TermKind::Lt: // lhs - rhs < 0  ≡  lhs - rhs + 1 <= 0.
    Atom.Rel = LinearRelKind::Le;
    Atom.Expr.Constant =
        static_cast<int64_t>(static_cast<uint64_t>(Atom.Expr.Constant) + 1);
    return Atom;
  case TermKind::Ge: { // lhs - rhs >= 0  ≡  rhs - lhs <= 0; flip all signs.
    LinearAtom Flipped;
    Flipped.Rel = LinearRelKind::Le;
    Flipped.Expr.addScaled(Atom.Expr, -1);
    return Flipped;
  }
  case TermKind::Gt: { // lhs - rhs > 0  ≡  rhs - lhs + 1 <= 0.
    LinearAtom Flipped;
    Flipped.Rel = LinearRelKind::Le;
    Flipped.Expr.addScaled(Atom.Expr, -1);
    Flipped.Expr.Constant = static_cast<int64_t>(
        static_cast<uint64_t>(Flipped.Expr.Constant) + 1);
    return Flipped;
  }
  default:
    HOTG_UNREACHABLE("normalizeComparison: not a comparison term");
  }
}

const std::optional<LinearAtom> &
hotg::smt::normalizedComparison(TermArena &Arena, TermId Cmp) {
  auto &Memo = Arena.Normalized;
  if (Cmp >= Memo.size())
    Memo.resize(Arena.numTerms());
  if (!Memo[Cmp])
    Memo[Cmp] = std::make_unique<const std::optional<LinearAtom>>(
        normalizeComparison(Arena, Cmp));
  return *Memo[Cmp];
}
