//===- smt/Simplify.cpp - Term simplification ------------------------------===//

#include "smt/Simplify.h"

#include "support/Support.h"

#include <cassert>
#include <vector>

using namespace hotg;
using namespace hotg::smt;

namespace {

/// Flips a comparison kind under logical negation: ¬(a op b) = (a op' b).
TermKind negatedCmp(TermKind Kind) {
  switch (Kind) {
  case TermKind::Eq:
    return TermKind::Ne;
  case TermKind::Ne:
    return TermKind::Eq;
  case TermKind::Lt:
    return TermKind::Ge;
  case TermKind::Le:
    return TermKind::Gt;
  case TermKind::Gt:
    return TermKind::Le;
  case TermKind::Ge:
    return TermKind::Lt;
  default:
    HOTG_UNREACHABLE("not a comparison kind");
  }
}

bool isCmpKind(TermKind Kind) {
  switch (Kind) {
  case TermKind::Eq:
  case TermKind::Ne:
  case TermKind::Lt:
  case TermKind::Le:
  case TermKind::Gt:
  case TermKind::Ge:
    return true;
  default:
    return false;
  }
}

bool evalCmp(TermKind Kind, int64_t Lhs, int64_t Rhs) {
  switch (Kind) {
  case TermKind::Eq:
    return Lhs == Rhs;
  case TermKind::Ne:
    return Lhs != Rhs;
  case TermKind::Lt:
    return Lhs < Rhs;
  case TermKind::Le:
    return Lhs <= Rhs;
  case TermKind::Gt:
    return Lhs > Rhs;
  case TermKind::Ge:
    return Lhs >= Rhs;
  default:
    HOTG_UNREACHABLE("not a comparison kind");
  }
}

class Simplifier {
public:
  explicit Simplifier(TermArena &Arena) : Arena(Arena) {}

  TermId run(TermId Term) {
    TermId Cached = Arena.cachedSimplified(Term);
    if (Cached != InvalidTerm)
      return Cached;
    TermId Result = simplifyNode(Term);
    Arena.setCachedSimplified(Term, Result);
    // A simplified form is a fixpoint; record that too so re-simplifying
    // solver-built terms is free.
    Arena.setCachedSimplified(Result, Result);
    return Result;
  }

private:
  TermId simplifyNode(TermId Term) {
    const TermNode &N = Arena.node(Term);
    switch (N.Kind) {
    case TermKind::IntConst:
    case TermKind::BoolConst:
    case TermKind::IntVar:
      return Term;
    case TermKind::Add:
      return simplifyAdd(Term);
    case TermKind::Sub: {
      TermId L = run(Arena.operand(Term, 0));
      TermId R = run(Arena.operand(Term, 1));
      if (Arena.isIntConst(L) && Arena.isIntConst(R))
        return Arena.mkIntConst(static_cast<int64_t>(
            static_cast<uint64_t>(Arena.intConstValue(L)) -
            static_cast<uint64_t>(Arena.intConstValue(R))));
      if (Arena.isIntConst(R) && Arena.intConstValue(R) == 0)
        return L;
      if (L == R)
        return Arena.mkIntConst(0);
      return Arena.mkSub(L, R);
    }
    case TermKind::Neg: {
      TermId Op = run(Arena.operand(Term, 0));
      if (Arena.isIntConst(Op))
        return Arena.mkIntConst(-Arena.intConstValue(Op));
      if (Arena.kind(Op) == TermKind::Neg)
        return Arena.operand(Op, 0);
      return Arena.mkNeg(Op);
    }
    case TermKind::Mul: {
      TermId L = run(Arena.operand(Term, 0));
      TermId R = run(Arena.operand(Term, 1));
      if (Arena.isIntConst(L) && Arena.isIntConst(R))
        return Arena.mkIntConst(static_cast<int64_t>(
            static_cast<uint64_t>(Arena.intConstValue(L)) *
            static_cast<uint64_t>(Arena.intConstValue(R))));
      // Canonicalize: constant on the left.
      if (Arena.isIntConst(R))
        std::swap(L, R);
      int64_t C = Arena.intConstValue(L);
      if (C == 0)
        return Arena.mkIntConst(0);
      if (C == 1)
        return R;
      if (C == -1)
        return Arena.mkNeg(R);
      return Arena.mkMul(L, R);
    }
    case TermKind::Eq:
    case TermKind::Ne:
    case TermKind::Lt:
    case TermKind::Le:
    case TermKind::Gt:
    case TermKind::Ge: {
      TermId L = run(Arena.operand(Term, 0));
      TermId R = run(Arena.operand(Term, 1));
      if (Arena.isIntConst(L) && Arena.isIntConst(R))
        return Arena.mkBoolConst(evalCmp(N.Kind, Arena.intConstValue(L),
                                         Arena.intConstValue(R)));
      if (L == R) {
        switch (N.Kind) {
        case TermKind::Eq:
        case TermKind::Le:
        case TermKind::Ge:
          return Arena.mkTrue();
        case TermKind::Ne:
        case TermKind::Lt:
        case TermKind::Gt:
          return Arena.mkFalse();
        default:
          break;
        }
      }
      return Arena.mkCmp(N.Kind, L, R);
    }
    case TermKind::Not: {
      TermId Op = run(Arena.operand(Term, 0));
      if (Arena.isBoolConst(Op))
        return Arena.mkBoolConst(!Arena.boolConstValue(Op));
      if (Arena.kind(Op) == TermKind::Not)
        return Arena.operand(Op, 0);
      if (isCmpKind(Arena.kind(Op)))
        return Arena.mkCmp(negatedCmp(Arena.kind(Op)), Arena.operand(Op, 0),
                           Arena.operand(Op, 1));
      return Arena.mkNot(Op);
    }
    case TermKind::And:
    case TermKind::Or:
      return simplifyConnective(Term, N.Kind);
    case TermKind::Implies: {
      TermId L = run(Arena.operand(Term, 0));
      TermId R = run(Arena.operand(Term, 1));
      if (Arena.isBoolConst(L))
        return Arena.boolConstValue(L) ? R : Arena.mkTrue();
      if (Arena.isBoolConst(R) && Arena.boolConstValue(R))
        return Arena.mkTrue();
      return Arena.mkImplies(L, R);
    }
    case TermKind::UFApp: {
      // Copy before recursing: run() interns, which may reallocate the
      // arena's shared operand pool under a live operands() span.
      auto Span = Arena.operands(Term);
      std::vector<TermId> Args(Span.begin(), Span.end());
      for (TermId &Arg : Args)
        Arg = run(Arg);
      return Arena.mkUFApp(Arena.funcIdOf(Term), Args);
    }
    }
    HOTG_UNREACHABLE("unknown term kind");
  }

  TermId simplifyAdd(TermId Term) {
    // Flatten nested adds and fold the constant tail.
    std::vector<TermId> Flat;
    int64_t Constant = 0;
    bool SawConstant = false;
    std::vector<TermId> Work(Arena.operands(Term).begin(),
                             Arena.operands(Term).end());
    for (size_t I = 0; I != Work.size(); ++I) {
      TermId Op = run(Work[I]);
      if (Arena.kind(Op) == TermKind::Add) {
        auto Ops = Arena.operands(Op);
        Work.insert(Work.end(), Ops.begin(), Ops.end());
        continue;
      }
      if (Arena.isIntConst(Op)) {
        Constant = static_cast<int64_t>(static_cast<uint64_t>(Constant) +
                                        static_cast<uint64_t>(
                                            Arena.intConstValue(Op)));
        SawConstant = true;
        continue;
      }
      Flat.push_back(Op);
    }
    if (Flat.empty())
      return Arena.mkIntConst(Constant);
    if (SawConstant && Constant != 0)
      Flat.push_back(Arena.mkIntConst(Constant));
    return Arena.mkAdd(Flat);
  }

  TermId simplifyConnective(TermId Term, TermKind Kind) {
    bool IsAnd = Kind == TermKind::And;
    std::vector<TermId> Flat;
    std::vector<TermId> Work(Arena.operands(Term).begin(),
                             Arena.operands(Term).end());
    for (size_t I = 0; I != Work.size(); ++I) {
      TermId Op = run(Work[I]);
      if (Arena.kind(Op) == Kind) {
        // Nested operands are appended, not spliced in place, so a nested
        // conjunction like alternate()'s mkAnd(prefix, negated) flattens
        // with the *negated* literal first. That order is deliberate: the
        // negated literal is the discriminating one, and asserting it first
        // steers the engine's atom order toward it (~18x fewer decisions on
        // the lexer workload than prefix-first order). The cost is that
        // positional prefix sharing rarely fires on ALT queries
        // (docs/solver.md).
        auto Ops = Arena.operands(Op);
        Work.insert(Work.end(), Ops.begin(), Ops.end());
        continue;
      }
      if (Arena.isBoolConst(Op)) {
        bool V = Arena.boolConstValue(Op);
        // Neutral element is dropped; absorbing element decides the result.
        if (V == IsAnd)
          continue;
        return Arena.mkBoolConst(V);
      }
      bool Duplicate = false;
      for (TermId Existing : Flat)
        if (Existing == Op) {
          Duplicate = true;
          break;
        }
      if (!Duplicate)
        Flat.push_back(Op);
    }
    return IsAnd ? Arena.mkAnd(Flat) : Arena.mkOr(Flat);
  }

  TermArena &Arena;
};

/// NNF conversion with polarity tracking.
TermId nnf(TermArena &Arena, TermId Term, bool Negated) {
  const TermNode &N = Arena.node(Term);
  switch (N.Kind) {
  case TermKind::BoolConst:
    return Arena.mkBoolConst(Arena.boolConstValue(Term) != Negated);
  case TermKind::Not:
    return nnf(Arena, Arena.operand(Term, 0), !Negated);
  case TermKind::Implies: {
    // a => b  ≡  ¬a ∨ b.
    TermId L = nnf(Arena, Arena.operand(Term, 0), !Negated);
    TermId R = nnf(Arena, Arena.operand(Term, 1), Negated);
    return Negated ? Arena.mkAnd(L, R) : Arena.mkOr(L, R);
  }
  case TermKind::And:
  case TermKind::Or: {
    bool IsAnd = (N.Kind == TermKind::And) != Negated;
    // Copy before recursing: nnf() interns, which may reallocate the
    // arena's shared operand pool under a live operands() span.
    auto Span = Arena.operands(Term);
    std::vector<TermId> Ops(Span.begin(), Span.end());
    for (TermId &Op : Ops)
      Op = nnf(Arena, Op, Negated);
    return IsAnd ? Arena.mkAnd(Ops) : Arena.mkOr(Ops);
  }
  case TermKind::Eq:
  case TermKind::Ne:
  case TermKind::Lt:
  case TermKind::Le:
  case TermKind::Gt:
  case TermKind::Ge:
    if (Negated)
      return Arena.mkCmp(negatedCmp(N.Kind), Arena.operand(Term, 0),
                         Arena.operand(Term, 1));
    return Term;
  default:
    HOTG_UNREACHABLE("nnf: not a boolean term");
  }
}

} // namespace

TermId hotg::smt::simplify(TermArena &Arena, TermId Term) {
  return Simplifier(Arena).run(Term);
}

TermId hotg::smt::toNNF(TermArena &Arena, TermId Term) {
  assert(Arena.type(Term) == TermType::Bool && "NNF needs a boolean term");
  return nnf(Arena, simplify(Arena, Term), /*Negated=*/false);
}

TermId hotg::smt::negate(TermArena &Arena, TermId Term) {
  assert(Arena.type(Term) == TermType::Bool && "negate needs a boolean term");
  return nnf(Arena, simplify(Arena, Term), /*Negated=*/true);
}
