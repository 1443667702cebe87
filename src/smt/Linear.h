//===- smt/Linear.h - Linear expression extraction --------------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-combination view of integer terms. The theory solver normalizes
/// every comparison atom into `Σ coeff_i · atom_i + constant ⋈ 0`, where each
/// atom is either an integer variable or a UF application (which the solver
/// treats as an opaque integer unknown subject to congruence).
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_LINEAR_H
#define HOTG_SMT_LINEAR_H

#include "smt/Term.h"

#include <optional>
#include <vector>

namespace hotg::smt {

/// One summand of a linear expression: Coeff times the value of Atom, where
/// Atom is an IntVar or UFApp term.
struct LinearMonomial {
  int64_t Coeff = 0;
  TermId Atom = InvalidTerm;

  bool operator==(const LinearMonomial &Other) const = default;
};

/// `Σ Monomials + Constant`. Monomials are sorted by Atom id and coalesced;
/// zero coefficients are removed.
struct LinearExpr {
  std::vector<LinearMonomial> Monomials;
  int64_t Constant = 0;

  bool isConstant() const { return Monomials.empty(); }

  /// Returns the coefficient of \p Atom (0 when absent).
  int64_t coeffOf(TermId Atom) const;

  /// Adds \p Coeff * Atom in place, keeping the representation canonical.
  void add(int64_t Coeff, TermId Atom);

  /// Adds \p Other scaled by \p Scale in place.
  void addScaled(const LinearExpr &Other, int64_t Scale);

  bool operator==(const LinearExpr &Other) const = default;
};

/// Normalized comparison kinds used by the theory solver. Every source atom
/// maps onto Expr ⋈ 0 with ⋈ in {=, ≠, ≤}.
enum class LinearRelKind : uint8_t { Eq, Ne, Le };

/// One normalized theory literal: `Expr ⋈ 0`.
struct LinearAtom {
  LinearExpr Expr;
  LinearRelKind Rel = LinearRelKind::Eq;

  bool operator==(const LinearAtom &Other) const = default;
};

/// Extracts the linear form of integer term \p Term. Returns std::nullopt if
/// the term is outside the linear fragment (cannot happen for terms built by
/// the hotg symbolic executor, which routes nonlinear operations through
/// concretization or uninterpreted functions).
std::optional<LinearExpr> extractLinear(const TermArena &Arena, TermId Term);

/// Rebuilds a term denoting \p Expr (sum of scaled atoms plus constant).
TermId linearExprToTerm(TermArena &Arena, const LinearExpr &Expr);

/// Normalizes a comparison term `lhs ⋈ rhs` into a LinearAtom over
/// `lhs - rhs`. Lt/Gt/Ge are rewritten into Le with adjusted constants;
/// comparisons negated at a higher level must be flipped before calling.
/// Returns std::nullopt when a side is not linear.
std::optional<LinearAtom> normalizeComparison(const TermArena &Arena,
                                              TermId Cmp);

/// normalizeComparison(\p Arena, \p Cmp), memoized in \p Arena. The result
/// is a pure function of the hash-consed term, so the memo lasts as long
/// as the arena: across every query and solver context of one search. The
/// reference stays valid for the arena's lifetime.
const std::optional<LinearAtom> &normalizedComparison(TermArena &Arena,
                                                      TermId Cmp);

} // namespace hotg::smt

#endif // HOTG_SMT_LINEAR_H
