//===- smt/Term.h - Hash-consed terms for LIA+EUF --------------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Terms of the theory T ∪ T_EUF used throughout the reproduction: linear
/// integer arithmetic, comparisons, boolean connectives, and uninterpreted
/// function applications (the paper's representation for unknown program
/// functions and instructions). Terms are hash-consed in a TermArena, so
/// structural equality is TermId equality.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_TERM_H
#define HOTG_SMT_TERM_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hotg::smt {

/// Index of a term inside its owning TermArena.
using TermId = uint32_t;

/// Sentinel for "no term".
inline constexpr TermId InvalidTerm = ~TermId(0);

/// Index of an integer variable registered in a TermArena.
using VarId = uint32_t;

/// Index of an uninterpreted function symbol registered in a TermArena.
using FuncId = uint32_t;

/// Discriminates term nodes.
enum class TermKind : uint8_t {
  IntConst, ///< 64-bit integer literal; payload = value.
  BoolConst,///< true/false; payload = 0 or 1.
  IntVar,   ///< Integer variable; payload = VarId.
  Add,      ///< n-ary integer addition.
  Sub,      ///< Binary integer subtraction.
  Neg,      ///< Unary integer negation.
  Mul,      ///< Binary multiplication; at least one operand is IntConst.
  Eq,       ///< Binary integer equality (bool result).
  Ne,       ///< Binary integer disequality.
  Lt,       ///< Less-than.
  Le,       ///< Less-or-equal.
  Gt,       ///< Greater-than.
  Ge,       ///< Greater-or-equal.
  Not,      ///< Boolean negation.
  And,      ///< n-ary conjunction.
  Or,       ///< n-ary disjunction.
  Implies,  ///< Binary implication (used by POST(pc) antecedents).
  UFApp,    ///< Uninterpreted function application; payload = FuncId.
};

/// Whether a term denotes an integer or a boolean.
enum class TermType : uint8_t { Int, Bool };

/// Returns a stable name for \p Kind ("add", "uf", ...).
const char *termKindName(TermKind Kind);

/// One hash-consed node. Operands live in the arena's shared operand pool.
struct TermNode {
  TermKind Kind;
  TermType Type;
  /// IntConst value, BoolConst 0/1, IntVar VarId, or UFApp FuncId.
  int64_t Payload = 0;
  uint32_t OperandBegin = 0;
  uint32_t NumOperands = 0;
};

/// Metadata for an uninterpreted function symbol.
struct FuncSymbol {
  std::string Name;
  unsigned Arity = 0;
};

/// Arena-independent 128-bit structural digest of a term DAG. Variables
/// and function symbols are hashed by *name*, so two terms built in
/// different arenas get the same fingerprint iff they are structurally
/// equal — the key of the shared solver-query cache (smt/QueryCache.h).
struct TermFingerprint {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const TermFingerprint &Other) const = default;
};

/// An arena-independent snapshot of one term DAG: nodes in topological
/// order (operands before users, root last), with variables and function
/// symbols resolved to names. Produced by TermArena::exportTerm on one
/// arena and re-interned by TermArena::importTerm on another.
struct PortableTerm {
  struct Node {
    TermKind Kind;
    TermType Type;
    /// IntConst value, BoolConst 0/1, IntVar index into Vars, or UFApp
    /// index into Funcs.
    int64_t Payload = 0;
    uint32_t OperandBegin = 0;
    uint32_t NumOperands = 0;
  };

  std::vector<Node> Nodes;
  /// Operand lists; values are indices into Nodes.
  std::vector<uint32_t> Operands;
  std::vector<std::string> Vars;
  std::vector<FuncSymbol> Funcs;

  bool empty() const { return Nodes.empty(); }
};

/// Owns all terms, variables and function symbols for one analysis session.
///
/// All factory methods hash-cons: building the same term twice yields the
/// same TermId. Factories perform light normalization only (operand arity
/// checks); semantic simplification lives in smt/Simplify.h.
class TermArena {
public:
  TermArena();

  //===------------------------------------------------------------------===//
  // Variables and function symbols
  //===------------------------------------------------------------------===//

  /// Returns the VarId for \p Name, registering it on first use.
  VarId getOrCreateVar(std::string_view Name);

  /// Returns the name of variable \p Var.
  std::string_view varName(VarId Var) const;

  /// Number of registered variables.
  unsigned numVars() const { return static_cast<unsigned>(VarNames.size()); }

  /// Returns the FuncId for \p Name with \p Arity, registering it on first
  /// use. Re-registering with a different arity is a fatal error.
  FuncId getOrCreateFunc(std::string_view Name, unsigned Arity);

  /// Returns the symbol metadata of \p Func.
  const FuncSymbol &func(FuncId Func) const;

  /// Number of registered function symbols.
  unsigned numFuncs() const { return static_cast<unsigned>(Funcs.size()); }

  //===------------------------------------------------------------------===//
  // Term factories
  //===------------------------------------------------------------------===//

  TermId mkIntConst(int64_t Value);
  TermId mkBoolConst(bool Value);
  TermId mkTrue() { return mkBoolConst(true); }
  TermId mkFalse() { return mkBoolConst(false); }
  TermId mkVar(VarId Var);
  TermId mkVar(std::string_view Name) { return mkVar(getOrCreateVar(Name)); }

  TermId mkAdd(std::span<const TermId> Operands);
  TermId mkAdd(TermId Lhs, TermId Rhs);
  TermId mkSub(TermId Lhs, TermId Rhs);
  TermId mkNeg(TermId Operand);
  /// Requires at least one of the operands to be an IntConst (the solver's
  /// fragment is linear arithmetic).
  TermId mkMul(TermId Lhs, TermId Rhs);

  TermId mkCmp(TermKind Kind, TermId Lhs, TermId Rhs);
  TermId mkEq(TermId Lhs, TermId Rhs) { return mkCmp(TermKind::Eq, Lhs, Rhs); }
  TermId mkNe(TermId Lhs, TermId Rhs) { return mkCmp(TermKind::Ne, Lhs, Rhs); }
  TermId mkLt(TermId Lhs, TermId Rhs) { return mkCmp(TermKind::Lt, Lhs, Rhs); }
  TermId mkLe(TermId Lhs, TermId Rhs) { return mkCmp(TermKind::Le, Lhs, Rhs); }
  TermId mkGt(TermId Lhs, TermId Rhs) { return mkCmp(TermKind::Gt, Lhs, Rhs); }
  TermId mkGe(TermId Lhs, TermId Rhs) { return mkCmp(TermKind::Ge, Lhs, Rhs); }

  TermId mkNot(TermId Operand);
  TermId mkAnd(std::span<const TermId> Operands);
  TermId mkAnd(TermId Lhs, TermId Rhs);
  TermId mkOr(std::span<const TermId> Operands);
  TermId mkOr(TermId Lhs, TermId Rhs);
  TermId mkImplies(TermId Lhs, TermId Rhs);

  TermId mkUFApp(FuncId Func, std::span<const TermId> Args);

  //===------------------------------------------------------------------===//
  // Accessors
  //===------------------------------------------------------------------===//

  const TermNode &node(TermId Term) const;
  TermKind kind(TermId Term) const { return node(Term).Kind; }
  TermType type(TermId Term) const { return node(Term).Type; }
  std::span<const TermId> operands(TermId Term) const;
  TermId operand(TermId Term, unsigned Index) const;

  bool isIntConst(TermId Term) const {
    return kind(Term) == TermKind::IntConst;
  }
  bool isBoolConst(TermId Term) const {
    return kind(Term) == TermKind::BoolConst;
  }
  int64_t intConstValue(TermId Term) const;
  bool boolConstValue(TermId Term) const;
  VarId varIdOf(TermId Term) const;
  FuncId funcIdOf(TermId Term) const;

  unsigned numTerms() const { return static_cast<unsigned>(Nodes.size()); }

  /// Memoized simplified form of \p Term (InvalidTerm when not yet
  /// computed). Maintained by smt::simplify — hash-consing makes the
  /// mapping stable for the arena's lifetime, so simplification of the
  /// same subterm across runs of a directed search costs one lookup.
  TermId cachedSimplified(TermId Term) const {
    return Term < SimplifiedForm.size() ? SimplifiedForm[Term]
                                        : InvalidTerm;
  }

  /// Records the simplified form of \p Term (see cachedSimplified).
  void setCachedSimplified(TermId Term, TermId Simplified) {
    if (Term >= SimplifiedForm.size())
      SimplifiedForm.resize(numTerms(), InvalidTerm);
    SimplifiedForm[Term] = Simplified;
  }

  //===------------------------------------------------------------------===//
  // Cross-arena translation and fingerprints
  //===------------------------------------------------------------------===//

  /// Snapshots the DAG rooted at \p Term into an arena-independent form
  /// (names instead of VarId/FuncId, topologically ordered nodes).
  PortableTerm exportTerm(TermId Term) const;

  /// Interns every node of \p Snapshot, registering variables and function
  /// symbols by name, and returns the root's TermId. Because the factories
  /// hash-cons, importing a snapshot into the arena it was exported from
  /// returns the original TermId, and importing the same snapshot twice
  /// returns the same TermId (structural equality ⇒ identity).
  TermId importTerm(const PortableTerm &Snapshot);

  /// Imports the DAG rooted at \p SrcTerm of \p Src into this arena,
  /// mapping variables and function symbols by name. Equivalent to
  /// importTerm(Src.exportTerm(SrcTerm)).
  TermId import(const TermArena &Src, TermId SrcTerm);

  /// Arena-independent structural digest of \p Term (memoized per arena;
  /// hash-consing makes the memo stable for the arena's lifetime).
  TermFingerprint fingerprint(TermId Term);

  //===------------------------------------------------------------------===//
  // Traversal and printing
  //===------------------------------------------------------------------===//

  /// Appends every distinct variable occurring in \p Term to \p Vars
  /// (deterministic first-occurrence order, no duplicates).
  void collectVars(TermId Term, std::vector<VarId> &Vars) const;

  /// Appends every distinct UF application subterm of \p Term to \p Apps
  /// (deterministic first-occurrence order, no duplicates).
  void collectApps(TermId Term, std::vector<TermId> &Apps) const;

  /// Returns true if \p Term contains at least one UF application.
  bool containsApp(TermId Term) const;

  /// Renders \p Term as an SMT-LIB-style s-expression.
  std::string toString(TermId Term) const;

private:
  TermId intern(TermKind Kind, TermType Type, int64_t Payload,
                std::span<const TermId> Operands);

  std::vector<TermNode> Nodes;
  std::vector<TermId> OperandPool;
  std::unordered_map<size_t, std::vector<TermId>> DedupBuckets;

  std::vector<std::string> VarNames;
  std::unordered_map<std::string, VarId> VarByName;

  std::vector<FuncSymbol> Funcs;
  std::unordered_map<std::string, FuncId> FuncByName;

  /// Simplification memo, indexed by TermId (see cachedSimplified).
  std::vector<TermId> SimplifiedForm;

  /// Fingerprint memo, indexed by TermId; {0,0} marks "not yet computed"
  /// (the mixer never produces the all-zero digest for a real node).
  std::vector<TermFingerprint> Fingerprints;
};

} // namespace hotg::smt

#endif // HOTG_SMT_TERM_H
