//===- tests/test_smt_refutation_oracle.cpp - Brute-force refutation oracle -===//
//
// An independent check of every answer the validity solver relies on: a
// stack refuted at assert time (which cuts a whole grounding subtree), a
// value a base domain excludes (which cuts a sample binding before it is
// asserted), and every Unsat or Sat answer of check(). The oracle is a
// small-domain
// brute-force model finder with its own evaluator over TermArena kinds; it
// shares no code with the solver (no Model evaluation, Simplify or
// Linear). Integer variables range over a small interval, and UF tables
// agree with the SampleTable at sampled points and range over a small
// value set elsewhere. Any model it finds for a refuted stack is a
// soundness bug; so is a Sat model whose variable values it cannot
// complete into a sample-consistent UF table satisfying the stack.
//
//===----------------------------------------------------------------------===//

#include "smt/SolverContext.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

using namespace hotg;
using namespace hotg::smt;

namespace {

class SmallDomainOracle {
public:
  /// UF outputs range over [Lo, Hi], the sampled outputs and
  /// \p ExtraOutputs.
  SmallDomainOracle(const TermArena &Arena, const SampleTable &Samples,
                    int64_t Lo, int64_t Hi,
                    std::span<const int64_t> ExtraOutputs = {})
      : Arena(Arena), Samples(Samples) {
    for (int64_t V = Lo; V <= Hi; ++V)
      VarValues.push_back(V);
    std::set<int64_t> Outs(VarValues.begin(), VarValues.end());
    for (const Sample &S : Samples.allSamples())
      Outs.insert(S.Output);
    Outs.insert(ExtraOutputs.begin(), ExtraOutputs.end());
    OutValues.assign(Outs.begin(), Outs.end());
  }

  /// True when some assignment satisfies every literal of \p Lits. The
  /// variables in \p Fixed keep their values; the others range over
  /// [Lo, Hi].
  bool findModel(std::span<const TermId> Lits,
                 const std::map<VarId, int64_t> &Fixed = {}) {
    std::set<VarId> Seen;
    for (TermId L : Lits)
      collectVars(L, Seen);
    Vars.clear();
    for (VarId V : Seen)
      if (!Fixed.count(V))
        Vars.push_back(V);
    VarValue = Fixed;
    Table.clear();
    return assignVars(0, Lits);
  }

private:
  using Point = std::pair<FuncId, std::vector<int64_t>>;

  void collectVars(TermId T, std::set<VarId> &Out) const {
    if (Arena.kind(T) == TermKind::IntVar)
      Out.insert(Arena.varIdOf(T));
    for (TermId Op : Arena.operands(T))
      collectVars(Op, Out);
  }

  bool assignVars(size_t I, std::span<const TermId> Lits) {
    if (I == Vars.size())
      return fillTables(Lits);
    for (int64_t V : VarValues) {
      VarValue[Vars[I]] = V;
      if (assignVars(I + 1, Lits))
        return true;
    }
    return false;
  }

  /// Evaluates the literals; when one needs an undefined UF point, tries
  /// every output value there.
  bool fillTables(std::span<const TermId> Lits) {
    for (TermId L : Lits) {
      std::optional<bool> B = evalBool(L);
      if (!B) {
        Point P = Missing;
        for (int64_t V : OutValues) {
          Table[P] = V;
          if (fillTables(Lits))
            return true;
        }
        Table.erase(P);
        return false;
      }
      if (!*B)
        return false;
    }
    return true;
  }

  /// nullopt when the value depends on an undefined UF point (stored in
  /// Missing).
  std::optional<int64_t> evalInt(TermId T) {
    auto Ops = Arena.operands(T);
    auto Wrap = [](uint64_t V) { return static_cast<int64_t>(V); };
    switch (Arena.kind(T)) {
    case TermKind::IntConst:
      return Arena.intConstValue(T);
    case TermKind::IntVar:
      return VarValue.at(Arena.varIdOf(T));
    case TermKind::Add: {
      uint64_t Sum = 0;
      for (TermId Op : Ops) {
        std::optional<int64_t> V = evalInt(Op);
        if (!V)
          return std::nullopt;
        Sum += static_cast<uint64_t>(*V);
      }
      return Wrap(Sum);
    }
    case TermKind::Neg:
    case TermKind::Sub:
    case TermKind::Mul: {
      std::vector<int64_t> Vs;
      for (TermId Op : Ops) {
        std::optional<int64_t> V = evalInt(Op);
        if (!V)
          return std::nullopt;
        Vs.push_back(*V);
      }
      uint64_t A = static_cast<uint64_t>(Vs[0]);
      if (Arena.kind(T) == TermKind::Neg)
        return Wrap(0 - A);
      uint64_t B = static_cast<uint64_t>(Vs[1]);
      return Wrap(Arena.kind(T) == TermKind::Sub ? A - B : A * B);
    }
    case TermKind::UFApp: {
      Point P{Arena.funcIdOf(T), {}};
      for (TermId Op : Ops) {
        std::optional<int64_t> V = evalInt(Op);
        if (!V)
          return std::nullopt;
        P.second.push_back(*V);
      }
      if (std::optional<int64_t> Out = Samples.lookup(P.first, P.second))
        return Out;
      if (auto It = Table.find(P); It != Table.end())
        return It->second;
      Missing = std::move(P);
      return std::nullopt;
    }
    default:
      ADD_FAILURE() << "oracle: not an integer term";
      return std::nullopt;
    }
  }

  std::optional<bool> evalBool(TermId T) {
    auto Ops = Arena.operands(T);
    TermKind K = Arena.kind(T);
    switch (K) {
    case TermKind::BoolConst:
      return Arena.boolConstValue(T);
    case TermKind::Not: {
      std::optional<bool> B = evalBool(Ops[0]);
      return B ? std::optional<bool>(!*B) : std::nullopt;
    }
    case TermKind::And:
    case TermKind::Or:
      for (TermId Op : Ops) {
        std::optional<bool> B = evalBool(Op);
        if (!B || *B != (K == TermKind::And))
          return B;
      }
      return K == TermKind::And;
    default:
      break;
    }
    std::optional<int64_t> L = evalInt(Ops[0]);
    std::optional<int64_t> R = L ? evalInt(Ops[1]) : std::nullopt;
    if (!R)
      return std::nullopt;
    switch (K) {
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
      ADD_FAILURE() << "oracle: unsupported boolean term";
      return std::nullopt;
    }
  }

  const TermArena &Arena;
  const SampleTable &Samples;
  std::vector<int64_t> VarValues;
  std::vector<int64_t> OutValues;
  std::vector<VarId> Vars;
  std::map<VarId, int64_t> VarValue;
  std::map<Point, int64_t> Table;
  Point Missing;
};

class RefutationOracleTest : public ::testing::Test {
protected:
  static constexpr int64_t Lo = -2, Hi = 2;

  TermArena Arena;
  SampleTable Samples;
  TermId X = Arena.mkVar("x");
  TermId Y = Arena.mkVar("y");
  TermId Z = Arena.mkVar("z");
  FuncId F = Arena.getOrCreateFunc("f", 1);
  FuncId G = Arena.getOrCreateFunc("g", 2);

  TermId c(int64_t V) { return Arena.mkIntConst(V); }
  TermId f(TermId A) { return Arena.mkUFApp(F, {{A}}); }

  bool oracleSat(std::span<const TermId> Lits) {
    SmallDomainOracle Oracle(Arena, Samples, Lo, Hi);
    return Oracle.findModel(Lits);
  }

  /// True when \p Lits hold with every variable fixed to its value in
  /// \p M, under some sample-consistent UF table whose outputs may also
  /// take the values \p M gave its function points.
  bool oracleConfirms(std::span<const TermId> Lits, const Model &M) {
    std::vector<int64_t> ModelOutputs;
    for (const Sample &S : M.funcExtensions().allSamples())
      ModelOutputs.push_back(S.Output);
    SmallDomainOracle Oracle(Arena, Samples, Lo, Hi, ModelOutputs);
    const auto &Assigned = M.varAssignments();
    return Oracle.findModel(
        Lits, std::map<VarId, int64_t>(Assigned.begin(), Assigned.end()));
  }

  /// The variables and UF applications of \p Lits, nested ones included:
  /// every term the solver may register as an atom.
  std::set<TermId> atomsOf(std::span<const TermId> Lits) const {
    std::set<TermId> Atoms;
    std::vector<TermId> Work(Lits.begin(), Lits.end());
    while (!Work.empty()) {
      TermId T = Work.back();
      Work.pop_back();
      TermKind K = Arena.kind(T);
      if (K == TermKind::IntVar || K == TermKind::UFApp)
        Atoms.insert(T);
      for (TermId Op : Arena.operands(T))
        Work.push_back(Op);
    }
    return Atoms;
  }

  /// Three random UF applications over variables and constants. A round
  /// draws its applications from this pool, which bounds the oracle's
  /// table search.
  std::vector<TermId> randomApps(RandomGen &Rng) {
    TermId Vars[] = {X, Y, Z};
    auto Simple = [&] {
      return Rng.nextBelow(4) == 0 ? c(Rng.nextInRange(Lo, Hi))
                                   : Vars[Rng.nextBelow(3)];
    };
    std::vector<TermId> Apps;
    for (unsigned I = 0; I != 3; ++I)
      Apps.push_back(
          Rng.nextBelow(3) == 0
              ? Arena.mkUFApp(G, {{Simple(), Simple()}})
              : f(Rng.nextBelow(3) == 0 ? Arena.mkAdd(Simple(), c(1))
                                        : Simple()));
    return Apps;
  }

  /// A random integer term: a constant, a variable, or a pool application.
  TermId randomAtom(RandomGen &Rng) {
    TermId Vars[] = {X, Y, Z};
    switch (Rng.nextBelow(5)) {
    case 0:
      return c(Rng.nextInRange(Lo, Hi));
    case 1:
    case 2:
      return Vars[Rng.nextBelow(3)];
    default:
      return Pool[Rng.nextBelow(Pool.size())];
    }
  }

  /// A random comparison of two small linear combinations.
  TermId randomLiteral(RandomGen &Rng) {
    auto Side = [&] {
      TermId T = randomAtom(Rng);
      if (Rng.nextBelow(3) == 0)
        T = Arena.mkMul(c(Rng.nextInRange(-2, 2)), T);
      if (Rng.nextBelow(3) == 0)
        T = Arena.mkAdd(T, randomAtom(Rng));
      return T;
    };
    static const TermKind Kinds[] = {TermKind::Eq, TermKind::Eq, TermKind::Ne,
                                     TermKind::Lt, TermKind::Le, TermKind::Gt,
                                     TermKind::Ge};
    return Arena.mkCmp(Kinds[Rng.nextBelow(7)], Side(), Side());
  }

  std::vector<TermId> Pool;

  void recordRandomSamples(RandomGen &Rng) {
    for (unsigned I = 0; I != 3; ++I) {
      std::vector<int64_t> Args{Rng.nextInRange(Lo, Hi)};
      if (!Samples.lookup(F, Args))
        Samples.record(F, Args, Rng.nextInRange(Lo, Hi));
    }
    for (unsigned I = 0; I != 2; ++I) {
      std::vector<int64_t> Args{Rng.nextInRange(Lo, Hi),
                                Rng.nextInRange(Lo, Hi)};
      if (!Samples.lookup(G, Args))
        Samples.record(G, Args, Rng.nextInRange(Lo, Hi));
    }
  }
};

TEST_F(RefutationOracleTest, OracleSeesModelsAndContradictions) {
  Samples.record(F, {0}, 1);
  TermId Sat[] = {Arena.mkLe(c(1), X), Arena.mkEq(f(X), Y)};
  TermId Clash[] = {Arena.mkEq(X, c(1)), Arena.mkEq(X, c(2))};
  TermId PinnedSample[] = {Arena.mkEq(X, c(0)), Arena.mkEq(f(X), c(2))};
  TermId Congruence[] = {Arena.mkEq(X, Y), Arena.mkNe(f(X), f(Y))};
  EXPECT_TRUE(oracleSat(Sat));
  EXPECT_FALSE(oracleSat(Clash));
  EXPECT_FALSE(oracleSat(PinnedSample));
  EXPECT_FALSE(oracleSat(Congruence));
}

TEST_F(RefutationOracleTest, RefutedStacksHaveNoSmallModel) {
  // Random literal stacks asserted one scope per literal, as the validity
  // solver's grounding search does, then partly popped and re-extended so
  // refutations that should have been rolled back are caught too. Sat
  // answers are re-checked along the way, and so is every small value an
  // unrefuted stack's domains exclude: the stack with `atom = value` must
  // have no model.
  RandomGen Rng(0x0dd5eed);
  unsigned Refuted = 0, Unsat = 0, Sat = 0, Excluded = 0;
  for (unsigned Round = 0; Round != 1000; ++Round) {
    if (Round % 40 == 0) {
      Samples = SampleTable();
      recordRandomSamples(Rng);
    }
    SolverOptions Options;
    Options.Samples = &Samples;
    SolverContext Ctx(Arena, Options);
    Pool = randomApps(Rng);
    auto Extend = [&](unsigned Count) {
      for (unsigned I = 0; I != Count && !Ctx.refuted(); ++I) {
        Ctx.push();
        Ctx.assertLiteral(randomLiteral(Rng));
        if (Ctx.refuted()) {
          ++Refuted;
          EXPECT_FALSE(oracleSat(Ctx.literals()))
              << "refuted at assert time, yet the oracle found a model (round "
              << Round << ")";
        }
      }
      SolverStats Stats;
      SatAnswer Answer = Ctx.check(Stats);
      if (Answer.isUnsat()) {
        ++Unsat;
        EXPECT_FALSE(oracleSat(Ctx.literals()))
            << "check() answered Unsat, yet the oracle found a model (round "
            << Round << ")";
      } else if (Answer.isSat()) {
        ++Sat;
        EXPECT_TRUE(oracleConfirms(Ctx.literals(), Answer.ModelValue))
            << "check() answered Sat with a model the oracle rejects (round "
            << Round << ")";
      }
      if (Ctx.refuted())
        return;
      std::vector<TermId> Lits(Ctx.literals().begin(), Ctx.literals().end());
      for (TermId Atom : atomsOf(Lits))
        for (int64_t V = Lo; V <= Hi; ++V) {
          if (!Ctx.excludes(Atom, V))
            continue;
          ++Excluded;
          Lits.push_back(Arena.mkEq(Atom, c(V)));
          EXPECT_FALSE(oracleSat(Lits))
              << "the domain of " << Arena.toString(Atom) << " excludes " << V
              << ", yet the oracle found a model (round " << Round << ")";
          Lits.pop_back();
        }
    };
    Extend(2 + Rng.nextBelow(5));
    for (unsigned Pops = Rng.nextBelow(Ctx.numScopes() + 1); Pops != 0; --Pops)
      Ctx.pop();
    Extend(1 + Rng.nextBelow(3));
  }
  // The sweep must actually exercise refutations to mean anything.
  EXPECT_GE(Refuted, 200u);
  EXPECT_GT(Unsat, Refuted) << "check-time refutations must be exercised too";
  EXPECT_GE(Sat, 200u) << "Sat answers must be exercised too";
  EXPECT_GE(Excluded, 1000u) << "domain exclusions must be exercised too";
}

TEST_F(RefutationOracleTest, AssertTimeRefutationIsOrderIndependent) {
  // Assert-time propagation narrows domains monotonically to a fixpoint,
  // and the congruence closure of a literal set does not depend on its
  // order, so whether a set is refuted at assert time must not either.
  // Each set is asserted one literal per scope in the drawn order,
  // reversed, and rotated by one.
  RandomGen Rng(0x5eed0dd);
  unsigned Refuted = 0;
  for (unsigned Round = 0; Round != 2000; ++Round) {
    if (Round % 40 == 0) {
      Samples = SampleTable();
      recordRandomSamples(Rng);
    }
    SolverOptions Options;
    Options.Samples = &Samples;
    Pool = randomApps(Rng);
    std::vector<TermId> Lits(3 + Rng.nextBelow(4));
    for (TermId &Lit : Lits)
      Lit = randomLiteral(Rng);
    auto RefutedIn = [&](const std::vector<TermId> &Order) {
      SolverContext Ctx(Arena, Options);
      for (TermId Lit : Order) {
        Ctx.push();
        Ctx.assertLiteral(Lit);
      }
      return Ctx.refuted();
    };
    std::vector<TermId> Reversed(Lits.rbegin(), Lits.rend());
    std::vector<TermId> Rotated = Lits;
    std::rotate(Rotated.begin(), Rotated.begin() + 1, Rotated.end());
    bool Drawn = RefutedIn(Lits);
    EXPECT_EQ(RefutedIn(Reversed), Drawn) << "reversed order (round " << Round
                                          << ")";
    EXPECT_EQ(RefutedIn(Rotated), Drawn) << "rotated order (round " << Round
                                         << ")";
    Refuted += Drawn;
  }
  EXPECT_GE(Refuted, 400u) << "the sweep must exercise refutations";
}

} // namespace
