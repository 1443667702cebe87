//===- smt/Model.h - Models and term evaluation -----------------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Model assigns integer values to variables and a partial interpretation
/// to uninterpreted functions (recorded samples plus solver extensions).
/// Every satisfiability answer produced by the solver is re-verified by
/// evaluating the formula under its model, which makes the solver
/// model-sound by construction.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SMT_MODEL_H
#define HOTG_SMT_MODEL_H

#include "smt/SampleTable.h"
#include "smt/Term.h"

#include <optional>
#include <string>
#include <unordered_map>

namespace hotg::smt {

/// A (partial) first-order model over the arena's variables and functions.
class Model {
public:
  /// Sets the value of \p Var.
  void setVar(VarId Var, int64_t Value) { VarValues[Var] = Value; }

  /// Returns the value of \p Var, or std::nullopt when unassigned.
  std::optional<int64_t> varValue(VarId Var) const;

  /// Returns the value of \p Var, or \p Default when unassigned.
  int64_t varValueOr(VarId Var, int64_t Default) const;

  bool hasVar(VarId Var) const { return VarValues.count(Var) != 0; }

  /// Extends the function interpretation with output = f(args). Conflicting
  /// extensions are fatal errors.
  void extendFunc(FuncId Func, std::vector<int64_t> Args, int64_t Output);

  /// Function value at \p Args: checks extensions first, then \p Samples
  /// when attached. Returns std::nullopt when uninterpreted at this point.
  std::optional<int64_t> funcValue(FuncId Func,
                                   const std::vector<int64_t> &Args) const;

  /// Attaches a sample table consulted by funcValue and evaluation. The
  /// table must outlive the model.
  void attachSamples(const SampleTable *Table) { Samples = Table; }
  const SampleTable *attachedSamples() const { return Samples; }

  /// Evaluates integer term \p Term. Unassigned variables default to 0 and
  /// un-modelled UF applications default to 0 — the "default completion"
  /// used when turning a strategy into a concrete input vector. Use
  /// evalIntChecked when defaults must be an error instead.
  int64_t evalInt(const TermArena &Arena, TermId Term) const;

  /// Evaluates boolean term \p Term under the same default completion.
  bool evalBool(const TermArena &Arena, TermId Term) const;

  /// Evaluates integer \p Term, returning std::nullopt if any variable or
  /// UF application required by the evaluation is not determined by the
  /// model (no defaulting).
  std::optional<int64_t> evalIntChecked(const TermArena &Arena,
                                        TermId Term) const;

  /// Checked boolean evaluation (see evalIntChecked).
  std::optional<bool> evalBoolChecked(const TermArena &Arena,
                                      TermId Term) const;

  /// Renders "var=value" pairs sorted by variable id for tests/logging.
  std::string toString(const TermArena &Arena) const;

  const std::unordered_map<VarId, int64_t> &varAssignments() const {
    return VarValues;
  }
  /// The function points set by extendFunc (not the attached samples).
  const SampleTable &funcExtensions() const { return Extensions; }

private:
  std::optional<int64_t> evalIntImpl(const TermArena &Arena, TermId Term,
                                     bool Checked) const;
  std::optional<bool> evalBoolImpl(const TermArena &Arena, TermId Term,
                                   bool Checked) const;

  std::unordered_map<VarId, int64_t> VarValues;
  SampleTable Extensions;
  const SampleTable *Samples = nullptr;
};

} // namespace hotg::smt

#endif // HOTG_SMT_MODEL_H
