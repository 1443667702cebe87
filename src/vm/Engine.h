//===- vm/Engine.h - Execution-engine seam -------------------------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A uniform seam over the two execution engines: the register bytecode VM
/// (vm/VM.h, the default) and the tree-walking reference pair
/// (dse::SymbolicExecutor + interp::Interpreter). The directed search picks
/// the engine itself (the VM, or the interpreter pair when it collects §8
/// summaries); both engines emit byte-identical search output (the VM
/// differential suite enforces this).
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_VM_ENGINE_H
#define HOTG_VM_ENGINE_H

#include "vm/VM.h"

#include <memory>

namespace hotg::vm {

/// Which execution engine runs test inputs.
enum class EngineKind : uint8_t {
  VM,     ///< Register bytecode VM with optional shadow tracing (default).
  Interp, ///< Tree-walking SymbolicExecutor / Interpreter pair.
};

/// Returns the stable engine name ("vm", "interp") used by --stats and
/// the search_summary trace event.
const char *engineName(EngineKind Kind);

/// One execution engine bound to a program, a native registry and a term
/// arena. Not thread-safe: one engine per search, like SymbolicExecutor.
class IExecEngine {
public:
  virtual ~IExecEngine() = default;

  virtual EngineKind kind() const = 0;

  virtual void setOptions(const dse::ExecOptions &Options) = 0;

  /// Shadow-mode run: concrete execution plus symbolic tracing. \p Summaries
  /// is only honored by the interpreter engine (the VM rejects
  /// SummarizeCalls; DirectedSearch routes summary-mode runs to the
  /// interpreter engine).
  virtual dse::PathResult
  execute(std::string_view EntryName, const interp::TestInput &Input,
          smt::SampleTable *Samples = nullptr,
          dse::SummaryTable *Summaries = nullptr) = 0;

  /// Pure-concrete run (no arena traffic beyond engine setup).
  virtual interp::RunResult
  runConcrete(std::string_view EntryName, const interp::TestInput &Input,
              const interp::RunLimits &Limits) = 0;
};

/// Creates an engine of \p Kind over \p Prog. The program must have passed
/// Sema; the engine borrows \p Prog, \p Natives and \p Arena.
std::unique_ptr<IExecEngine> createEngine(EngineKind Kind,
                                          const lang::Program &Prog,
                                          const interp::NativeRegistry &Natives,
                                          smt::TermArena &Arena);

} // namespace hotg::vm

#endif // HOTG_VM_ENGINE_H
