//===- vm/VM.h - Register bytecode virtual machine -----------------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes the register bytecode of vm/Bytecode.h. The concrete store is a
/// flat int64 register file (no Value heap churn, no AST re-walks). Symbolic
/// tracing is an optional shadow pass: when enabled the VM maintains a
/// parallel shadow-register file of smt term refs and produces exactly the
/// path constraints, pc tables and IOF records of dse::SymbolicExecutor;
/// when disabled it runs pure-concrete and matches interp::Interpreter
/// observation for observation (trace, status, return value, step count).
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_VM_VM_H
#define HOTG_VM_VM_H

#include "dse/SymbolicExecutor.h"
#include "vm/Bytecode.h"

#include <memory>

namespace hotg::vm {

namespace detail {
struct Scratch;
} // namespace detail

/// A virtual machine bound to one compiled program. Reusable across runs;
/// not thread-safe (one VM per search, like SymbolicExecutor). Reuse is
/// where the replay speed comes from: the register file, shadow file,
/// heap storage and call stack persist across runs (see detail::Scratch
/// in VM.cpp for the per-run reset protocol).
class VM {
public:
  VM(const CompiledProgram &CP, const interp::NativeRegistry &Natives,
     smt::TermArena &Arena);
  ~VM();
  VM(const VM &) = delete;
  VM &operator=(const VM &) = delete;

  const dse::ExecOptions &options() const { return Options; }
  void setOptions(const dse::ExecOptions &NewOptions) { Options = NewOptions; }

  /// Shadow-mode run: concrete execution plus symbolic tracing, emitting
  /// the same PathResult as dse::SymbolicExecutor::execute. SummarizeCalls
  /// is not supported by the VM (fatal error; callers fall back to the
  /// interpreter engine).
  dse::PathResult execute(std::string_view EntryName,
                          const interp::TestInput &Input,
                          smt::SampleTable *Samples = nullptr);

  /// Pure-concrete run, matching interp::Interpreter::run observation for
  /// observation. \p Observer, when non-null, is called after every native
  /// call like Interpreter's native observer.
  interp::RunResult
  runConcrete(std::string_view EntryName, const interp::TestInput &Input,
              const interp::RunLimits &Limits,
              const interp::NativeCallObserver *Observer = nullptr);

  smt::TermArena &arena() { return Arena; }
  const CompiledProgram &program() const { return CP; }

private:
  const CompiledProgram &CP;
  const interp::NativeRegistry &Natives;
  smt::TermArena &Arena;
  dse::ExecOptions Options;
  std::unique_ptr<detail::Scratch> Reusable;
};

} // namespace hotg::vm

#endif // HOTG_VM_VM_H
