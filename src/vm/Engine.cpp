//===- vm/Engine.cpp - Execution-engine seam -----------------------------------===//

#include "vm/Engine.h"

#include "interp/Interp.h"
#include "support/Support.h"
#include "vm/Compiler.h"

using namespace hotg;
using namespace hotg::vm;

const char *hotg::vm::engineName(EngineKind Kind) {
  switch (Kind) {
  case EngineKind::VM:
    return "vm";
  case EngineKind::Interp:
    return "interp";
  }
  HOTG_UNREACHABLE("unknown engine kind");
}

namespace {

/// Reference engine: the tree-walking co-executor for shadow runs and the
/// concrete interpreter for replay.
class InterpEngine final : public IExecEngine {
public:
  InterpEngine(const lang::Program &Prog,
               const interp::NativeRegistry &Natives, smt::TermArena &Arena)
      : Executor(Prog, Natives, Arena), Interp(Prog, Natives) {}

  EngineKind kind() const override { return EngineKind::Interp; }

  void setOptions(const dse::ExecOptions &Options) override {
    Executor.setOptions(Options);
  }

  dse::PathResult execute(std::string_view EntryName,
                          const interp::TestInput &Input,
                          smt::SampleTable *Samples,
                          dse::SummaryTable *Summaries) override {
    return Executor.execute(EntryName, Input, Samples, Summaries);
  }

  interp::RunResult runConcrete(std::string_view EntryName,
                                const interp::TestInput &Input,
                                const interp::RunLimits &Limits) override {
    Interp.setLimits(Limits);
    return Interp.run(EntryName, Input);
  }

private:
  dse::SymbolicExecutor Executor;
  interp::Interpreter Interp;
};

/// Bytecode engine: compiles once at construction, then replays each input
/// over the flat register file (shadow tracing only in execute()).
class VMEngine final : public IExecEngine {
public:
  VMEngine(const lang::Program &Prog, const interp::NativeRegistry &Natives,
           smt::TermArena &Arena)
      : CP(compile(Prog)), Machine(CP, Natives, Arena) {}

  EngineKind kind() const override { return EngineKind::VM; }

  void setOptions(const dse::ExecOptions &Options) override {
    Machine.setOptions(Options);
  }

  dse::PathResult execute(std::string_view EntryName,
                          const interp::TestInput &Input,
                          smt::SampleTable *Samples,
                          dse::SummaryTable *Summaries) override {
    if (Summaries)
      reportFatalError("the VM engine does not support call summaries; use "
                       "the interpreter engine");
    return Machine.execute(EntryName, Input, Samples);
  }

  interp::RunResult runConcrete(std::string_view EntryName,
                                const interp::TestInput &Input,
                                const interp::RunLimits &Limits) override {
    return Machine.runConcrete(EntryName, Input, Limits);
  }

private:
  CompiledProgram CP; // Must outlive Machine (member order matters).
  VM Machine;
};

} // namespace

std::unique_ptr<IExecEngine>
hotg::vm::createEngine(EngineKind Kind, const lang::Program &Prog,
                       const interp::NativeRegistry &Natives,
                       smt::TermArena &Arena) {
  if (Kind == EngineKind::Interp)
    return std::make_unique<InterpEngine>(Prog, Natives, Arena);
  return std::make_unique<VMEngine>(Prog, Natives, Arena);
}
