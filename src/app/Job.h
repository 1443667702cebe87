//===- app/Job.h - One test-generation job, checked and run ---------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One test-generation job, as hotg-run's flags and a hotg-serve request
/// state it: this module alone checks it, turning bad input into a reason
/// before core (which treats a missing entry or a wrong-length input as a
/// fatal error) sees it, builds its search options and runs it.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_APP_JOB_H
#define HOTG_APP_JOB_H

#include "core/Search.h"
#include "interp/NativeFunc.h"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hotg::app {

/// The fields hotg-run's flags and a hotg-serve request share, defaulting
/// to hotg-run's flag defaults.
struct JobSpec {
  std::string Entry; ///< Empty: "main" when present, else the first function.
  std::string Policy = "higher-order"; ///< A dse::policyName or "random".
  std::string Order = "bfs";           ///< "bfs" or "dfs".
  unsigned MaxTests = 64;
  unsigned MultiStep = 2;
  uint64_t Seed = 42;
  bool ExplorePaths = false;
  std::optional<std::vector<int64_t>> Input;
  std::vector<std::vector<int64_t>> SeedInputs;
};

/// Calls around a directed search (the random baseline makes neither),
/// e.g. to import and export IOF samples. A false BeforeRun abandons it.
struct JobHooks {
  std::function<bool(core::DirectedSearch &)> BeforeRun;
  std::function<void(core::DirectedSearch &)> AfterRun;
};

/// A job checked against its program, ready to run.
class Job {
public:
  /// std::nullopt with the reason in \p Error when \p Spec or \p Source
  /// (whose diagnostics render under \p SourceName) is invalid.
  static std::optional<Job> check(const JobSpec &Spec, std::string_view Source,
                                  std::string_view SourceName,
                                  std::string &Error);

  const lang::Program &program() const { return Prog; }
  const std::string &entry() const { return Entry; }
  const interp::InputLayout &layout() const { return Layout; }
  bool random() const { return Random; }

  /// The search options the spec determines. A caller adds what a spec
  /// does not carry (deadline, cache, ...) to a copy it passes to run().
  const core::SearchOptions &options() const { return Options; }

  /// Runs the random baseline (MaxTests, Seed, RandomLo/Hi, Deadline and
  /// Cancel of \p Options) or a DirectedSearch; std::nullopt when
  /// BeforeRun abandoned it.
  std::optional<core::SearchResult> run(core::SearchOptions Options,
                                        const JobHooks &Hooks = {}) const;

private:
  Job() = default;

  lang::Program Prog;
  interp::NativeRegistry Natives;
  std::string Entry;
  interp::InputLayout Layout;
  bool Random = false;
  core::SearchOptions Options;
};

} // namespace hotg::app

#endif // HOTG_APP_JOB_H
