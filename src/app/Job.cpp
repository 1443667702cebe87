//===- app/Job.cpp - One test-generation job, checked and run -------------===//

#include "app/Job.h"

#include "app/Examples.h"
#include "lang/Parser.h"
#include "support/StringUtils.h"

using namespace hotg;
using namespace hotg::app;

std::optional<Job> Job::check(const JobSpec &Spec, std::string_view Source,
                              std::string_view SourceName,
                              std::string &Error) {
  auto Reject = [&](std::string Reason) {
    Error = std::move(Reason);
    return std::nullopt;
  };
  Job J;
  J.Random = Spec.Policy == "random";
  bool KnownPolicy = J.Random;
  for (dse::ConcretizationPolicy P :
       {dse::ConcretizationPolicy::Unsound, dse::ConcretizationPolicy::Sound,
        dse::ConcretizationPolicy::SoundDelayed,
        dse::ConcretizationPolicy::HigherOrder})
    if (Spec.Policy == dse::policyName(P)) {
      J.Options.Policy = P;
      KnownPolicy = true;
    }
  if (!KnownPolicy)
    return Reject("unknown policy '" + Spec.Policy +
                  "' (want unsound|sound|sound-delayed|higher-order|random)");
  if (Spec.Order != "bfs" && Spec.Order != "dfs")
    return Reject("unknown order '" + Spec.Order + "' (want bfs|dfs)");

  DiagnosticEngine Diags;
  std::optional<lang::Program> Prog = lang::parseAndCheck(Source, Diags);
  if (!Prog)
    return Reject("parse error: " +
                  std::string(trim(Diags.render(SourceName))));
  if (Prog->Functions.empty())
    return Reject("program has no functions");
  J.Prog = std::move(*Prog);

  J.Entry = Spec.Entry;
  if (J.Entry.empty())
    J.Entry = J.Prog.findFunction("main") ? "main"
                                          : J.Prog.Functions.front()->Name;
  const lang::FunctionDecl *EntryFn = J.Prog.findFunction(J.Entry);
  if (!EntryFn)
    return Reject("no function named '" + J.Entry + "'");

  registerExampleNatives(J.Natives);
  for (const lang::ExternDecl &Ext : J.Prog.Externs)
    if (!J.Natives.find(Ext.Name))
      return Reject("extern '" + Ext.Name + "' has no native binding");

  J.Layout = interp::InputLayout(*EntryFn);
  if (Spec.Input && Spec.Input->size() != J.Layout.size())
    return Reject(formatString("input has %zu cells, entry '%s' takes %u",
                               Spec.Input->size(), J.Entry.c_str(),
                               J.Layout.size()));
  for (const std::vector<int64_t> &Row : Spec.SeedInputs)
    if (Row.size() != J.Layout.size())
      return Reject(formatString(
          "seed input has %zu cells, entry '%s' takes %u", Row.size(),
          J.Entry.c_str(), J.Layout.size()));

  core::SearchOptions &O = J.Options;
  O.MaxTests = Spec.MaxTests;
  O.MultiStepBound = Spec.MultiStep;
  O.Seed = Spec.Seed;
  if (Spec.Input)
    O.InitialInput = interp::TestInput{*Spec.Input};
  for (const std::vector<int64_t> &Row : Spec.SeedInputs)
    O.SeedInputs.push_back(interp::TestInput{Row});
  O.SkipCoveredTargets = !Spec.ExplorePaths;
  if (Spec.Order == "dfs")
    O.Order = core::SearchOptions::OrderKind::DepthFirst;
  return J;
}

std::optional<core::SearchResult> Job::run(core::SearchOptions Options,
                                           const JobHooks &Hooks) const {
  if (Random) {
    interp::RunLimits Limits = Options.Limits;
    Limits.Deadline = Options.Deadline;
    Limits.Cancel = Options.Cancel;
    return core::runRandomSearch(Prog, Natives, Entry, Options.MaxTests,
                                 Options.RandomLo, Options.RandomHi,
                                 Options.Seed, Limits);
  }
  core::DirectedSearch Search(Prog, Natives, Entry, std::move(Options));
  if (Hooks.BeforeRun && !Hooks.BeforeRun(Search))
    return std::nullopt;
  core::SearchResult Result = Search.run();
  if (Hooks.AfterRun)
    Hooks.AfterRun(Search);
  return Result;
}
