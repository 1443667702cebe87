//===- support/FaultInjector.cpp - Deterministic fault injection ----------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "support/StringUtils.h"
#include "support/Support.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string_view>

using namespace hotg;
using namespace hotg::support;

const char *hotg::support::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::WorkerDispatch:
    return "worker-dispatch";
  case FaultSite::CachePublish:
    return "cache-publish";
  case FaultSite::ArenaDelta:
    return "arena-delta";
  case FaultSite::SolverCheck:
    return "solver-check";
  case FaultSite::ValidityGround:
    return "validity-ground";
  case FaultSite::JobDecode:
    return "serve.job-decode";
  case FaultSite::SessionSpawn:
    return "serve.session-spawn";
  }
  HOTG_UNREACHABLE("unknown fault site");
}

FaultInjected::FaultInjected(FaultSite Site)
    : std::runtime_error(std::string("injected fault at site ") +
                         faultSiteName(Site)),
      SiteValue(Site) {}

namespace {

std::optional<FaultSite> siteByName(std::string_view Name) {
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    FaultSite Site = FaultSite(I);
    if (Name == faultSiteName(Site))
      return Site;
  }
  return std::nullopt;
}

/// splitmix64 finalizer — a full-avalanche 64-bit mixer. The probe
/// decision is the mixed (seed, site, index) triple compared against the
/// probability threshold, where the index is the FaultScope's (key,
/// attempt) pair or, outside a scope, the per-site probe ordinal.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t probeHash(uint64_t Seed, FaultSite Site, uint64_t Index) {
  return mix64(mix64(Seed ^ (uint64_t(Site) + 1) * 0x2545f4914f6cdd1dull) ^
               Index);
}

/// The innermost FaultScope of this thread; null outside any scope.
thread_local const FaultScope *CurrentScope = nullptr;

} // namespace

FaultScope::FaultScope(uint64_t Key, unsigned Attempt)
    : Outer(CurrentScope), Key(Key), Attempt(Attempt) {
  CurrentScope = this;
}

FaultScope::~FaultScope() { CurrentScope = Outer; }

std::unique_ptr<FaultInjector> FaultInjector::parse(const std::string &Spec,
                                                    std::string &Error) {
  auto Injector = std::make_unique<FaultInjector>();
  bool Any = false;
  std::string_view Rest(Spec);
  while (!Rest.empty()) {
    size_t Comma = Rest.find(',');
    std::string_view Entry = Rest.substr(0, Comma);
    Rest = Comma == std::string_view::npos ? std::string_view()
                                           : Rest.substr(Comma + 1);
    if (Entry.empty())
      continue;
    size_t C1 = Entry.find(':');
    size_t C2 = C1 == std::string_view::npos ? C1 : Entry.find(':', C1 + 1);
    if (C2 == std::string_view::npos) {
      Error = "malformed fault spec entry '" + std::string(Entry) +
              "' (want site:probability:seed)";
      return nullptr;
    }
    std::string_view SiteName = Entry.substr(0, C1);
    std::string ProbStr(Entry.substr(C1 + 1, C2 - C1 - 1));
    std::string SeedStr(Entry.substr(C2 + 1));
    std::optional<FaultSite> Site = siteByName(SiteName);
    if (!Site) {
      Error = "unknown fault site '" + std::string(SiteName) + "'";
      return nullptr;
    }
    char *End = nullptr;
    double Prob = std::strtod(ProbStr.c_str(), &End);
    if (ProbStr.empty() || *End != '\0' || !std::isfinite(Prob) || Prob < 0 ||
        Prob > 1) {
      Error = "bad fault probability '" + ProbStr + "' (want [0,1])";
      return nullptr;
    }
    uint64_t Seed = std::strtoull(SeedStr.c_str(), &End, 10);
    if (SeedStr.empty() || *End != '\0') {
      Error = "bad fault seed '" + SeedStr + "'";
      return nullptr;
    }
    Injector->arm(*Site, Prob, Seed);
    Any = true;
  }
  if (!Any) {
    Error = "empty fault spec";
    return nullptr;
  }
  return Injector;
}

void FaultInjector::arm(FaultSite Site, double Probability, uint64_t Seed) {
  SiteState &S = Sites[unsigned(Site)];
  S.Armed = true;
  Probability = std::min(1.0, std::max(0.0, Probability));
  // Scale to the full 64-bit range; p == 1 must fire every probe, so it
  // saturates to UINT64_MAX (hash < threshold misses only the single
  // all-ones hash value — and p == 1 is special-cased in shouldFail).
  S.Threshold = Probability >= 1.0
                    ? UINT64_MAX
                    : uint64_t(Probability * double(UINT64_MAX));
  S.Seed = Seed;
}

bool FaultInjector::shouldFail(FaultSite Site) {
  SiteState &S = Sites[unsigned(Site)];
  if (!S.Armed)
    return false;
  uint64_t Index = S.Probes.fetch_add(1, std::memory_order_relaxed);
  if (const FaultScope *Scope = CurrentScope)
    Index = mix64(Scope->Key ^ mix64(Scope->Attempt));
  bool Fail = S.Threshold == UINT64_MAX ||
              probeHash(S.Seed, Site, Index) < S.Threshold;
  if (Fail)
    S.Fired.fetch_add(1, std::memory_order_relaxed);
  return Fail;
}

uint64_t FaultInjector::probes(FaultSite Site) const {
  return Sites[unsigned(Site)].Probes.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::fired(FaultSite Site) const {
  return Sites[unsigned(Site)].Fired.load(std::memory_order_relaxed);
}

bool FaultInjector::armed(FaultSite Site) const {
  return Sites[unsigned(Site)].Armed;
}

std::string FaultInjector::summary() const {
  std::string Out;
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    if (!Sites[I].Armed)
      continue;
    Out += formatString("  %-16s %llu fired / %llu probes\n",
                        faultSiteName(FaultSite(I)),
                        (unsigned long long)fired(FaultSite(I)),
                        (unsigned long long)probes(FaultSite(I)));
  }
  return Out;
}

FaultInjector *hotg::support::detail::GlobalInjector = nullptr;

void hotg::support::setFaultInjector(FaultInjector *Injector) {
  detail::GlobalInjector = Injector;
}

void hotg::support::maybeInjectFault(FaultSite Site) {
  FaultInjector *Injector = detail::GlobalInjector;
  if (!Injector || !Injector->shouldFail(Site))
    return;
  auto &Reg = telemetry::Registry::global();
  Reg.counter("faults.injected").add();
  Reg.counter(std::string("faults.injected.") + faultSiteName(Site)).add();
  throw FaultInjected(Site);
}
