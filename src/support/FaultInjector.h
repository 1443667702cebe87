//===- support/FaultInjector.h - Deterministic fault injection ------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded, deterministic fault-injection harness (docs/robustness.md)
/// for exercising the degraded paths of the fault-tolerant search and
/// server: failing solver checks and grounding searches, dropped cache
/// publishes, undecodable frames, failed session spawns. Production code
/// marks each recoverable failure point with a named *site*:
///
///   support::maybeInjectFault(support::FaultSite::SolverCheck);
///
/// With no injector installed (the default) that call is a null-pointer
/// branch. Tests and CI install one via an env-style spec:
///
///   HOTG_FAULT_SPEC="solver-check:0.05:7"  (site : probability : seed)
///
/// and the marked call then throws FaultInjected on a deterministic
/// subset of its executions. Code that computes an identifiable unit of
/// work (the directed search's queries, hotg-serve's frames) names it
/// with a FaultScope; every probe inside the scope fires iff
/// hash(seed, site, key, attempt) maps below the probability threshold.
/// The decision never depends on wall clock, thread identity or how
/// threads interleave, so searches on hotg-serve's worker threads fault
/// exactly the same query attempts on every run, and a retry (the next
/// attempt ordinal) draws afresh. A probe outside any
/// scope is keyed by its per-site probe index instead, which is
/// reproducible only when a single thread probes that site.
///
/// Multiple sites are comma-separated: "site:p:s,site2:p2:s2".
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SUPPORT_FAULTINJECTOR_H
#define HOTG_SUPPORT_FAULTINJECTOR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace hotg::support {

/// The named failure points instrumented in production code. Each is a
/// place where the surrounding code promises to recover (docs/robustness.md
/// catalogues the recovery path per site).
enum class FaultSite : uint8_t {
  CachePublish,   ///< Publishing a query answer to the shared cache.
  SolverCheck,    ///< Entry of a solver satisfiability check.
  ValidityGround, ///< Starting one support's grounding search (validity).
  JobDecode,      ///< Decoding one serve-protocol job frame.
  SessionSpawn,   ///< Spawning one search session in hotg-serve.
};

inline constexpr unsigned NumFaultSites = 5;

/// "cache-publish", "solver-check", "validity-ground", "serve.job-decode",
/// "serve.session-spawn".
const char *faultSiteName(FaultSite Site);

/// The exception an armed site throws. Derived from std::runtime_error so
/// generic catch blocks classify it as an ordinary failure; code that
/// wants to distinguish injected faults (tests, telemetry) catches this
/// type explicitly.
class FaultInjected : public std::runtime_error {
public:
  explicit FaultInjected(FaultSite Site);
  FaultSite site() const { return SiteValue; }

private:
  FaultSite SiteValue;
};

/// Per-process fault configuration: probability + seed per site, with
/// per-site atomic probe counters. Thread-safe; decisions are a pure
/// function of (seed, site, FaultScope key and attempt), or of (seed,
/// site, probe index) outside a scope.
class FaultInjector {
public:
  /// Parses "site:prob:seed[,site:prob:seed...]" (e.g.
  /// "solver-check:0.05:7"). Returns null and fills \p Error on a
  /// malformed spec or unknown site name. An empty spec is an error.
  static std::unique_ptr<FaultInjector> parse(const std::string &Spec,
                                              std::string &Error);

  /// Arms \p Site directly (test convenience). \p Probability is clamped
  /// to [0, 1].
  void arm(FaultSite Site, double Probability, uint64_t Seed);

  /// Draws the next probe for \p Site; true = the caller should fail.
  /// Unarmed sites always return false (and do not count probes).
  bool shouldFail(FaultSite Site);

  /// Total probes drawn at \p Site (armed sites only).
  uint64_t probes(FaultSite Site) const;
  /// Probes at \p Site that decided to fail.
  uint64_t fired(FaultSite Site) const;
  bool armed(FaultSite Site) const;

  /// One human-readable line per armed site: "site: fired/probes".
  std::string summary() const;

private:
  struct SiteState {
    bool Armed = false;
    uint64_t Threshold = 0; ///< Fire iff hash < Threshold (p scaled to 2^64).
    uint64_t Seed = 0;
    std::atomic<uint64_t> Probes{0};
    std::atomic<uint64_t> Fired{0};
  };
  std::array<SiteState, NumFaultSites> Sites;
};

/// Names the unit of work the calling thread computes while the scope
/// lives: \p Key identifies it deterministically (the same work gets the
/// same key on any thread and in any run) and \p Attempt counts its
/// retries. Every probe of one site inside the scope makes the same
/// decision, so an attempt either faults at its first probe of that site
/// or not at all. Scopes nest; the innermost one applies.
class FaultScope {
public:
  FaultScope(uint64_t Key, unsigned Attempt);
  ~FaultScope();
  FaultScope(const FaultScope &) = delete;
  FaultScope &operator=(const FaultScope &) = delete;

private:
  const FaultScope *Outer;
  uint64_t Key;
  unsigned Attempt;
  friend class FaultInjector;
};

namespace detail {
extern FaultInjector *GlobalInjector;
} // namespace detail

/// The process-wide injector; null (the default) disables every site.
inline FaultInjector *faultInjector() { return detail::GlobalInjector; }

/// Installs \p Injector (caller keeps ownership); pass null to disarm.
/// Like telemetry::setSink, call only while no instrumented code runs.
void setFaultInjector(FaultInjector *Injector);

/// The instrumentation hook: throws FaultInjected when the installed
/// injector decides this probe of \p Site fails; otherwise a no-op. Also
/// bumps the `faults.injected` and `faults.injected.<site>` telemetry
/// counters on every throw.
void maybeInjectFault(FaultSite Site);

} // namespace hotg::support

#endif // HOTG_SUPPORT_FAULTINJECTOR_H
