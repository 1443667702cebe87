//===- serve/SessionManager.h - Fault-contained search sessions ------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one decoded JobRequest as a fault-contained DirectedSearch session
/// (docs/serving.md):
///
///  * every request is fully validated *before* a search is constructed —
///    the engine layers treat malformed programs/entries/inputs as fatal
///    (core calls reportFatalError), so tenant input must never reach them
///    unchecked; validation failures become structured `rejected` responses;
///  * the session's arena, replicas, solver contexts and pool live in a
///    per-attempt DirectedSearch scope, so a throwing session tears its
///    state down completely (quarantine) without touching any other
///    in-flight session;
///  * transient failures (see serve::FailureKind) re-run the session after
///    an exponential backoff — sessions are deterministic, so a clean
///    re-run after an injected/transient fault produces the canonical
///    result;
///  * sessions of one SharedFabric share the smt::QueryCache (epoch-keyed)
///    and, opt-in, the learned IOF sample tables, with generation-keyed
///    eviction when a session finishes.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SERVE_SESSIONMANAGER_H
#define HOTG_SERVE_SESSIONMANAGER_H

#include "serve/JobQueue.h"
#include "serve/Protocol.h"
#include "smt/QueryCache.h"
#include "support/Deadline.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace hotg::serve {

/// The cross-session state shared by every session of one server: the
/// query cache (keyed by job-config epoch, see epochFor) and the learned
/// IOF sample tables of ShareSamples jobs. Thread-safe.
class SharedFabric {
public:
  smt::QueryCache &cache() { return Cache; }

  /// A serialized sample table published by a finished session.
  struct SampleEntry {
    std::string Text;
    uint64_t Generation = 0;
  };

  /// The fabric's sample table for \p SampleKey (the epoch family of the
  /// job, ignoring imported samples — see SessionManager::runJob).
  std::optional<SampleEntry> lookupSamples(uint64_t SampleKey) const;

  /// Publishes a grown table; kept only when it supersedes the stored
  /// generation (generation-keyed eviction of the stale smaller table).
  void publishSamples(uint64_t SampleKey, std::string Text,
                      uint64_t Generation);

  size_t sampleTables() const;

private:
  smt::QueryCache Cache;
  mutable std::mutex Mutex;
  std::unordered_map<uint64_t, SampleEntry> Samples;
};

/// Per-session knobs owned by the server.
struct SessionConfig {
  /// Per-session DirectedSearch worker cap; JobRequest.Jobs is clamped to
  /// it (one shared pool serves the *sessions*; sessions default serial).
  unsigned MaxSessionJobs = 1;
  /// Applied when a request carries deadline_ms 0. 0 = no deadline.
  uint64_t DefaultDeadlineMs = 0;
  /// Directory program_path requests resolve under; empty = inline
  /// programs only.
  std::string ProgramRoot;
  RetryPolicy Retry;
};

/// Executes jobs against one SharedFabric. Stateless per job beyond the
/// fabric; safe to call from multiple pool workers concurrently.
class SessionManager {
public:
  SessionManager(SharedFabric &Fabric, SessionConfig Config)
      : Fabric(Fabric), Config(std::move(Config)) {}

  /// Validates and runs one job, including the retry/quarantine loop.
  /// Never throws; every outcome is a structured JobResponse. \p Frame is
  /// the job's arrival ordinal in its stream; with the retry attempt it
  /// keys the serve.session-spawn fault decision, so which attempt faults
  /// does not depend on how pool workers interleave. \p Cancel is the
  /// server's drain token — cancelling it degrades the session at its
  /// next poll point.
  JobResponse runJob(const JobRequest &Request, uint64_t Frame,
                     support::CancelToken Cancel);

  /// The cache epoch of a job configuration: a digest of every field that
  /// influences search results, plus the imported sample text. Jobs with
  /// equal epochs run byte-identical query streams, which is what makes
  /// sharing cached answers across sessions sound (smt::QueryCache).
  /// \p ResolvedSource is the program text the session actually runs —
  /// for program_path requests, the *contents* loaded from disk, so an
  /// edit to the file under --program-root changes the epoch even though
  /// the path string does not. Deadline-armed jobs get a unique epoch
  /// (never shared, fresh per attempt): their results depend on the wall
  /// clock. Exposed for tests.
  uint64_t epochFor(const JobRequest &Request, std::string_view ResolvedSource,
                    std::string_view ImportedSamples, uint64_t DeadlineMs);

private:
  SharedFabric &Fabric;
  SessionConfig Config;
  /// Salts the unique epochs handed to deadline-armed jobs.
  std::atomic<uint64_t> UniqueEpochCounter{1};
};

} // namespace hotg::serve

#endif // HOTG_SERVE_SESSIONMANAGER_H
