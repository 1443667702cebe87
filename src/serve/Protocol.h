//===- serve/Protocol.h - hotg-serve wire protocol -------------------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed JSONL protocol of the hotg-serve daemon
/// (docs/serving.md). One *frame* carries one JSON document:
///
///   <decimal byte count>\n
///   <payload bytes>\n
///
/// For hand-authored batches a bare JSON object line ("{...}\n") is also
/// accepted on input; the daemon always writes canonical length-prefixed
/// frames. Requests describe one test-generation job (program, entry,
/// policy, budget, deadline); responses carry a structured status
/// from the taxonomy that mirrors hotg-run's exit-code contract
/// (docs/robustness.md):
///
///   ok        exit 0, no bugs      bugs      exit 0, bugs found
///   degraded  exit 2 (partial)     rejected  exit 1 (never admitted)
///   error     exit 3 (quarantined session / internal failure)
///
/// Everything here is pure data transformation — no I/O policy, no
/// threading — so the codec is unit-testable without a daemon.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SERVE_PROTOCOL_H
#define HOTG_SERVE_PROTOCOL_H

#include "app/Job.h"
#include "support/JsonReader.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace hotg::serve {

/// Structured outcome of one job; the wire form is jobStatusName().
enum class JobStatus : uint8_t {
  Ok,       ///< Search completed, no bugs (exit 0).
  Bugs,     ///< Search completed, bugs found (exit 0).
  Degraded, ///< Deadline/cancellation partial result (exit 2).
  Rejected, ///< Never admitted: shed, malformed, or invalid (exit 1).
  Error,    ///< Session quarantined after an internal failure (exit 3).
};

/// "ok", "bugs", "degraded", "rejected", "error".
const char *jobStatusName(JobStatus Status);

/// One decoded job request: the job itself (app::JobSpec, whose defaults
/// are hotg-run's flag defaults) plus what only a daemon request carries.
struct JobRequest : app::JobSpec {
  std::string Id;     ///< Caller-chosen correlation id (required).
  std::string Tenant; ///< Optional tenant label (audit log only).
  /// Exactly one of Program (inline MiniLang source) or ProgramPath (a
  /// file under the server's --program-root) must be set.
  std::string Program;
  std::string ProgramPath;
  uint64_t DeadlineMs = 0; ///< 0: the server's default job deadline.
  /// Opt into the cross-session sample fabric: import the fabric's IOF
  /// samples for this job's epoch before the run, publish the grown table
  /// after. Off by default — an import changes the (deterministic) search
  /// trajectory, so only jobs that ask for warm-start learning get it.
  bool ShareSamples = false;
};

/// One encoded job response.
struct JobResponse {
  std::string Id;
  JobStatus Status = JobStatus::Error;
  std::string Reason; ///< Set for Rejected/Error (structured, non-empty).
  unsigned Retries = 0;
  bool Quarantined = false;
  unsigned Tests = 0;
  unsigned CoveredDirections = 0;
  unsigned TotalDirections = 0;
  unsigned Divergences = 0;
  unsigned Bugs = 0;
  uint64_t ElapsedMs = 0;
  /// core::renderSearchReport bytes — identical to what the equivalent
  /// hotg-run invocation prints after its "entry ..." banner.
  std::string Output;
};

/// Frame-size bound for readFrame (both framing styles).
struct FrameLimits {
  size_t MaxFrameBytes = 4u << 20;
};

enum class FrameReadResult : uint8_t {
  Ok,    ///< One payload decoded.
  Eof,   ///< Clean end of stream (no partial frame).
  Error, ///< Malformed or oversized frame; \p Error describes it.
};

/// Reads one frame (length-prefixed or bare-object line; blank lines are
/// skipped) into \p Payload. On Error the stream position is after the
/// offending line where recoverable, so a caller may keep reading.
FrameReadResult readFrame(std::istream &In, std::string &Payload,
                          std::string &Error, const FrameLimits &Limits = {});

/// Writes \p Payload as one canonical length-prefixed frame.
void writeFrame(std::ostream &Out, std::string_view Payload);

/// Decodes one request document. Returns false and fills \p Error on any
/// structural problem (not JSON, not an object, unknown field, wrong
/// field type, missing id, program/program_path both or neither set);
/// \p Out.Id is still filled best-effort so the rejection can be
/// correlated. \p Limits are the hardened JsonReader bounds — wire input
/// is untrusted.
bool decodeJobRequest(std::string_view Payload, const json::ParseLimits &Limits,
                      JobRequest &Out, std::string &Error);

/// Renders one response as a single-line JSON document (no framing).
std::string encodeJobResponse(const JobResponse &Response);

} // namespace hotg::serve

#endif // HOTG_SERVE_PROTOCOL_H
