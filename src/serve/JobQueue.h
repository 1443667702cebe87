//===- serve/JobQueue.h - Bounded admission and retry policy ---------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backpressure primitives of hotg-serve (docs/serving.md):
///
///  * **AdmissionGate** — a bounded counting gate over the jobs currently
///    admitted (queued or running). When the gate is full, new jobs are
///    *shed* with a structured `rejected{queue-full}` response instead of
///    queueing without bound — a tenant storm degrades into fast, honest
///    rejections, never into silent latency collapse or drops.
///
///  * **RetryPolicy** — bounded retry with exponential backoff for
///    transiently-failed sessions, classified with the same taxonomy the
///    search uses for worker failures (docs/robustness.md): injected
///    faults and ordinary exceptions are transient (the session is
///    deterministic, so a clean re-run can succeed); anything unwinding
///    via `catch (...)` is unknown and quarantined immediately.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SERVE_JOBQUEUE_H
#define HOTG_SERVE_JOBQUEUE_H

#include <atomic>
#include <cstdint>

namespace hotg::serve {

/// Bounded admission: tryAcquire() at frame-read time, release() when the
/// session finished (successfully or not). Thread-safe.
class AdmissionGate {
public:
  explicit AdmissionGate(unsigned Capacity)
      : CapacityValue(Capacity ? Capacity : 1) {}

  /// Claims one admission slot; false = the gate is full, shed the job.
  bool tryAcquire() {
    unsigned Cur = InFlightValue.load(std::memory_order_relaxed);
    while (Cur < CapacityValue) {
      if (InFlightValue.compare_exchange_weak(Cur, Cur + 1,
                                              std::memory_order_acq_rel))
        return true;
    }
    return false;
  }

  void release() { InFlightValue.fetch_sub(1, std::memory_order_acq_rel); }

  unsigned inFlight() const {
    return InFlightValue.load(std::memory_order_relaxed);
  }
  unsigned capacity() const { return CapacityValue; }

private:
  const unsigned CapacityValue;
  std::atomic<unsigned> InFlightValue{0};
};

/// The failure taxonomy of a thrown session.
enum class FailureKind : uint8_t {
  Injected,  ///< support::FaultInjected (deterministic test harness).
  Exception, ///< Any other std::exception.
  Unknown,   ///< Unwound via catch (...) — not retried.
};

/// "injected", "exception", "unknown".
const char *failureKindName(FailureKind Kind);

/// Transient failures are re-run (bounded); unknown ones quarantine the
/// session immediately.
inline bool isTransientFailure(FailureKind Kind) {
  return Kind != FailureKind::Unknown;
}

/// Bounded exponential backoff: attempt N (0-based retry index) sleeps
/// min(Base * 2^N, Max) milliseconds before re-running the session.
struct RetryPolicy {
  unsigned MaxRetries = 2;
  uint64_t BaseBackoffMs = 10;
  uint64_t MaxBackoffMs = 500;

  uint64_t backoffMs(unsigned Retry) const {
    uint64_t Ms = BaseBackoffMs;
    for (unsigned I = 0; I != Retry && Ms < MaxBackoffMs; ++I)
      Ms *= 2;
    return Ms < MaxBackoffMs ? Ms : MaxBackoffMs;
  }
};

} // namespace hotg::serve

#endif // HOTG_SERVE_JOBQUEUE_H
