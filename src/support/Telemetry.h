//===- support/Telemetry.h - Counters, phase timers, trace events --------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer shared by the solver, the validity solver, the
/// symbolic executor, the directed search, the hotg-run driver and the
/// benchmark harnesses. Three mechanisms:
///
///  * **Counters** — process-wide named monotonic counters, registered on
///    first use in the global Registry (`Registry::global().counter("x")`
///    returns a stable reference; increments are a single add).
///
///  * **Phase timers** — named wall-clock aggregates (count / total / max,
///    nanosecond resolution from a monotonic clock). `ScopedTimer` notes
///    the enclosing scope's duration on destruction.
///
///  * **Latency histograms** — log-bucketed (one bucket per power-of-two
///    nanosecond octave) distribution of a named phase's durations, next
///    to the phase timers: where `PhaseTimer` answers "how much total",
///    the histogram answers "how skewed" (p50/p90/p99 in `--stats`,
///    `--stats-json`, and the `BENCH_*.json` dumps).
///
///  * **Trace events** — a structured event stream. Instrumented code
///    builds an `Event` (a kind plus typed key/value fields) and hands it
///    to the process-wide `TraceSink`. When no sink is attached — the
///    default — emission sites reduce to a branch on a null pointer:
///
///      if (telemetry::TraceSink *S = telemetry::sink()) {
///        telemetry::Event E(telemetry::EventKind::SolverCheck);
///        E.set("decisions", int64_t(N));
///        S->handle(E);
///      }
///
///    `JsonlTraceSink` serializes one JSON object per event per line
///    (JSONL); `RecordingTraceSink` captures events for tests.
///
///  * **Hierarchical spans** — `ScopedSpan` emits paired `span_begin` /
///    `span_end` events with process-unique ids, the enclosing span's id
///    as parent, and a small per-thread id, so an offline consumer
///    (`hotg-trace`, docs/observability.md) can rebuild the exact call
///    tree of a run — which candidate's validity query issued which
///    solver checks, on which worker. With no sink attached a span is a
///    null-pointer branch: no clock read, no id allocation, no event.
///
///  * **Query attribution** — a thread-local `QueryAttribution` record
///    (originating test, candidate id, worker id, grounding family) that
///    the search and validity layers keep current and the solver layer
///    stamps onto every `solver_check`/`validity_query` event, tying each
///    query back to the search decision that issued it.
///
/// The registry, counters, timers, and the shipped sinks are thread-safe:
/// worker threads of the parallel candidate-evaluation pipeline
/// (docs/parallelism.md) run fully instrumented solver code. Counter and
/// timer updates are relaxed atomics; sink handle() implementations
/// serialize internally. setSink() itself must still be called only while
/// no instrumented code is running.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SUPPORT_TELEMETRY_H
#define HOTG_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hotg::telemetry {

/// Nanoseconds from a monotonic (steady) clock.
uint64_t monotonicNanos();

//===----------------------------------------------------------------------===//
// Counters and phase timers
//===----------------------------------------------------------------------===//

/// A named monotonic counter. Obtained from Registry::counter; the
/// reference stays valid for the life of the process. Updates are relaxed
/// atomics, so workers may increment concurrently.
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Wall-clock aggregate of one named phase: number of occurrences, total
/// and maximum duration in nanoseconds. Safe for concurrent note() calls.
class PhaseTimer {
public:
  void note(uint64_t Ns) {
    CountValue.fetch_add(1, std::memory_order_relaxed);
    TotalValue.fetch_add(Ns, std::memory_order_relaxed);
    uint64_t Max = MaxValue.load(std::memory_order_relaxed);
    while (Ns > Max && !MaxValue.compare_exchange_weak(
                           Max, Ns, std::memory_order_relaxed))
      ;
  }
  uint64_t count() const { return CountValue.load(std::memory_order_relaxed); }
  uint64_t totalNs() const {
    return TotalValue.load(std::memory_order_relaxed);
  }
  uint64_t maxNs() const { return MaxValue.load(std::memory_order_relaxed); }
  void reset() {
    CountValue.store(0, std::memory_order_relaxed);
    TotalValue.store(0, std::memory_order_relaxed);
    MaxValue.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> CountValue{0};
  std::atomic<uint64_t> TotalValue{0};
  std::atomic<uint64_t> MaxValue{0};
};

/// Log-bucketed latency histogram: bucket B counts durations whose
/// bit-width is B (i.e. Ns in [2^(B-1), 2^B)); bucket 0 counts exact
/// zeros. One relaxed atomic increment per note(), so workers may report
/// concurrently. Percentiles are resolved to the bucket upper bound (one
/// octave of resolution), clamped to the observed maximum.
class Histogram {
public:
  /// 0 plus one bucket per bit of a 64-bit duration.
  static constexpr unsigned NumBuckets = 65;

  void note(uint64_t Ns) {
    Buckets[bucketFor(Ns)].fetch_add(1, std::memory_order_relaxed);
    uint64_t Max = MaxValue.load(std::memory_order_relaxed);
    while (Ns > Max && !MaxValue.compare_exchange_weak(
                           Max, Ns, std::memory_order_relaxed))
      ;
  }

  uint64_t count() const;
  uint64_t maxNs() const { return MaxValue.load(std::memory_order_relaxed); }

  /// The smallest duration bound such that at least \p Percentile percent
  /// of noted durations fall at or below it (0 when empty). Resolution is
  /// one power-of-two octave; the top bucket reports the observed max.
  uint64_t percentileNs(double Percentile) const;

  void reset();

  /// Bucket index of a duration: its bit width (0 for a zero duration).
  static unsigned bucketFor(uint64_t Ns);
  /// Upper bound (inclusive) of bucket \p B: 2^B - 1.
  static uint64_t bucketUpperNs(unsigned B);

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> MaxValue{0};
};

/// Notes the enclosing scope's wall-clock duration into a PhaseTimer.
class ScopedTimer {
public:
  explicit ScopedTimer(PhaseTimer &Timer)
      : Timer(Timer), StartNs(monotonicNanos()) {}
  ~ScopedTimer() { Timer.note(elapsedNs()); }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

  uint64_t elapsedNs() const { return monotonicNanos() - StartNs; }

private:
  PhaseTimer &Timer;
  uint64_t StartNs;
};

/// A point-in-time copy of the registry contents, taken under the
/// registration lock so renderers never iterate the live maps while a
/// worker thread registers a new entry. Values are relaxed loads (exact
/// once the instrumented code has quiesced, approximate while it runs —
/// good enough for heartbeats).
struct RegistrySnapshot {
  /// \c Counts marks entries registered through gauge() /
  /// valueHistogram(): their "Ns" fields hold counts, not durations.
  struct TimerRow {
    std::string Name;
    uint64_t Count = 0, TotalNs = 0, MaxNs = 0;
    bool Counts = false;
  };
  struct HistogramRow {
    std::string Name;
    uint64_t Count = 0, MaxNs = 0, P50Ns = 0, P90Ns = 0, P99Ns = 0;
    bool Counts = false;
  };
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<TimerRow> Timers;
  std::vector<HistogramRow> Histograms;
};

/// The process-wide registry of counters, timers, and latency histograms.
/// Names are dot-separated lowercase ("solver.check"). reset() zeroes
/// every value but keeps registrations, so cached references stay valid.
/// Registration is serialized by an internal mutex; the returned
/// references are stable (map nodes never move), so hot-path increments
/// stay lock-free. Rendering goes through snapshot(), which copies the
/// name/value rows under the same mutex — the statsTable()/statsJson()
/// renderers and the search heartbeat all share that one safe path.
class Registry {
public:
  static Registry &global();

  Counter &counter(std::string_view Name);
  PhaseTimer &timer(std::string_view Name);
  Histogram &histogram(std::string_view Name);
  /// A PhaseTimer whose notes are sampled counts (a queue depth), not
  /// durations. Same storage and --stats-json keys as timer(); --stats
  /// prints it as a plain-valued gauge instead of milliseconds.
  PhaseTimer &gauge(std::string_view Name);
  /// A Histogram of counts (a core size, a queue depth), not durations.
  /// Same storage and --stats-json keys as histogram(); --stats prints
  /// its percentiles as plain values instead of milliseconds.
  Histogram &valueHistogram(std::string_view Name);

  void reset();

  /// Copies every registered entry under the registration lock.
  RegistrySnapshot snapshot() const;

  /// Human-readable aligned table of every counter, timer and histogram.
  std::string statsTable() const;

  /// One JSON object: {"counters":{...},"timers":{name:{count,total_ns,
  /// max_ns},...},"histograms":{name:{count,p50_ns,p90_ns,p99_ns,max_ns},
  /// ...}} — the --stats-json / BENCH_*.json payload.
  std::string statsJson() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, Counter, std::less<>> Counters;
  std::map<std::string, PhaseTimer, std::less<>> Timers;
  std::map<std::string, Histogram, std::less<>> Histograms;
  /// Names registered through gauge() / valueHistogram().
  std::set<std::string, std::less<>> CountNames;
};

//===----------------------------------------------------------------------===//
// Trace events
//===----------------------------------------------------------------------===//

/// The event kinds of the structured trace (docs/observability.md has one
/// schema table per kind).
enum class EventKind : uint8_t {
  TestRun,       ///< One program execution of the directed search.
  Candidate,     ///< One frontier candidate processed (negate attempt).
  SolverCheck,   ///< One smt::SolverContext satisfiability query.
  ValidityQuery, ///< One core::ValiditySolver POST(pc) query.
  SampleLearned, ///< One IOF sample recorded during co-execution.
  SummaryApplied,///< A validity strategy grounded via summary disjuncts.
  Divergence,    ///< A generated test took an unpredicted path.
  BugFound,      ///< A new distinct bug was recorded.
  SearchSummary, ///< End-of-run totals and stop reason of one search.
  SpanBegin,     ///< A ScopedSpan opened (id, parent, thread, name, ts).
  SpanEnd,       ///< The matching close (id, ts, duration).
  Heartbeat,     ///< Sampled live progress (hotg-run --progress-ms).
};

/// Returns the JSONL name: "test_run", "solver_check", ...
const char *eventKindName(EventKind Kind);

/// One structured trace event: a kind plus ordered typed fields.
class Event {
public:
  struct Field {
    enum class Type : uint8_t { Int, Bool, Str, IntArray, Double } FieldType;
    std::string Key;
    int64_t Int = 0;
    double Dbl = 0;
    std::string Str;
    std::vector<int64_t> Array;
  };

  /// Reserves room for the fields up front: events are built on traced
  /// hot paths (a span end per span), and few have more than 16 fields.
  explicit Event(EventKind Kind) : KindValue(Kind) { Fields.reserve(16); }

  Event &set(std::string_view Key, int64_t V);
  Event &set(std::string_view Key, std::string_view V);
  Event &set(std::string_view Key, const char *V) {
    return set(Key, std::string_view(V));
  }
  Event &setBool(std::string_view Key, bool V);
  Event &setDouble(std::string_view Key, double V);
  Event &setArray(std::string_view Key, std::span<const int64_t> V);

  EventKind kind() const { return KindValue; }
  const std::vector<Field> &fields() const { return Fields; }

  /// The field named \p Key, or null.
  const Field *find(std::string_view Key) const;

  /// Serializes to one JSON object: {"event":"<kind>",...fields}.
  std::string toJson() const;

private:
  EventKind KindValue;
  std::vector<Field> Fields;
};

/// Receiver of trace events. Implementations must not re-enter
/// instrumented code.
class TraceSink {
public:
  virtual ~TraceSink();
  virtual void handle(const Event &E) = 0;
};

/// Writes one JSON object per event per line to a caller-owned stream.
/// Lines are written whole under an internal mutex, so events from worker
/// threads never interleave mid-line (their relative order is, of course,
/// whatever the scheduler produced).
class JsonlTraceSink : public TraceSink {
public:
  explicit JsonlTraceSink(std::ostream &OS) : OS(OS) {}
  void handle(const Event &E) override;

private:
  std::mutex Mutex;
  std::ostream &OS;
};

/// Captures events in memory (tests, integration assertions). handle() is
/// thread-safe; read events() only after the instrumented code finished.
class RecordingTraceSink : public TraceSink {
public:
  void handle(const Event &E) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Events.push_back(E);
  }
  const std::vector<Event> &events() const { return Events; }
  unsigned countOf(EventKind Kind) const;
  void clear() {
    // Locked like handle(): tests clear between phases while worker
    // threads of the previous phase may still be draining.
    std::lock_guard<std::mutex> Lock(Mutex);
    Events.clear();
  }

private:
  mutable std::mutex Mutex;
  std::vector<Event> Events;
};

namespace detail {
extern TraceSink *GlobalSink;
} // namespace detail

/// The process-wide trace sink; null (the default) disables tracing.
inline TraceSink *sink() { return detail::GlobalSink; }

/// Attaches \p Sink (caller keeps ownership); pass null to detach.
void setSink(TraceSink *Sink);

/// RAII sink attachment that restores the previous sink on destruction.
class ScopedSink {
public:
  explicit ScopedSink(TraceSink *Sink) : Previous(sink()) { setSink(Sink); }
  ~ScopedSink() { setSink(Previous); }
  ScopedSink(const ScopedSink &) = delete;
  ScopedSink &operator=(const ScopedSink &) = delete;

private:
  TraceSink *Previous;
};

//===----------------------------------------------------------------------===//
// Hierarchical spans
//===----------------------------------------------------------------------===//

/// Small dense id of the calling thread (1-based, assigned on first use).
uint64_t currentThreadId();

/// Id of the innermost active span on this thread; 0 when none.
uint64_t currentSpanId();

/// A nestable trace span. Construction emits `span_begin` (process-unique
/// id, the enclosing span's id as parent, thread id, name, timestamp) and
/// destruction the matching `span_end` (timestamp + duration) — the pairs
/// let `hotg-trace` rebuild the run's call tree and Perfetto render it.
/// Strictly scope-shaped, so nesting is tracked with one thread-local
/// (no explicit stack). With no sink attached the constructor is a
/// null-pointer branch: no clock read, no id, no event.
class ScopedSpan {
public:
  /// \p Name must outlive the span (pass a string literal).
  explicit ScopedSpan(std::string_view Name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// True when a sink was attached at construction (events are emitted).
  bool active() const { return Id != 0; }
  uint64_t id() const { return Id; }

private:
  uint64_t Id = 0;     ///< 0 = inactive (no sink at construction).
  uint64_t Parent = 0;
  uint64_t StartNs = 0;
  std::string_view Name;
};

//===----------------------------------------------------------------------===//
// Query attribution
//===----------------------------------------------------------------------===//

/// Thread-local attribution of in-flight solver/validity work back to the
/// search decision that issued it. The search driver sets Test/Candidate
/// while processing a candidate, worker jobs set Worker, and the validity
/// grounding enumeration sets GroundingFamily per grounding; the solver
/// telemetry stamps whatever is current onto each `solver_check` /
/// `validity_query` event (docs/observability.md lists the fields).
struct QueryAttribution {
  int64_t Test = 0;       ///< 1-based originating test id; 0 = none.
  int64_t Candidate = -1; ///< Candidate::Id; -1 = none.
  int64_t Worker = -1;    ///< Worker index; -1 = the merge/main thread.
  /// Compact grounding-choice signature of the current validity grounding
  /// ("d0s2p0u1": disjunct/sample/pair/unbound counts); empty = none.
  std::string GroundingFamily;
};

/// The calling thread's attribution record (mutable).
QueryAttribution &queryAttribution();

/// Saves the thread's attribution on construction and restores it on
/// destruction; mutate queryAttribution() freely in between.
class ScopedAttribution {
public:
  ScopedAttribution() : Saved(queryAttribution()) {}
  ~ScopedAttribution() { queryAttribution() = std::move(Saved); }
  ScopedAttribution(const ScopedAttribution &) = delete;
  ScopedAttribution &operator=(const ScopedAttribution &) = delete;

private:
  QueryAttribution Saved;
};

/// Stamps the thread's non-default attribution fields onto \p E
/// ("test", "candidate", "worker", "grounding"), plus the innermost
/// active span id ("span") when one is open.
void attachAttribution(Event &E);

} // namespace hotg::telemetry

#endif // HOTG_SUPPORT_TELEMETRY_H
