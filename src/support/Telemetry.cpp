//===- support/Telemetry.cpp - Counters, phase timers, trace events -------===//

#include "support/Telemetry.h"

#include "support/JsonWriter.h"
#include "support/StringUtils.h"
#include "support/Support.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <ostream>

using namespace hotg;
using namespace hotg::telemetry;

uint64_t hotg::telemetry::monotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

unsigned Histogram::bucketFor(uint64_t Ns) {
  return static_cast<unsigned>(std::bit_width(Ns));
}

uint64_t Histogram::bucketUpperNs(unsigned B) {
  return B >= 64 ? ~uint64_t(0) : (uint64_t(1) << B) - 1;
}

uint64_t Histogram::count() const {
  uint64_t Total = 0;
  for (const auto &B : Buckets)
    Total += B.load(std::memory_order_relaxed);
  return Total;
}

uint64_t Histogram::percentileNs(double Percentile) const {
  uint64_t Counts[NumBuckets];
  uint64_t Total = 0;
  for (unsigned B = 0; B != NumBuckets; ++B)
    Total += Counts[B] = Buckets[B].load(std::memory_order_relaxed);
  if (Total == 0)
    return 0;
  // Rank of the percentile (1-based, nearest-rank definition).
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Percentile / 100.0 * static_cast<double>(Total)));
  if (Rank < 1)
    Rank = 1;
  if (Rank > Total)
    Rank = Total;
  uint64_t Seen = 0;
  unsigned Bucket = 0;
  for (unsigned B = 0; B != NumBuckets; ++B) {
    Seen += Counts[B];
    if (Seen >= Rank) {
      Bucket = B;
      break;
    }
  }
  return std::min(bucketUpperNs(Bucket), maxNs());
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  MaxValue.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Registry &Registry::global() {
  static Registry Instance;
  return Instance;
}

Counter &Registry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.try_emplace(std::string(Name)).first;
  return It->second;
}

PhaseTimer &Registry::timer(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Timers.find(Name);
  if (It == Timers.end())
    It = Timers.try_emplace(std::string(Name)).first;
  return It->second;
}

Histogram &Registry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.try_emplace(std::string(Name)).first;
  return It->second;
}

Histogram &Registry::valueHistogram(std::string_view Name) {
  Histogram &H = histogram(Name);
  std::lock_guard<std::mutex> Lock(Mutex);
  CountNames.emplace(Name);
  return H;
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C.reset();
  for (auto &[Name, T] : Timers)
    T.reset();
  for (auto &[Name, H] : Histograms)
    H.reset();
}

RegistrySnapshot Registry::snapshot() const {
  // The lock guards the map structure against concurrent registration;
  // the per-entry reads are relaxed loads like every other consumer.
  std::lock_guard<std::mutex> Lock(Mutex);
  RegistrySnapshot Snap;
  Snap.Counters.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    Snap.Counters.emplace_back(Name, C.value());
  Snap.Timers.reserve(Timers.size());
  for (const auto &[Name, T] : Timers)
    Snap.Timers.push_back({Name, T.count(), T.totalNs(), T.maxNs()});
  Snap.Histograms.reserve(Histograms.size());
  for (const auto &[Name, H] : Histograms)
    Snap.Histograms.push_back({Name, H.count(), H.maxNs(),
                               H.percentileNs(50), H.percentileNs(90),
                               H.percentileNs(99),
                               CountNames.count(Name) != 0});
  return Snap;
}

std::string Registry::statsTable() const {
  RegistrySnapshot Snap = snapshot();
  size_t Width = 4;
  for (const auto &[Name, Value] : Snap.Counters)
    Width = std::max(Width, Name.size());
  for (const auto &T : Snap.Timers)
    Width = std::max(Width, T.Name.size());
  for (const auto &H : Snap.Histograms)
    Width = std::max(Width, H.Name.size());
  int W = static_cast<int>(Width);

  std::string Out = "== telemetry counters ==\n";
  if (Snap.Counters.empty())
    Out += "  (none)\n";
  for (const auto &[Name, Value] : Snap.Counters)
    Out += formatString("  %-*s %12llu\n", W, Name.c_str(),
                        static_cast<unsigned long long>(Value));
  // Durations print in milliseconds. Count-valued histograms
  // (valueHistogram()) print as plain values in their own table, which is
  // omitted when empty.
  auto Ms = [](uint64_t Ns) { return static_cast<double>(Ns) / 1e6; };
  std::string Timers;
  for (const auto &T : Snap.Timers) {
    double Mean = T.Count ? static_cast<double>(T.TotalNs) /
                                static_cast<double>(T.Count)
                          : 0;
    Timers += formatString("  %-*s %12llu %12.3f %12.3f %12.3f\n", W,
                           T.Name.c_str(),
                           static_cast<unsigned long long>(T.Count),
                           Ms(T.TotalNs), Ms(T.MaxNs), Mean / 1e6);
  }
  std::string Latencies, Values;
  for (const auto &H : Snap.Histograms) {
    if (H.Counts)
      Values += formatString("  %-*s %12llu %12llu %12llu %12llu %12llu\n",
                             W, H.Name.c_str(),
                             static_cast<unsigned long long>(H.Count),
                             static_cast<unsigned long long>(H.P50Ns),
                             static_cast<unsigned long long>(H.P90Ns),
                             static_cast<unsigned long long>(H.P99Ns),
                             static_cast<unsigned long long>(H.MaxNs));
    else
      Latencies += formatString("  %-*s %12llu %12.3f %12.3f %12.3f %12.3f\n",
                                W, H.Name.c_str(),
                                static_cast<unsigned long long>(H.Count),
                                Ms(H.P50Ns), Ms(H.P90Ns), Ms(H.P99Ns),
                                Ms(H.MaxNs));
  }
  const std::string HistHeader = formatString(
      "  %-*s %12s %12s %12s %12s %12s\n", W, "name", "count", "p50", "p90",
      "p99", "max");

  Out += "== telemetry timers (ms) ==\n";
  Out += Timers.empty() ? "  (none)\n"
                        : formatString("  %-*s %12s %12s %12s %12s\n", W,
                                       "name", "count", "total", "max",
                                       "mean") +
                              Timers;
  Out += "== telemetry latency histograms (ms) ==\n";
  Out += Latencies.empty() ? "  (none)\n" : HistHeader + Latencies;
  if (!Values.empty())
    Out += "== telemetry value histograms ==\n" + HistHeader + Values;
  return Out;
}

std::string Registry::statsJson() const {
  RegistrySnapshot Snap = snapshot();
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.key("counters");
  W.beginObject();
  for (const auto &[Name, Value] : Snap.Counters) {
    W.key(Name);
    W.value(Value);
  }
  W.endObject();
  W.key("timers");
  W.beginObject();
  for (const auto &T : Snap.Timers) {
    W.key(T.Name);
    W.beginObject();
    W.key("count");
    W.value(T.Count);
    W.key("total_ns");
    W.value(T.TotalNs);
    W.key("max_ns");
    W.value(T.MaxNs);
    W.endObject();
  }
  W.endObject();
  W.key("histograms");
  W.beginObject();
  for (const auto &H : Snap.Histograms) {
    W.key(H.Name);
    W.beginObject();
    W.key("count");
    W.value(H.Count);
    W.key("p50_ns");
    W.value(H.P50Ns);
    W.key("p90_ns");
    W.value(H.P90Ns);
    W.key("p99_ns");
    W.value(H.P99Ns);
    W.key("max_ns");
    W.value(H.MaxNs);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return Out;
}

//===----------------------------------------------------------------------===//
// Events
//===----------------------------------------------------------------------===//

const char *hotg::telemetry::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::TestRun:
    return "test_run";
  case EventKind::Candidate:
    return "candidate";
  case EventKind::SolverCheck:
    return "solver_check";
  case EventKind::ValidityQuery:
    return "validity_query";
  case EventKind::SampleLearned:
    return "sample_learned";
  case EventKind::SummaryApplied:
    return "summary_applied";
  case EventKind::Divergence:
    return "divergence";
  case EventKind::BugFound:
    return "bug_found";
  case EventKind::SearchSummary:
    return "search_summary";
  case EventKind::SpanBegin:
    return "span_begin";
  case EventKind::SpanEnd:
    return "span_end";
  case EventKind::Heartbeat:
    return "heartbeat";
  }
  HOTG_UNREACHABLE("unknown event kind");
}

Event &Event::set(std::string_view Key, int64_t V) {
  Field F;
  F.FieldType = Field::Type::Int;
  F.Key = std::string(Key);
  F.Int = V;
  Fields.push_back(std::move(F));
  return *this;
}

Event &Event::set(std::string_view Key, std::string_view V) {
  Field F;
  F.FieldType = Field::Type::Str;
  F.Key = std::string(Key);
  F.Str = std::string(V);
  Fields.push_back(std::move(F));
  return *this;
}

Event &Event::setDouble(std::string_view Key, double V) {
  Field F;
  F.FieldType = Field::Type::Double;
  F.Key = std::string(Key);
  F.Dbl = V;
  Fields.push_back(std::move(F));
  return *this;
}

Event &Event::setBool(std::string_view Key, bool V) {
  Field F;
  F.FieldType = Field::Type::Bool;
  F.Key = std::string(Key);
  F.Int = V ? 1 : 0;
  Fields.push_back(std::move(F));
  return *this;
}

Event &Event::setArray(std::string_view Key, std::span<const int64_t> V) {
  Field F;
  F.FieldType = Field::Type::IntArray;
  F.Key = std::string(Key);
  F.Array.assign(V.begin(), V.end());
  Fields.push_back(std::move(F));
  return *this;
}

const Event::Field *Event::find(std::string_view Key) const {
  for (const Field &F : Fields)
    if (F.Key == Key)
      return &F;
  return nullptr;
}

std::string Event::toJson() const {
  std::string Out;
  Out.reserve(256); // Most event lines fit: one allocation.
  JsonWriter W(Out);
  W.beginObject();
  W.key("event");
  W.value(eventKindName(KindValue));
  for (const Field &F : Fields) {
    W.key(F.Key);
    switch (F.FieldType) {
    case Field::Type::Int:
      W.value(F.Int);
      break;
    case Field::Type::Bool:
      W.value(F.Int != 0);
      break;
    case Field::Type::Double:
      W.value(F.Dbl);
      break;
    case Field::Type::Str:
      W.value(F.Str);
      break;
    case Field::Type::IntArray:
      W.beginArray();
      for (int64_t V : F.Array)
        W.value(V);
      W.endArray();
      break;
    }
  }
  W.endObject();
  return Out;
}

//===----------------------------------------------------------------------===//
// Sinks
//===----------------------------------------------------------------------===//

TraceSink::~TraceSink() = default;

void JsonlTraceSink::handle(const Event &E) {
  std::string Line = E.toJson();
  Line.push_back('\n');
  std::lock_guard<std::mutex> Lock(Mutex);
  OS << Line;
}

unsigned RecordingTraceSink::countOf(EventKind Kind) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  unsigned N = 0;
  for (const Event &E : Events)
    if (E.kind() == Kind)
      ++N;
  return N;
}

TraceSink *hotg::telemetry::detail::GlobalSink = nullptr;

void hotg::telemetry::setSink(TraceSink *Sink) { detail::GlobalSink = Sink; }

//===----------------------------------------------------------------------===//
// Spans and query attribution
//===----------------------------------------------------------------------===//

namespace {

/// Process-wide id allocators. Span id 0 / thread id 0 mean "none"; the
/// first allocated id is 1.
std::atomic<uint64_t> NextSpanId{1};
std::atomic<uint64_t> NextThreadId{1};

thread_local uint64_t ThisThreadId = 0;
thread_local uint64_t CurrentSpan = 0;
thread_local QueryAttribution ThreadAttribution;

} // namespace

uint64_t hotg::telemetry::currentThreadId() {
  if (ThisThreadId == 0)
    ThisThreadId = NextThreadId.fetch_add(1, std::memory_order_relaxed);
  return ThisThreadId;
}

uint64_t hotg::telemetry::currentSpanId() { return CurrentSpan; }

ScopedSpan::ScopedSpan(std::string_view Name) : Name(Name) {
  TraceSink *S = sink();
  if (!S)
    return;
  Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  Parent = CurrentSpan;
  CurrentSpan = Id;
  StartNs = monotonicNanos();
  Event E(EventKind::SpanBegin);
  E.set("span", static_cast<int64_t>(Id))
      .set("parent", static_cast<int64_t>(Parent))
      .set("thread", static_cast<int64_t>(currentThreadId()))
      .set("name", Name)
      .set("ts_ns", static_cast<int64_t>(StartNs));
  S->handle(E);
}

ScopedSpan::~ScopedSpan() {
  if (Id == 0)
    return;
  CurrentSpan = Parent;
  uint64_t EndNs = monotonicNanos();
  // The sink may have been detached while the span was open; the pop above
  // must still happen, but there is nobody left to tell about it.
  TraceSink *S = sink();
  if (!S)
    return;
  Event E(EventKind::SpanEnd);
  E.set("span", static_cast<int64_t>(Id))
      .set("parent", static_cast<int64_t>(Parent))
      .set("thread", static_cast<int64_t>(currentThreadId()))
      .set("name", Name)
      .set("ts_ns", static_cast<int64_t>(EndNs))
      .set("dur_ns", static_cast<int64_t>(EndNs - StartNs));
  S->handle(E);
}

QueryAttribution &hotg::telemetry::queryAttribution() {
  return ThreadAttribution;
}

void hotg::telemetry::attachAttribution(Event &E) {
  const QueryAttribution &A = ThreadAttribution;
  E.set("test", A.Test);
  if (A.Candidate >= 0)
    E.set("candidate", A.Candidate);
  if (!A.GroundingFamily.empty())
    E.set("grounding", A.GroundingFamily);
  if (uint64_t Span = CurrentSpan)
    E.set("span", static_cast<int64_t>(Span));
}
