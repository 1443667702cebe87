//===- tests/test_support_telemetry.cpp - Telemetry subsystem unit tests ----------===//

#include "support/JsonReader.h"
#include "support/JsonWriter.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace hotg;
using namespace hotg::telemetry;

namespace {

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.key("a");
  W.value(int64_t(1));
  W.key("b");
  W.beginArray();
  W.value(int64_t(2));
  W.value("x");
  W.value(true);
  W.nullValue();
  W.endArray();
  W.key("c");
  W.beginObject();
  W.endObject();
  W.endObject();
  EXPECT_EQ(Out, "{\"a\":1,\"b\":[2,\"x\",true,null],\"c\":{}}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(jsonEscape("nl\ncr\rtab\t"), "nl\\ncr\\rtab\\t");
  EXPECT_EQ(jsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(CounterTest, AddAndReset) {
  Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(PhaseTimerTest, AggregatesCountTotalMax) {
  PhaseTimer T;
  T.note(10);
  T.note(30);
  T.note(20);
  EXPECT_EQ(T.count(), 3u);
  EXPECT_EQ(T.totalNs(), 60u);
  EXPECT_EQ(T.maxNs(), 30u);
  T.reset();
  EXPECT_EQ(T.count(), 0u);
  EXPECT_EQ(T.totalNs(), 0u);
  EXPECT_EQ(T.maxNs(), 0u);
}

TEST(PhaseTimerTest, ScopedTimerNotesNonNegativeDuration) {
  PhaseTimer T;
  {
    ScopedTimer S(T);
    EXPECT_GE(S.elapsedNs(), 0u);
  }
  EXPECT_EQ(T.count(), 1u);
}

TEST(RegistryTest, SameNameReturnsSameCounter) {
  Registry &Reg = Registry::global();
  Counter &A = Reg.counter("test.registry.same");
  Counter &B = Reg.counter("test.registry.same");
  EXPECT_EQ(&A, &B);
  uint64_t Before = A.value();
  B.add();
  EXPECT_EQ(A.value(), Before + 1);
  PhaseTimer &TA = Reg.timer("test.registry.timer");
  PhaseTimer &TB = Reg.timer("test.registry.timer");
  EXPECT_EQ(&TA, &TB);
}

TEST(RegistryTest, ResetKeepsRegistrationsValid) {
  Registry &Reg = Registry::global();
  Counter &C = Reg.counter("test.registry.reset");
  C.add(7);
  Reg.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(&Reg.counter("test.registry.reset"), &C);
}

TEST(HistogramTest, CountsAndMaxTrackObservations) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.maxNs(), 0u);
  EXPECT_EQ(H.percentileNs(50), 0u);
  H.note(100);
  H.note(5000);
  H.note(300);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.maxNs(), 5000u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.maxNs(), 0u);
}

TEST(HistogramTest, PercentilesUseNearestRankOverLogBuckets) {
  Histogram H;
  // 90 fast observations in one bucket, 10 slow ones far above.
  for (int I = 0; I != 90; ++I)
    H.note(1000);
  for (int I = 0; I != 10; ++I)
    H.note(1'000'000);
  // p50/p90 land in the fast bucket: upper bound of the bucket holding
  // 1000ns (2^10 = 1024). p99 lands in the slow bucket, clamped to the
  // observed maximum.
  EXPECT_EQ(H.percentileNs(50), 1023u);
  EXPECT_EQ(H.percentileNs(90), 1023u);
  EXPECT_EQ(H.percentileNs(99), 1'000'000u);
  EXPECT_EQ(H.percentileNs(100), 1'000'000u);
}

TEST(HistogramTest, SingleObservationClampsToMax) {
  Histogram H;
  H.note(777);
  EXPECT_EQ(H.percentileNs(50), 777u);
  EXPECT_EQ(H.percentileNs(99), 777u);
}

TEST(RegistryTest, HistogramSameNameSameInstance) {
  Registry &Reg = Registry::global();
  Histogram &A = Reg.histogram("test.registry.hist");
  Histogram &B = Reg.histogram("test.registry.hist");
  EXPECT_EQ(&A, &B);
  A.note(10);
  Reg.reset();
  EXPECT_EQ(A.count(), 0u) << "Registry::reset must clear histograms";
}

TEST(RegistryTest, SnapshotCapturesAllThreeFamilies) {
  Registry &Reg = Registry::global();
  Reg.reset();
  Reg.counter("test.snap.counter").add(3);
  Reg.timer("test.snap.timer").note(500);
  Reg.histogram("test.snap.hist").note(2000);
  RegistrySnapshot Snap = Reg.snapshot();
  bool SawCounter = false, SawTimer = false, SawHist = false;
  for (const auto &[Name, Value] : Snap.Counters)
    if (Name == "test.snap.counter" && Value == 3)
      SawCounter = true;
  for (const auto &Row : Snap.Timers)
    if (Row.Name == "test.snap.timer" && Row.Count == 1 &&
        Row.TotalNs == 500)
      SawTimer = true;
  for (const auto &Row : Snap.Histograms)
    if (Row.Name == "test.snap.hist" && Row.Count == 1 &&
        Row.MaxNs == 2000 && Row.P50Ns == 2000)
      SawHist = true;
  EXPECT_TRUE(SawCounter);
  EXPECT_TRUE(SawTimer);
  EXPECT_TRUE(SawHist);
}

TEST(RegistryTest, RendersTableAndJson) {
  Registry &Reg = Registry::global();
  Reg.counter("test.render.counter").add(5);
  Reg.timer("test.render.timer").note(1000);
  std::string Table = Reg.statsTable();
  EXPECT_NE(Table.find("test.render.counter"), std::string::npos);
  EXPECT_NE(Table.find("test.render.timer"), std::string::npos);
  std::string Json = Reg.statsJson();
  EXPECT_NE(Json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(Json.find("\"test.render.counter\":5"), std::string::npos);
  EXPECT_NE(Json.find("\"test.render.timer\":{\"count\":1,\"total_ns\":1000,"
                      "\"max_ns\":1000}"),
            std::string::npos);
}

TEST(RegistryTest, CountValuedEntriesPrintAsPlainValues) {
  Registry &Reg = Registry::global();
  Reg.reset();
  Reg.valueHistogram("test.render.sizes").note(7);
  Reg.gauge("test.render.depth").note(7);
  std::string Table = Reg.statsTable();
  size_t Values = Table.find("== telemetry value histograms ==");
  ASSERT_NE(Values, std::string::npos) << Table;
  size_t Row = Table.find("test.render.sizes", Values);
  ASSERT_NE(Row, std::string::npos) << Table;
  std::string Line = Table.substr(Row, Table.find('\n', Row) - Row);
  // count 1, then p50/p90/p99/max of the single noted value 7.
  EXPECT_NE(Line.find(" 1            7            7            7            7"),
            std::string::npos)
      << Line;
  EXPECT_EQ(Line.find("0.000"), std::string::npos) << Line;

  size_t Gauges = Table.find("== telemetry gauges ==");
  ASSERT_NE(Gauges, std::string::npos) << Table;
  Row = Table.find("test.render.depth", Gauges);
  ASSERT_NE(Row, std::string::npos) << Table;
  Line = Table.substr(Row, Table.find('\n', Row) - Row);
  // samples 1, max 7, mean 7.000.
  EXPECT_NE(Line.find(" 1            7        7.000"), std::string::npos)
      << Line;

  // --stats-json keeps the timer/histogram keys.
  std::string Json = Reg.statsJson();
  EXPECT_NE(Json.find("\"test.render.sizes\":{\"count\":1,\"p50_ns\":7,"),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"test.render.depth\":{\"count\":1,\"total_ns\":7,"),
            std::string::npos)
      << Json;
}

TEST(RegistryTest, StatsJsonIncludesHistogramPercentiles) {
  Registry &Reg = Registry::global();
  Reg.reset();
  Histogram &H = Reg.histogram("test.render.hist");
  H.note(4000);
  std::string Json = Reg.statsJson();
  EXPECT_NE(Json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(Json.find("\"test.render.hist\":{\"count\":1,\"p50_ns\":4000,"
                      "\"p90_ns\":4000,\"p99_ns\":4000,\"max_ns\":4000}"),
            std::string::npos)
      << Json;
  // The rendered JSON must parse cleanly.
  json::ParseResult Doc = json::parse(Json);
  ASSERT_TRUE(Doc) << Doc.error();
  const json::Value *Hist = Doc->get("histograms");
  ASSERT_NE(Hist, nullptr);
  const json::Value *Row = Hist->get("test.render.hist");
  ASSERT_NE(Row, nullptr);
  EXPECT_EQ(Row->getInt("p99_ns"), 4000);
}

TEST(EventTest, SerializesKindAndTypedFields) {
  Event E(EventKind::SolverCheck);
  E.set("result", "sat");
  E.set("decisions", int64_t(-3));
  E.setBool("cached", false);
  int64_t Cells[] = {1, 2, 3};
  E.setArray("cells", Cells);
  EXPECT_EQ(E.toJson(),
            "{\"event\":\"solver_check\",\"result\":\"sat\","
            "\"decisions\":-3,\"cached\":false,\"cells\":[1,2,3]}");
  ASSERT_NE(E.find("result"), nullptr);
  EXPECT_EQ(E.find("result")->Str, "sat");
  EXPECT_EQ(E.find("missing"), nullptr);
}

TEST(EventTest, EscapesStringFields) {
  Event E(EventKind::BugFound);
  E.set("message", "say \"hi\"\nline2");
  EXPECT_EQ(E.toJson(), "{\"event\":\"bug_found\","
                        "\"message\":\"say \\\"hi\\\"\\nline2\"}");
}

TEST(EventKindTest, NamesMatchSchema) {
  EXPECT_STREQ(eventKindName(EventKind::TestRun), "test_run");
  EXPECT_STREQ(eventKindName(EventKind::Candidate), "candidate");
  EXPECT_STREQ(eventKindName(EventKind::SolverCheck), "solver_check");
  EXPECT_STREQ(eventKindName(EventKind::ValidityQuery), "validity_query");
  EXPECT_STREQ(eventKindName(EventKind::SampleLearned), "sample_learned");
  EXPECT_STREQ(eventKindName(EventKind::SummaryApplied), "summary_applied");
  EXPECT_STREQ(eventKindName(EventKind::Divergence), "divergence");
  EXPECT_STREQ(eventKindName(EventKind::BugFound), "bug_found");
}

TEST(SinkTest, NullSinkByDefaultAndZeroEmission) {
  ASSERT_EQ(sink(), nullptr) << "no sink must be attached by default";
  // The instrumentation idiom: with no sink, nothing runs.
  bool Built = false;
  if (TraceSink *S = sink()) {
    Built = true;
    (void)S;
  }
  EXPECT_FALSE(Built);
}

TEST(SinkTest, ScopedSinkAttachesAndRestores) {
  RecordingTraceSink Rec;
  {
    ScopedSink Guard(&Rec);
    ASSERT_EQ(sink(), &Rec);
    Event E(EventKind::TestRun);
    E.set("test", int64_t(1));
    sink()->handle(E);
  }
  EXPECT_EQ(sink(), nullptr);
  EXPECT_EQ(Rec.events().size(), 1u);
  EXPECT_EQ(Rec.countOf(EventKind::TestRun), 1u);
  EXPECT_EQ(Rec.countOf(EventKind::BugFound), 0u);
}

TEST(EventTest, SetDoubleSerializesAsNumber) {
  Event E(EventKind::Heartbeat);
  E.setDouble("rate", 12.5);
  std::string Json = E.toJson();
  json::ParseResult Doc = json::parse(Json);
  ASSERT_TRUE(Doc) << Doc.error();
  const json::Value *Rate = Doc->get("rate");
  ASSERT_NE(Rate, nullptr);
  ASSERT_TRUE(Rate->isNumber());
  EXPECT_DOUBLE_EQ(Rate->asDouble(), 12.5);
}

// Satellite: Event::toJson escaping, verified by decoding the emitted JSON
// with the independent reader and comparing against the original strings.
TEST(EventTest, EscapingRoundTripsThroughParser) {
  const std::string Nasty[] = {
      "say \"hi\"",
      "back\\slash\\",
      "tab\there\nnewline\rcr",
      std::string("nul\0inside", 10),
      "\x01\x02\x1f control bytes",
      "non-ascii: caf\xc3\xa9 \xe2\x82\xac", // café € as raw UTF-8
      "{\"looks\":\"like json\"}",
  };
  for (const std::string &S : Nasty) {
    Event E(EventKind::BugFound);
    E.set("message", S);
    json::ParseResult Doc = json::parse(E.toJson());
    ASSERT_TRUE(Doc) << Doc.error() << " for " << E.toJson();
    EXPECT_EQ(Doc->getString("message"), S);
  }
}

TEST(SpanTest, InactiveWithoutSink) {
  ASSERT_EQ(sink(), nullptr);
  uint64_t Before = currentSpanId();
  ScopedSpan Span("test.nosink");
  EXPECT_FALSE(Span.active());
  EXPECT_EQ(Span.id(), 0u);
  EXPECT_EQ(currentSpanId(), Before);
}

TEST(SpanTest, EmitsPairedBeginEndWithNesting) {
  RecordingTraceSink Rec;
  ScopedSink Guard(&Rec);
  uint64_t OuterId = 0, InnerId = 0;
  {
    ScopedSpan Outer("test.outer");
    ASSERT_TRUE(Outer.active());
    OuterId = Outer.id();
    EXPECT_EQ(currentSpanId(), OuterId);
    {
      ScopedSpan Inner("test.inner");
      InnerId = Inner.id();
      EXPECT_NE(InnerId, OuterId);
      EXPECT_EQ(currentSpanId(), InnerId);
    }
    EXPECT_EQ(currentSpanId(), OuterId);
  }
  ASSERT_EQ(Rec.countOf(EventKind::SpanBegin), 2u);
  ASSERT_EQ(Rec.countOf(EventKind::SpanEnd), 2u);
  // begin(outer), begin(inner), end(inner), end(outer)
  const std::vector<Event> &Events = Rec.events();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events[0].find("span")->Int, int64_t(OuterId));
  EXPECT_EQ(Events[0].find("parent")->Int, 0);
  EXPECT_EQ(Events[0].find("name")->Str, "test.outer");
  EXPECT_EQ(Events[1].find("span")->Int, int64_t(InnerId));
  EXPECT_EQ(Events[1].find("parent")->Int, int64_t(OuterId));
  EXPECT_EQ(Events[2].kind(), EventKind::SpanEnd);
  EXPECT_EQ(Events[2].find("span")->Int, int64_t(InnerId));
  ASSERT_NE(Events[2].find("dur_ns"), nullptr);
  EXPECT_GE(Events[2].find("dur_ns")->Int, 0);
  EXPECT_EQ(Events[3].find("span")->Int, int64_t(OuterId));
  // Same thread id stamped on all four events.
  int64_t Thread = Events[0].find("thread")->Int;
  EXPECT_GT(Thread, 0);
  for (const Event &E : Events)
    EXPECT_EQ(E.find("thread")->Int, Thread);
}

TEST(SpanTest, AttributionStampsCurrentSpanAndTags) {
  RecordingTraceSink Rec;
  ScopedSink Guard(&Rec);
  ScopedSpan Span("test.attr");
  {
    ScopedAttribution Scope;
    queryAttribution().Test = 7;
    queryAttribution().Candidate = 12;
    queryAttribution().Worker = 2;
    queryAttribution().GroundingFamily = "d1s0p0u0";
    Event E(EventKind::SolverCheck);
    attachAttribution(E);
    EXPECT_EQ(E.find("test")->Int, 7);
    EXPECT_EQ(E.find("candidate")->Int, 12);
    EXPECT_EQ(E.find("worker")->Int, 2);
    EXPECT_EQ(E.find("grounding")->Str, "d1s0p0u0");
    EXPECT_EQ(E.find("span")->Int, int64_t(Span.id()));
  }
  // The RAII scope restored the defaults: negative/empty tags are omitted.
  Event E(EventKind::SolverCheck);
  attachAttribution(E);
  EXPECT_EQ(E.find("test")->Int, 0);
  EXPECT_EQ(E.find("candidate"), nullptr);
  EXPECT_EQ(E.find("worker"), nullptr);
  EXPECT_EQ(E.find("grounding"), nullptr);
}

TEST(SinkTest, RecordingSinkClearResetsEventsAndCounts) {
  RecordingTraceSink Rec;
  ScopedSink Guard(&Rec);
  Event E(EventKind::TestRun);
  sink()->handle(E);
  EXPECT_EQ(Rec.events().size(), 1u);
  Rec.clear();
  EXPECT_EQ(Rec.events().size(), 0u);
  EXPECT_EQ(Rec.countOf(EventKind::TestRun), 0u);
}

TEST(SinkTest, JsonlSinkWritesOneLinePerEvent) {
  std::ostringstream OS;
  JsonlTraceSink Sink(OS);
  Event A(EventKind::TestRun);
  A.set("test", int64_t(1));
  Event B(EventKind::Divergence);
  B.set("test", int64_t(2));
  Sink.handle(A);
  Sink.handle(B);
  EXPECT_EQ(OS.str(), "{\"event\":\"test_run\",\"test\":1}\n"
                      "{\"event\":\"divergence\",\"test\":2}\n");
}

} // namespace
