//===- tests/test_support_tracetools.cpp - JSON reader + trace analysis -----------===//
//
// Unit tests for the offline observability stack: the JSON reader, the
// JSONL trace loader/validator, span-tree reconstruction, the profiling
// report, and the Chrome-trace / search-tree exports — first over small
// synthetic traces, then end-to-end against a real in-process search
// recorded through JsonlTraceSink.
//
//===----------------------------------------------------------------------===//

#include "app/KeywordLexer.h"
#include "core/Search.h"
#include "interp/Interp.h"
#include "lang/Parser.h"
#include "support/JsonReader.h"
#include "support/Telemetry.h"
#include "support/TraceAnalysis.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace hotg;

namespace {

//===----------------------------------------------------------------------===//
// JSON reader
//===----------------------------------------------------------------------===//

TEST(JsonReaderTest, ParsesScalars) {
  EXPECT_TRUE(json::parse("null")->isNull());
  EXPECT_EQ(json::parse("true")->asBool(), true);
  EXPECT_EQ(json::parse("false")->asBool(), false);
  json::ParseResult I = json::parse("  -42 ");
  ASSERT_TRUE(I);
  EXPECT_TRUE(I->isInt());
  EXPECT_EQ(I->asInt(), -42);
  json::ParseResult D = json::parse("2.5e1");
  ASSERT_TRUE(D);
  EXPECT_TRUE(D->isDouble());
  EXPECT_DOUBLE_EQ(D->asDouble(), 25.0);
  json::ParseResult S = json::parse("\"hi\"");
  ASSERT_TRUE(S);
  EXPECT_EQ(S->asString(), "hi");
}

TEST(JsonReaderTest, ParsesNestedStructures) {
  json::ParseResult Doc =
      json::parse(R"({"a":[1,{"b":true},null],"c":{"d":"x"}})");
  ASSERT_TRUE(Doc) << Doc.error();
  const json::Value *A = Doc->get("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->asArray().size(), 3u);
  EXPECT_EQ(A->asArray()[0].asInt(), 1);
  EXPECT_TRUE(A->asArray()[1].get("b")->asBool());
  EXPECT_TRUE(A->asArray()[2].isNull());
  EXPECT_EQ(Doc->get("c")->getString("d"), "x");
}

TEST(JsonReaderTest, KeepsInt64AndFallsBackToDouble) {
  json::ParseResult Max = json::parse("9223372036854775807");
  ASSERT_TRUE(Max);
  EXPECT_TRUE(Max->isInt());
  EXPECT_EQ(Max->asInt(), INT64_MAX);
  json::ParseResult Min = json::parse("-9223372036854775808");
  ASSERT_TRUE(Min);
  EXPECT_TRUE(Min->isNumber());
  EXPECT_DOUBLE_EQ(Min->asDouble(), -9223372036854775808.0);
  // One past INT64_MAX cannot stay integral.
  json::ParseResult Over = json::parse("9223372036854775808");
  ASSERT_TRUE(Over);
  EXPECT_TRUE(Over->isDouble());
}

TEST(JsonReaderTest, DecodesEscapesIncludingSurrogatePairs) {
  json::ParseResult Doc =
      json::parse(R"("q\" b\\ s\/ n\n t\t u\u0041 e\u20ac g\ud83d\ude00")");
  ASSERT_TRUE(Doc) << Doc.error();
  EXPECT_EQ(Doc->asString(),
            "q\" b\\ s/ n\n t\t uA e\xe2\x82\xac g\xf0\x9f\x98\x80");
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse(""));
  EXPECT_FALSE(json::parse("{\"a\":1} trailing"));
  EXPECT_FALSE(json::parse("\"unterminated"));
  EXPECT_FALSE(json::parse("{\"a\" 1}"));
  EXPECT_FALSE(json::parse("[1,]"));
  EXPECT_FALSE(json::parse("tru"));
  EXPECT_FALSE(json::parse("\"\\ud83d\"")) << "lone high surrogate";
  EXPECT_FALSE(json::parse("\"\\x41\"")) << "invalid escape";
  // Errors carry a position.
  json::ParseResult Bad = json::parse("{\"a\":}");
  ASSERT_FALSE(Bad);
  EXPECT_NE(Bad.error().find("offset"), std::string::npos) << Bad.error();
}

TEST(JsonReaderTest, AccessorHelpersReturnDefaults) {
  json::ParseResult Doc = json::parse(R"({"n":3,"s":"str"})");
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->getInt("n"), 3);
  EXPECT_EQ(Doc->getInt("missing", -7), -7);
  EXPECT_EQ(Doc->getInt("s", -7), -7) << "non-number falls back";
  EXPECT_EQ(Doc->getString("s"), "str");
  EXPECT_EQ(Doc->getString("n", "dflt"), "dflt");
  EXPECT_EQ(Doc->get("missing"), nullptr);
}

//===----------------------------------------------------------------------===//
// Trace loading and validation (synthetic traces)
//===----------------------------------------------------------------------===//

trace::Trace load(const std::string &Text) {
  std::istringstream In(Text);
  return trace::loadTrace(In);
}

// A minimal well-formed trace: one search.run span wrapping two phase
// spans, one attributed solver check, one validity query, one heartbeat,
// and the closing summary. Used by the validator, span, and report tests.
const char *miniTrace() {
  return R"({"event":"span_begin","span":1,"parent":0,"thread":1,"name":"search.run","ts_ns":0}
{"event":"span_begin","span":2,"parent":1,"thread":1,"name":"search.candidate","ts_ns":100}
{"event":"solver_check","result":"sat","supports":1,"decisions":4,"propagations":9,"ns":5000,"scope_depth":2,"test":3,"candidate":7,"span":2}
{"event":"solver_check","result":"unsat","supports":0,"decisions":1,"propagations":2,"ns":300}
{"event":"validity_query","status":"valid","supports":1,"groundings_tried":2,"groundings_pruned":3,"learn_requests":0,"ns":9000,"test":2,"candidate":5,"worker":1,"grounding":"d1s0p0u0","span":2}
{"event":"span_end","span":2,"parent":1,"thread":1,"name":"search.candidate","ts_ns":700,"dur_ns":600}
{"event":"span_begin","span":3,"parent":1,"thread":1,"name":"search.test","ts_ns":700}
{"event":"span_end","span":3,"parent":1,"thread":1,"name":"search.test","ts_ns":900,"dur_ns":200}
{"event":"heartbeat","ts_ns":950,"elapsed_ms":1,"tests":4,"tests_per_s":4000.0,"solver_checks":2,"solver_checks_per_s":2000.0,"cache_hits":1,"cache_misses":1,"cache_hit_rate":0.5,"queue_depth":0,"frontier":3}
{"event":"search_summary","stop_reason":"test-budget","tests":4,"bugs":1,"covered_directions":6,"divergences":0,"worker_failures":0,"inline_retries":0}
{"event":"span_end","span":1,"parent":0,"thread":1,"name":"search.run","ts_ns":1000,"dur_ns":1000}
)";
}

TEST(TraceLoadTest, SkipsBlanksAndReportsBadLines) {
  trace::Trace T = load("\n"
                        "{\"event\":\"summary_applied\",\"applications\":2}\n"
                        "not json\n"
                        "\n"
                        "{\"noevent\":1}\n"
                        "[1,2]\n");
  ASSERT_EQ(T.Events.size(), 1u);
  EXPECT_EQ(T.Events[0].Kind, "summary_applied");
  EXPECT_EQ(T.Events[0].Line, 2u);
  ASSERT_EQ(T.Errors.size(), 3u);
  EXPECT_NE(T.Errors[0].find("line 3"), std::string::npos) << T.Errors[0];
}

TEST(TraceValidateTest, AcceptsWellFormedTrace) {
  trace::Trace T = load(miniTrace());
  ASSERT_TRUE(T.Errors.empty());
  std::vector<std::string> Problems = trace::validateTrace(T);
  EXPECT_TRUE(Problems.empty())
      << (Problems.empty() ? "" : Problems.front());
}

TEST(TraceValidateTest, RejectsSchemaViolations) {
  // Unknown kind.
  EXPECT_FALSE(
      trace::validateTrace(load("{\"event\":\"mystery\"}\n")).empty());
  // Missing required field (summary_applied needs applications).
  EXPECT_FALSE(
      trace::validateTrace(load("{\"event\":\"summary_applied\"}\n"))
          .empty());
  // Wrong type.
  EXPECT_FALSE(trace::validateTrace(
                   load("{\"event\":\"summary_applied\","
                        "\"applications\":\"two\"}\n"))
                   .empty());
  // Undeclared field.
  EXPECT_FALSE(trace::validateTrace(
                   load("{\"event\":\"summary_applied\","
                        "\"applications\":2,\"bogus\":1}\n"))
                   .empty());
}

TEST(TraceValidateTest, RejectsBrokenSpanNesting) {
  // End without begin.
  EXPECT_FALSE(
      trace::validateTrace(
          load(R"({"event":"span_end","span":9,"parent":0,"thread":1,"name":"x","ts_ns":5,"dur_ns":5})"
               "\n"))
          .empty());
  // Unclosed span at end of trace.
  EXPECT_FALSE(
      trace::validateTrace(
          load(R"({"event":"span_begin","span":1,"parent":0,"thread":1,"name":"x","ts_ns":0})"
               "\n"))
          .empty());
  // Interleaved (non-stack) close order on one thread.
  std::string Crossed =
      R"({"event":"span_begin","span":1,"parent":0,"thread":1,"name":"a","ts_ns":0})"
      "\n"
      R"({"event":"span_begin","span":2,"parent":1,"thread":1,"name":"b","ts_ns":1})"
      "\n"
      R"({"event":"span_end","span":1,"parent":0,"thread":1,"name":"a","ts_ns":2,"dur_ns":2})"
      "\n"
      R"({"event":"span_end","span":2,"parent":1,"thread":1,"name":"b","ts_ns":3,"dur_ns":2})"
      "\n";
  EXPECT_FALSE(trace::validateTrace(load(Crossed)).empty());
}

//===----------------------------------------------------------------------===//
// Span forest and report
//===----------------------------------------------------------------------===//

TEST(SpanForestTest, RebuildsNestedTree) {
  trace::SpanForest F = trace::buildSpans(load(miniTrace()));
  ASSERT_EQ(F.Nodes.size(), 3u);
  ASSERT_EQ(F.Roots.size(), 1u);
  const trace::SpanNode *Root = F.findRoot("search.run");
  ASSERT_NE(Root, nullptr);
  EXPECT_EQ(Root->Id, 1u);
  EXPECT_EQ(Root->durationNs(), 1000u);
  ASSERT_EQ(Root->Children.size(), 2u);
  EXPECT_EQ(F.Nodes[Root->Children[0]].Name, "search.candidate");
  EXPECT_EQ(F.Nodes[Root->Children[0]].durationNs(), 600u);
  EXPECT_EQ(F.Nodes[Root->Children[1]].Name, "search.test");
  const trace::SpanNode *ById = F.findById(3);
  ASSERT_NE(ById, nullptr);
  EXPECT_EQ(ById->Name, "search.test");
  EXPECT_EQ(F.findById(42), nullptr);
  EXPECT_EQ(F.findRoot("nope"), nullptr);
}

TEST(ReportTest, ComputesCoverageSelfTimeAndSlowQueries) {
  trace::Report R = trace::buildReport(load(miniTrace()), /*TopK=*/2);
  EXPECT_EQ(R.SearchWallNs, 1000u);
  // Direct children cover 600 + 200 of the 1000ns root.
  EXPECT_DOUBLE_EQ(R.SpanCoverage, 0.8);
  EXPECT_EQ(R.StopReason, "test-budget");
  EXPECT_EQ(R.Tests, 0u) << "counted from test_run events, none here";
  EXPECT_EQ(R.SolverChecks, 2u);
  EXPECT_EQ(R.ValidityQueries, 1u);
  EXPECT_EQ(R.Heartbeats, 1u);

  // Phases sorted by total, self excludes child spans.
  ASSERT_FALSE(R.Phases.empty());
  EXPECT_EQ(R.Phases[0].Name, "search.run");
  EXPECT_EQ(R.Phases[0].TotalNs, 1000u);
  EXPECT_EQ(R.Phases[0].SelfNs, 200u);

  // Slowest first, attribution carried through.
  ASSERT_EQ(R.SlowQueries.size(), 2u);
  EXPECT_EQ(R.SlowQueries[0].Kind, "validity_query");
  EXPECT_EQ(R.SlowQueries[0].Ns, 9000);
  EXPECT_EQ(R.SlowQueries[0].Test, 2);
  EXPECT_EQ(R.SlowQueries[0].Worker, 1);
  EXPECT_EQ(R.SlowQueries[0].Grounding, "d1s0p0u0");
  EXPECT_EQ(R.SlowQueries[1].Kind, "solver_check");
  EXPECT_EQ(R.SlowQueries[1].Ns, 5000);
  EXPECT_EQ(R.SlowQueries[1].ScopeDepth, 2);

  std::string Text = trace::renderReport(R);
  EXPECT_NE(Text.find("search.run"), std::string::npos);
  EXPECT_NE(Text.find("80.0% attributed"), std::string::npos) << Text;
  EXPECT_NE(Text.find("validity_query"), std::string::npos);
}

TEST(ChromeExportTest, EmitsValidTraceEventJson) {
  std::string Chrome = trace::exportChromeTrace(load(miniTrace()));
  std::vector<std::string> Problems = trace::validateChromeTrace(Chrome);
  EXPECT_TRUE(Problems.empty())
      << (Problems.empty() ? "" : Problems.front());
  json::ParseResult Doc = json::parse(Chrome);
  ASSERT_TRUE(Doc) << Doc.error();
  const json::Value *Events = Doc->get("traceEvents");
  ASSERT_NE(Events, nullptr);
  // 3 spans as "X" events + 1 heartbeat instant.
  ASSERT_EQ(Events->asArray().size(), 4u);
  EXPECT_EQ(Events->asArray()[0].getString("ph"), "X");
  EXPECT_EQ(Events->asArray()[0].getString("name"), "search.run");

  // The structural validator actually rejects garbage.
  EXPECT_FALSE(trace::validateChromeTrace("[]").empty());
  EXPECT_FALSE(
      trace::validateChromeTrace("{\"traceEvents\":[{\"ph\":\"X\"}]}")
          .empty());
}

TEST(SearchTreeExportTest, EmitsParentChildEdges) {
  std::string Dot = trace::exportSearchTreeDot(
      load(R"({"event":"test_run","test":1,"policy":"higher-order","cells":[0],"status":"ok","intermediate":false,"diverged":false,"pc_size":1,"concretizations":0,"uf_apps":0,"samples_recorded":0,"new_coverage":2,"us":10})"
           "\n"
           R"({"event":"test_run","test":2,"policy":"higher-order","cells":[1],"status":"error","intermediate":false,"diverged":false,"from_candidate":4,"parent_test":1,"negate_index":0,"pc_size":1,"concretizations":0,"uf_apps":0,"samples_recorded":0,"new_coverage":0,"us":10})"
           "\n"
           R"({"event":"bug_found","test":2,"status":"error","cells":[1]})"
           "\n"));
  EXPECT_NE(Dot.find("digraph search"), std::string::npos);
  EXPECT_NE(Dot.find("t1"), std::string::npos);
  EXPECT_NE(Dot.find("t1 -> t2"), std::string::npos) << Dot;
  EXPECT_NE(Dot.find("neg 0"), std::string::npos);
  EXPECT_NE(Dot.find("#f4cccc"), std::string::npos) << "bug test highlighted";
}

//===----------------------------------------------------------------------===//
// End-to-end: record a real search, then analyze it
//===----------------------------------------------------------------------===//

class TraceEndToEndTest : public ::testing::Test {
protected:
  void SetUp() override {
    App = app::buildKeywordLexer({/*NumKeywords=*/4, /*NumChunks=*/2});
    DiagnosticEngine Diags;
    auto Parsed = lang::parseAndCheck(App.Source, Diags);
    ASSERT_TRUE(Parsed) << Diags.render("lexer");
    Prog = std::move(*Parsed);
    Natives.registerDefaultHashes();
  }

  /// Runs a short higher-order search with a JSONL sink attached and
  /// returns the loaded trace.
  trace::Trace capture(unsigned Jobs = 1) {
    core::SearchOptions Options;
    Options.Policy = dse::ConcretizationPolicy::HigherOrder;
    Options.MaxTests = 24;
    Options.InitialInput = App.identifierInput();
    Options.RandomLo = 32;
    Options.RandomHi = 126;
    Options.SkipCoveredTargets = false;
    Options.Jobs = Jobs;
    Options.ProgressEveryMs = 1;
    std::ostringstream Out;
    {
      telemetry::JsonlTraceSink Sink(Out);
      telemetry::ScopedSink Guard(&Sink);
      core::DirectedSearch Search(Prog, Natives, App.Entry, Options);
      Result = Search.run();
    }
    std::istringstream In(Out.str());
    return trace::loadTrace(In);
  }

  app::LexerApp App;
  lang::Program Prog;
  interp::NativeRegistry Natives;
  core::SearchResult Result;
};

TEST_F(TraceEndToEndTest, RecordedTraceValidatesAndAttributes) {
  trace::Trace T = capture();
  EXPECT_TRUE(T.Errors.empty());
  std::vector<std::string> Problems = trace::validateTrace(T);
  ASSERT_TRUE(Problems.empty())
      << Problems.size() << " problems, first: " << Problems.front();

  trace::Report R = trace::buildReport(T);
  EXPECT_GT(R.Tests, 0u);
  EXPECT_GE(R.Tests, uint64_t(Result.Tests.size()));
  EXPECT_GT(R.SolverChecks, 0u);
  EXPECT_GT(R.ValidityQueries, 0u);
  EXPECT_GT(R.SearchWallNs, 0u);
  // The ISSUE acceptance bar: >= 95% of search wall time lands in spans.
  EXPECT_GE(R.SpanCoverage, 0.95)
      << "only " << R.SpanCoverage * 100 << "% attributed";
  EXPECT_EQ(R.StopReason, "test-budget");
  ASSERT_FALSE(R.SlowQueries.empty());
  EXPECT_GT(R.SlowQueries[0].Ns, 0);
  EXPECT_FALSE(R.Phases.empty());
  EXPECT_EQ(R.Phases[0].Name, "search.run");
}

TEST_F(TraceEndToEndTest, RecordedTraceExportsChromeAndTree) {
  trace::Trace T = capture();
  std::string Chrome = trace::exportChromeTrace(T);
  std::vector<std::string> Problems = trace::validateChromeTrace(Chrome);
  EXPECT_TRUE(Problems.empty())
      << Problems.size() << " problems, first: " << Problems.front();
  EXPECT_NE(Chrome.find("\"search.run\""), std::string::npos);

  std::string Dot = trace::exportSearchTreeDot(T);
  EXPECT_NE(Dot.find("digraph search"), std::string::npos);
  EXPECT_NE(Dot.find("t1"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos)
      << "the search derives tests from tests";
}

TEST_F(TraceEndToEndTest, ParallelTraceValidatesWithWorkerSpans) {
  trace::Trace T = capture(/*Jobs=*/3);
  std::vector<std::string> Problems = trace::validateTrace(T);
  ASSERT_TRUE(Problems.empty())
      << Problems.size() << " problems, first: " << Problems.front();
  bool SawWorkerJob = false;
  for (const trace::TraceEvent &E : T.Events)
    if (E.Kind == "span_begin" &&
        E.Json.getString("name") == "search.worker_job")
      SawWorkerJob = true;
  EXPECT_TRUE(SawWorkerJob);
  // Worker spans root their own per-thread trees.
  trace::SpanForest F = trace::buildSpans(T);
  EXPECT_GT(F.Roots.size(), 1u);
}

} // namespace
