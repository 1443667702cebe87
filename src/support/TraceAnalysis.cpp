//===- support/TraceAnalysis.cpp - Offline JSONL trace analysis ----------===//

#include "support/TraceAnalysis.h"

#include "support/JsonWriter.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <istream>
#include <map>
#include <string>
#include <unordered_map>

using namespace hotg;
using namespace hotg::trace;

//===----------------------------------------------------------------------===//
// Loading
//===----------------------------------------------------------------------===//

Trace hotg::trace::loadTrace(std::istream &In) {
  Trace T;
  std::string Line;
  uint64_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    json::ParseResult Doc = json::parse(Line);
    if (!Doc) {
      T.Errors.push_back(formatString("line %llu: %s",
                                      static_cast<unsigned long long>(LineNo),
                                      Doc.error().c_str()));
      continue;
    }
    if (!Doc->isObject()) {
      T.Errors.push_back(formatString(
          "line %llu: not a JSON object", static_cast<unsigned long long>(LineNo)));
      continue;
    }
    std::string_view Kind = Doc->getString("event");
    if (Kind.empty()) {
      T.Errors.push_back(formatString(
          "line %llu: missing string \"event\" field",
          static_cast<unsigned long long>(LineNo)));
      continue;
    }
    TraceEvent E;
    E.Line = LineNo;
    E.Kind = std::string(Kind);
    E.Json = std::move(*Doc);
    T.Events.push_back(std::move(E));
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Schema validation
//===----------------------------------------------------------------------===//

namespace {

/// Field value categories of the schema (docs/observability.md).
enum class FieldType : uint8_t {
  Int,    ///< JSON integer.
  Bool,   ///< JSON true/false.
  Str,    ///< JSON string.
  Array,  ///< JSON array (of integers in every current producer).
  Number, ///< Integer or double (rates; %g drops trailing ".0").
};

struct FieldSpec {
  const char *Key;
  FieldType Type;
  bool Required;
};

struct KindSpec {
  const char *Kind;
  std::vector<FieldSpec> Fields;
};

/// The one table that defines the trace schema. Every producer-side field
/// must be declared here — validateTrace rejects undeclared fields, so a
/// new emission site and this table (and docs/observability.md) move
/// together.
const std::vector<KindSpec> &schema() {
  static const std::vector<KindSpec> Specs = {
      {"test_run",
       {{"test", FieldType::Int, true},
        {"policy", FieldType::Str, true},
        {"cells", FieldType::Array, true},
        {"status", FieldType::Str, true},
        {"intermediate", FieldType::Bool, true},
        {"diverged", FieldType::Bool, true},
        {"negate_index", FieldType::Int, false},
        {"from_candidate", FieldType::Int, false},
        {"parent_test", FieldType::Int, false},
        {"pc_size", FieldType::Int, true},
        {"concretizations", FieldType::Int, true},
        {"uf_apps", FieldType::Int, true},
        {"samples_recorded", FieldType::Int, true},
        {"new_coverage", FieldType::Int, true},
        {"us", FieldType::Int, true}}},
      {"candidate",
       {{"candidate", FieldType::Int, true},
        {"parent_test", FieldType::Int, true},
        {"negate_index", FieldType::Int, true},
        {"branch", FieldType::Int, true},
        {"target_taken", FieldType::Bool, true},
        {"verdict", FieldType::Str, true}}},
      {"solver_check",
       {{"result", FieldType::Str, true},
        {"supports", FieldType::Int, true},
        {"decisions", FieldType::Int, true},
        {"propagations", FieldType::Int, true},
        {"ns", FieldType::Int, true},
        {"reason", FieldType::Str, false},
        {"scope_depth", FieldType::Int, false},
        {"test", FieldType::Int, false},
        {"candidate", FieldType::Int, false},
        {"grounding", FieldType::Str, false},
        {"span", FieldType::Int, false}}},
      {"validity_query",
       {{"status", FieldType::Str, true},
        {"supports", FieldType::Int, true},
        {"groundings_tried", FieldType::Int, true},
        {"groundings_pruned", FieldType::Int, true},
        {"learn_requests", FieldType::Int, true},
        {"ns", FieldType::Int, true},
        {"reason", FieldType::Str, false},
        {"test", FieldType::Int, false},
        {"candidate", FieldType::Int, false},
        {"grounding", FieldType::Str, false},
        {"span", FieldType::Int, false}}},
      {"sample_learned",
       {{"func", FieldType::Str, true},
        {"args", FieldType::Array, true},
        {"output", FieldType::Int, true}}},
      {"summary_applied", {{"applications", FieldType::Int, true}}},
      {"divergence",
       {{"test", FieldType::Int, true},
        {"negate_index", FieldType::Int, true},
        {"branch", FieldType::Int, true}}},
      {"bug_found",
       {{"test", FieldType::Int, true},
        {"status", FieldType::Str, true},
        {"site", FieldType::Int, false},
        {"message", FieldType::Str, false},
        {"cells", FieldType::Array, true}}},
      {"search_summary",
       {{"stop_reason", FieldType::Str, true},
        {"engine", FieldType::Str, false},
        {"tests", FieldType::Int, true},
        {"bugs", FieldType::Int, true},
        {"covered_directions", FieldType::Int, true},
        {"divergences", FieldType::Int, true},
        {"inline_retries", FieldType::Int, true}}},
      {"span_begin",
       {{"span", FieldType::Int, true},
        {"parent", FieldType::Int, true},
        {"thread", FieldType::Int, true},
        {"name", FieldType::Str, true},
        {"ts_ns", FieldType::Int, true}}},
      {"span_end",
       {{"span", FieldType::Int, true},
        {"parent", FieldType::Int, true},
        {"thread", FieldType::Int, true},
        {"name", FieldType::Str, true},
        {"ts_ns", FieldType::Int, true},
        {"dur_ns", FieldType::Int, true}}},
      {"heartbeat",
       {{"ts_ns", FieldType::Int, true},
        {"elapsed_ms", FieldType::Int, true},
        {"tests", FieldType::Int, true},
        {"tests_per_s", FieldType::Number, true},
        {"solver_checks", FieldType::Int, true},
        {"solver_checks_per_s", FieldType::Number, true},
        {"frontier", FieldType::Int, true}}},
  };
  return Specs;
}

bool typeMatches(const json::Value &V, FieldType T) {
  switch (T) {
  case FieldType::Int:
    return V.isInt();
  case FieldType::Bool:
    return V.isBool();
  case FieldType::Str:
    return V.isString();
  case FieldType::Array:
    return V.isArray();
  case FieldType::Number:
    return V.isNumber();
  }
  return false;
}

const char *typeName(FieldType T) {
  switch (T) {
  case FieldType::Int:
    return "integer";
  case FieldType::Bool:
    return "bool";
  case FieldType::Str:
    return "string";
  case FieldType::Array:
    return "array";
  case FieldType::Number:
    return "number";
  }
  return "?";
}

} // namespace

std::vector<std::string> hotg::trace::validateTrace(const Trace &T) {
  std::vector<std::string> Problems = T.Errors;
  auto Note = [&](const TraceEvent &E, std::string Message) {
    Problems.push_back(formatString("line %llu [%s]: %s",
                                    static_cast<unsigned long long>(E.Line),
                                    E.Kind.c_str(), Message.c_str()));
  };

  // Per-thread stack of open spans for the nesting check.
  struct OpenSpan {
    int64_t Id, Parent;
    std::string Name;
    uint64_t Line;
  };
  std::map<int64_t, std::vector<OpenSpan>> Stacks;

  for (const TraceEvent &E : T.Events) {
    const KindSpec *Spec = nullptr;
    for (const KindSpec &S : schema())
      if (E.Kind == S.Kind) {
        Spec = &S;
        break;
      }
    if (!Spec) {
      Note(E, formatString("unknown event kind \"%s\"", E.Kind.c_str()));
      continue;
    }
    for (const FieldSpec &F : Spec->Fields) {
      const json::Value *V = E.Json.get(F.Key);
      if (!V) {
        if (F.Required)
          Note(E, formatString("missing required field \"%s\"", F.Key));
        continue;
      }
      if (!typeMatches(*V, F.Type))
        Note(E, formatString("field \"%s\" is not a %s", F.Key,
                             typeName(F.Type)));
    }
    for (const auto &[Key, V] : E.Json.asObject()) {
      if (Key == "event")
        continue;
      bool Declared = false;
      for (const FieldSpec &F : Spec->Fields)
        if (Key == F.Key) {
          Declared = true;
          break;
        }
      if (!Declared)
        Note(E, formatString("undeclared field \"%s\"", Key.c_str()));
    }

    if (E.Kind == "span_begin") {
      Stacks[E.Json.getInt("thread")].push_back(
          {E.Json.getInt("span"), E.Json.getInt("parent"),
           std::string(E.Json.getString("name")), E.Line});
    } else if (E.Kind == "span_end") {
      auto &Stack = Stacks[E.Json.getInt("thread")];
      if (Stack.empty()) {
        Note(E, "span_end with no open span on this thread");
        continue;
      }
      const OpenSpan &Top = Stack.back();
      if (Top.Id != E.Json.getInt("span"))
        Note(E, formatString(
                    "span_end id %lld does not match innermost open span %lld",
                    static_cast<long long>(E.Json.getInt("span")),
                    static_cast<long long>(Top.Id)));
      else if (Top.Name != E.Json.getString("name"))
        Note(E, formatString("span_end name \"%s\" does not match begin "
                             "name \"%s\"",
                             std::string(E.Json.getString("name")).c_str(),
                             Top.Name.c_str()));
      else if (Top.Parent != E.Json.getInt("parent"))
        Note(E, "span_end parent does not match begin parent");
      Stack.pop_back();
    }
  }

  for (const auto &[Thread, Stack] : Stacks)
    for (const OpenSpan &S : Stack)
      Problems.push_back(formatString(
          "line %llu [span_begin]: span %lld (\"%s\") never closed",
          static_cast<unsigned long long>(S.Line),
          static_cast<long long>(S.Id), S.Name.c_str()));

  return Problems;
}

//===----------------------------------------------------------------------===//
// Span tree
//===----------------------------------------------------------------------===//

const SpanNode *SpanForest::findById(uint64_t Id) const {
  for (const SpanNode &N : Nodes)
    if (N.Id == Id)
      return &N;
  return nullptr;
}

const SpanNode *SpanForest::findRoot(std::string_view Name) const {
  for (size_t R : Roots)
    if (Nodes[R].Name == Name)
      return &Nodes[R];
  return nullptr;
}

SpanForest hotg::trace::buildSpans(const Trace &T) {
  SpanForest F;
  std::unordered_map<uint64_t, size_t> ById;
  for (const TraceEvent &E : T.Events) {
    if (E.Kind == "span_begin") {
      SpanNode N;
      N.Id = static_cast<uint64_t>(E.Json.getInt("span"));
      N.Parent = static_cast<uint64_t>(E.Json.getInt("parent"));
      N.Thread = static_cast<uint64_t>(E.Json.getInt("thread"));
      N.Name = std::string(E.Json.getString("name"));
      N.StartNs = static_cast<uint64_t>(E.Json.getInt("ts_ns"));
      N.EndNs = N.StartNs;
      ById.emplace(N.Id, F.Nodes.size());
      F.Nodes.push_back(std::move(N));
    } else if (E.Kind == "span_end") {
      auto It = ById.find(static_cast<uint64_t>(E.Json.getInt("span")));
      if (It != ById.end())
        F.Nodes[It->second].EndNs =
            static_cast<uint64_t>(E.Json.getInt("ts_ns"));
    }
  }
  for (size_t I = 0; I != F.Nodes.size(); ++I) {
    auto It = ById.find(F.Nodes[I].Parent);
    if (F.Nodes[I].Parent != 0 && It != ById.end())
      F.Nodes[It->second].Children.push_back(I);
    else
      F.Roots.push_back(I);
  }
  return F;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

Report hotg::trace::buildReport(const Trace &T, unsigned TopK) {
  Report R;
  SpanForest F = buildSpans(T);

  // Per-name aggregation with self/child split.
  std::map<std::string, PhaseRow> Phases;
  for (const SpanNode &N : F.Nodes) {
    uint64_t ChildNs = 0;
    for (size_t C : N.Children)
      ChildNs += F.Nodes[C].durationNs();
    uint64_t Dur = N.durationNs();
    PhaseRow &Row = Phases[N.Name];
    Row.Name = N.Name;
    Row.Count += 1;
    Row.TotalNs += Dur;
    Row.SelfNs += Dur > ChildNs ? Dur - ChildNs : 0;
    Row.MaxNs = std::max(Row.MaxNs, Dur);
  }
  for (auto &[Name, Row] : Phases)
    R.Phases.push_back(Row);
  std::stable_sort(R.Phases.begin(), R.Phases.end(),
                   [](const PhaseRow &A, const PhaseRow &B) {
                     return A.TotalNs > B.TotalNs;
                   });

  if (const SpanNode *Root = F.findRoot("search.run")) {
    R.SearchWallNs = Root->durationNs();
    uint64_t ChildNs = 0;
    for (size_t C : Root->Children)
      ChildNs += F.Nodes[C].durationNs();
    if (R.SearchWallNs)
      R.SpanCoverage = static_cast<double>(ChildNs) /
                       static_cast<double>(R.SearchWallNs);
  }

  for (const TraceEvent &E : T.Events) {
    if (E.Kind == "solver_check" || E.Kind == "validity_query") {
      if (E.Kind == "solver_check") {
        ++R.SolverChecks;
      } else {
        ++R.ValidityQueries;
        R.GroundingsTried +=
            static_cast<uint64_t>(E.Json.getInt("groundings_tried"));
        R.GroundingsPruned +=
            static_cast<uint64_t>(E.Json.getInt("groundings_pruned"));
      }
      SlowQuery Q;
      Q.Kind = E.Kind;
      Q.Ns = E.Json.getInt("ns");
      Q.Outcome = std::string(E.Json.getString(
          E.Kind == "solver_check" ? "result" : "status"));
      Q.Test = E.Json.getInt("test");
      Q.Candidate = E.Json.getInt("candidate", -1);
      Q.Grounding = std::string(E.Json.getString("grounding"));
      Q.ScopeDepth = E.Json.getInt("scope_depth", -1);
      if (E.Kind == "validity_query") {
        Q.GroundingsTried = E.Json.getInt("groundings_tried");
        Q.GroundingsPruned = E.Json.getInt("groundings_pruned");
      }
      R.SlowQueries.push_back(std::move(Q));
    } else if (E.Kind == "test_run") {
      ++R.Tests;
    } else if (E.Kind == "candidate") {
      ++R.Candidates;
    } else if (E.Kind == "divergence") {
      ++R.Divergences;
    } else if (E.Kind == "heartbeat") {
      ++R.Heartbeats;
    } else if (E.Kind == "search_summary") {
      R.InlineRetries =
          static_cast<uint64_t>(E.Json.getInt("inline_retries"));
      R.StopReason = std::string(E.Json.getString("stop_reason"));
    }
  }

  std::stable_sort(R.SlowQueries.begin(), R.SlowQueries.end(),
                   [](const SlowQuery &A, const SlowQuery &B) {
                     return A.Ns > B.Ns;
                   });
  if (R.SlowQueries.size() > TopK)
    R.SlowQueries.resize(TopK);
  return R;
}

std::string hotg::trace::renderReport(const Report &R) {
  std::string Out;
  auto Ms = [](uint64_t Ns) { return static_cast<double>(Ns) / 1e6; };

  Out += "== trace summary ==\n";
  Out += formatString("  tests %llu  candidates %llu  solver checks %llu  "
                      "validity queries %llu  divergences %llu  "
                      "heartbeats %llu\n",
                      static_cast<unsigned long long>(R.Tests),
                      static_cast<unsigned long long>(R.Candidates),
                      static_cast<unsigned long long>(R.SolverChecks),
                      static_cast<unsigned long long>(R.ValidityQueries),
                      static_cast<unsigned long long>(R.Divergences),
                      static_cast<unsigned long long>(R.Heartbeats));
  if (uint64_t Enum = R.GroundingsTried + R.GroundingsPruned)
    Out += formatString("  groundings: %llu tried, %llu pruned "
                        "(%.1f%% pruned)\n",
                        static_cast<unsigned long long>(R.GroundingsTried),
                        static_cast<unsigned long long>(R.GroundingsPruned),
                        100.0 * static_cast<double>(R.GroundingsPruned) /
                            static_cast<double>(Enum));
  if (!R.StopReason.empty())
    Out += formatString("  stop reason %s  inline retries %llu\n",
                        R.StopReason.c_str(),
                        static_cast<unsigned long long>(R.InlineRetries));
  if (R.SearchWallNs)
    Out += formatString("  search wall %.3f ms, %.1f%% attributed to "
                        "child spans\n",
                        Ms(R.SearchWallNs), R.SpanCoverage * 100.0);

  Out += "== phases (ms) ==\n";
  if (R.Phases.empty())
    Out += "  (no spans in trace)\n";
  else {
    size_t Width = 4;
    for (const PhaseRow &P : R.Phases)
      Width = std::max(Width, P.Name.size());
    int W = static_cast<int>(Width);
    Out += formatString("  %-*s %10s %12s %12s %12s\n", W, "name", "count",
                        "total", "self", "max");
    for (const PhaseRow &P : R.Phases)
      Out += formatString("  %-*s %10llu %12.3f %12.3f %12.3f\n", W,
                          P.Name.c_str(),
                          static_cast<unsigned long long>(P.Count),
                          Ms(P.TotalNs), Ms(P.SelfNs), Ms(P.MaxNs));
  }

  Out += formatString("== top %zu slowest queries ==\n",
                      R.SlowQueries.size());
  if (R.SlowQueries.empty())
    Out += "  (none)\n";
  for (const SlowQuery &Q : R.SlowQueries) {
    Out += formatString("  %10.3f ms  %-14s %-10s test %lld", Ms(Q.Ns),
                        Q.Kind.c_str(), Q.Outcome.c_str(),
                        static_cast<long long>(Q.Test));
    if (Q.Candidate >= 0)
      Out += formatString("  cand %lld", static_cast<long long>(Q.Candidate));
    if (!Q.Grounding.empty())
      Out += formatString("  grounding %s", Q.Grounding.c_str());
    if (Q.GroundingsTried >= 0)
      Out += formatString("  tried %lld  pruned %lld",
                          static_cast<long long>(Q.GroundingsTried),
                          static_cast<long long>(Q.GroundingsPruned));
    if (Q.ScopeDepth >= 0)
      Out += formatString("  depth %lld",
                          static_cast<long long>(Q.ScopeDepth));
    Out += "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Chrome trace-event export
//===----------------------------------------------------------------------===//

std::string hotg::trace::exportChromeTrace(const Trace &T) {
  SpanForest F = buildSpans(T);

  // Rebase to the earliest timestamp so Perfetto's timeline starts at 0.
  uint64_t Base = ~uint64_t(0);
  for (const SpanNode &N : F.Nodes)
    Base = std::min(Base, N.StartNs);
  for (const TraceEvent &E : T.Events)
    if (E.Kind == "heartbeat")
      Base = std::min(Base, static_cast<uint64_t>(E.Json.getInt("ts_ns")));
  if (Base == ~uint64_t(0))
    Base = 0;
  auto Us = [Base](uint64_t Ns) {
    return static_cast<double>(Ns - Base) / 1000.0;
  };

  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.key("displayTimeUnit");
  W.value("ms");
  W.key("traceEvents");
  W.beginArray();
  for (const SpanNode &N : F.Nodes) {
    W.beginObject();
    W.key("name");
    W.value(N.Name);
    W.key("cat");
    W.value("span");
    W.key("ph");
    W.value("X");
    W.key("ts");
    W.value(Us(N.StartNs));
    W.key("dur");
    W.value(static_cast<double>(N.durationNs()) / 1000.0);
    W.key("pid");
    W.value(int64_t(1));
    W.key("tid");
    W.value(static_cast<int64_t>(N.Thread));
    W.key("args");
    W.beginObject();
    W.key("span");
    W.value(static_cast<int64_t>(N.Id));
    W.key("parent");
    W.value(static_cast<int64_t>(N.Parent));
    W.endObject();
    W.endObject();
  }
  for (const TraceEvent &E : T.Events) {
    if (E.Kind != "heartbeat")
      continue;
    W.beginObject();
    W.key("name");
    W.value("heartbeat");
    W.key("cat");
    W.value("progress");
    W.key("ph");
    W.value("i");
    W.key("ts");
    W.value(Us(static_cast<uint64_t>(E.Json.getInt("ts_ns"))));
    W.key("pid");
    W.value(int64_t(1));
    W.key("tid");
    W.value(int64_t(0));
    W.key("s");
    W.value("g");
    W.key("args");
    W.beginObject();
    W.key("tests");
    W.value(E.Json.getInt("tests"));
    W.key("solver_checks");
    W.value(E.Json.getInt("solver_checks"));
    W.key("frontier");
    W.value(E.Json.getInt("frontier"));
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return Out;
}

std::vector<std::string>
hotg::trace::validateChromeTrace(std::string_view JsonText) {
  std::vector<std::string> Problems;
  json::ParseResult Doc = json::parse(JsonText);
  if (!Doc) {
    Problems.push_back(Doc.error());
    return Problems;
  }
  if (!Doc->isObject()) {
    Problems.push_back("top level is not an object");
    return Problems;
  }
  const json::Value *Events = Doc->get("traceEvents");
  if (!Events || !Events->isArray()) {
    Problems.push_back("missing traceEvents array");
    return Problems;
  }
  size_t Index = 0;
  for (const json::Value &E : Events->asArray()) {
    auto Bad = [&](const char *Message) {
      Problems.push_back(
          formatString("traceEvents[%zu]: %s", Index, Message));
    };
    if (!E.isObject()) {
      Bad("not an object");
      ++Index;
      continue;
    }
    if (!E.get("name") || !E.get("name")->isString())
      Bad("missing string name");
    const json::Value *Ph = E.get("ph");
    if (!Ph || !Ph->isString())
      Bad("missing string ph");
    if (!E.get("ts") || !E.get("ts")->isNumber())
      Bad("missing numeric ts");
    if (!E.get("pid") || !E.get("pid")->isNumber())
      Bad("missing numeric pid");
    if (!E.get("tid") || !E.get("tid")->isNumber())
      Bad("missing numeric tid");
    if (Ph && Ph->isString() && Ph->asString() == "X" &&
        (!E.get("dur") || !E.get("dur")->isNumber()))
      Bad("complete event without numeric dur");
    ++Index;
  }
  return Problems;
}

//===----------------------------------------------------------------------===//
// Search-tree DOT export
//===----------------------------------------------------------------------===//

std::string hotg::trace::exportSearchTreeDot(const Trace &T) {
  // Tests that uncovered a bug get highlighted.
  std::map<int64_t, bool> BugTests;
  for (const TraceEvent &E : T.Events)
    if (E.Kind == "bug_found")
      BugTests[E.Json.getInt("test")] = true;

  std::string Out = "digraph search {\n"
                    "  rankdir=TB;\n"
                    "  node [shape=box, fontname=\"monospace\", "
                    "fontsize=10];\n";
  for (const TraceEvent &E : T.Events) {
    if (E.Kind != "test_run")
      continue;
    int64_t Test = E.Json.getInt("test");
    std::string Label = formatString(
        "t%lld\\n%s", static_cast<long long>(Test),
        std::string(E.Json.getString("status")).c_str());
    int64_t NewCov = E.Json.getInt("new_coverage");
    if (NewCov > 0)
      Label += formatString("\\n+%lld dirs", static_cast<long long>(NewCov));
    std::string Attrs = formatString("label=\"%s\"", Label.c_str());
    const json::Value *Diverged = E.Json.get("diverged");
    if (BugTests.count(Test))
      Attrs += ", style=filled, fillcolor=\"#f4cccc\"";
    else if (Diverged && Diverged->isBool() && Diverged->asBool())
      Attrs += ", style=filled, fillcolor=\"#fff2cc\"";
    Out += formatString("  t%lld [%s];\n", static_cast<long long>(Test),
                        Attrs.c_str());
    int64_t Parent = E.Json.getInt("parent_test");
    if (Parent > 0) {
      std::string EdgeLabel =
          formatString("neg %lld",
                       static_cast<long long>(E.Json.getInt("negate_index")));
      Out += formatString("  t%lld -> t%lld [label=\"%s\"];\n",
                          static_cast<long long>(Parent),
                          static_cast<long long>(Test), EdgeLabel.c_str());
    }
  }
  Out += "}\n";
  return Out;
}
