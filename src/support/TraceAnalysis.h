//===- support/TraceAnalysis.h - Offline JSONL trace analysis ------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis layer behind the `hotg-trace` tool: loads a JSONL trace
/// produced by `hotg-run --trace-out`, validates every event against the
/// schema of docs/observability.md, rebuilds the span tree, and renders
/// the profiling report / Chrome trace-event JSON / search-tree DOT. It
/// lives in hotg_support (not in the tool) so the test suite can exercise
/// it directly against in-process RecordingTraceSink captures.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SUPPORT_TRACEANALYSIS_H
#define HOTG_SUPPORT_TRACEANALYSIS_H

#include "support/JsonReader.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace hotg::trace {

/// One parsed trace line.
struct TraceEvent {
  /// 1-based line number in the input (error messages).
  uint64_t Line = 0;
  /// The "event" field ("solver_check", "span_begin", ...).
  std::string Kind;
  /// The full parsed object.
  json::Value Json;
};

/// A parsed trace plus any per-line parse failures.
struct Trace {
  std::vector<TraceEvent> Events;
  /// One message per malformed line ("line 7: json: ...").
  std::vector<std::string> Errors;
};

/// Parses one JSONL trace. Blank lines are skipped; a line that is not a
/// JSON object with a string "event" member is reported in Errors and
/// dropped from Events.
Trace loadTrace(std::istream &In);

/// Full schema validation: every event kind is known, required fields are
/// present with the right types, no undeclared fields appear, span
/// begin/end events pair up and nest properly per thread. Returns one
/// message per violation (empty = valid). Parse errors carried by \p T
/// are included.
std::vector<std::string> validateTrace(const Trace &T);

//===----------------------------------------------------------------------===//
// Span tree
//===----------------------------------------------------------------------===//

/// One completed span reconstructed from a begin/end pair.
struct SpanNode {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root (per-thread).
  uint64_t Thread = 0;
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  /// Indices into SpanForest::Nodes of the direct children.
  std::vector<size_t> Children;

  uint64_t durationNs() const { return EndNs - StartNs; }
};

/// The reconstructed span trees of one trace (one tree per top-level span;
/// each thread roots its own trees).
struct SpanForest {
  std::vector<SpanNode> Nodes;
  /// Indices of parentless spans, in begin order.
  std::vector<size_t> Roots;

  const SpanNode *findById(uint64_t Id) const;
  /// First root span with the given name, or null.
  const SpanNode *findRoot(std::string_view Name) const;
};

/// Pairs up span_begin/span_end events. Unmatched begins become spans with
/// EndNs == StartNs; unmatched ends are dropped (validateTrace reports
/// both cases as errors).
SpanForest buildSpans(const Trace &T);

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

/// Aggregate of all spans sharing one name.
struct PhaseRow {
  std::string Name;
  uint64_t Count = 0;
  uint64_t TotalNs = 0; ///< Sum of span durations.
  uint64_t SelfNs = 0;  ///< Total minus time in direct child spans.
  uint64_t MaxNs = 0;
};

/// One slow solver/validity query with its attribution tags.
struct SlowQuery {
  std::string Kind;    ///< "solver_check" or "validity_query".
  int64_t Ns = 0;
  std::string Outcome; ///< result/status field.
  int64_t Test = 0;
  int64_t Candidate = -1;
  std::string Grounding;
  int64_t ScopeDepth = -1;
  /// validity_query only (-1 for solver checks): enumeration size split
  /// into inner-solver calls and groundings of cut subtrees.
  int64_t GroundingsTried = -1;
  int64_t GroundingsPruned = -1;
};

/// The profiling report of one trace.
struct Report {
  /// Per-span-name totals with self/child split, sorted by TotalNs desc.
  std::vector<PhaseRow> Phases;
  /// Top-K slowest solver_check/validity_query events, slowest first.
  std::vector<SlowQuery> SlowQueries;
  /// Wall time of the root "search.run" span (0 when absent).
  uint64_t SearchWallNs = 0;
  /// Fraction of the root span's duration covered by its direct children
  /// (the ISSUE's ">= 95% of search wall time attributed" metric); 0 when
  /// there is no root span.
  double SpanCoverage = 0;
  /// Counts of interesting events.
  uint64_t Tests = 0, Candidates = 0, SolverChecks = 0, ValidityQueries = 0,
           Divergences = 0, Heartbeats = 0;
  /// Grounding enumeration totals across validity_query events: inner
  /// solver calls actually made vs. groundings below a refuted partial
  /// grounding, never enumerated.
  uint64_t GroundingsTried = 0, GroundingsPruned = 0;
  /// From search_summary (0 when the trace has none).
  uint64_t InlineRetries = 0;
  std::string StopReason;
};

/// Builds the report; \p TopK bounds SlowQueries.
Report buildReport(const Trace &T, unsigned TopK = 10);

/// Renders \p R as the human-readable `hotg-trace report` text.
std::string renderReport(const Report &R);

//===----------------------------------------------------------------------===//
// Exports
//===----------------------------------------------------------------------===//

/// Chrome trace-event JSON ({"traceEvents":[...]}, "X" complete events
/// for spans, "i" instants for heartbeats) — loads in Perfetto and
/// chrome://tracing. Timestamps are rebased to the earliest span begin.
std::string exportChromeTrace(const Trace &T);

/// Structural validation of Chrome trace-event JSON (used by tests and
/// `hotg-trace validate-chrome`): top-level object with a traceEvents
/// array; every element has string name/ph, numeric ts/pid/tid; "X"
/// events additionally carry a numeric dur. Returns violations.
std::vector<std::string> validateChromeTrace(std::string_view JsonText);

/// DOT digraph of the explored search tree: one node per executed test
/// (from test_run events), one edge per parent_test -> test derivation
/// (from the candidate attribution on test_run), bug-finding tests
/// highlighted.
std::string exportSearchTreeDot(const Trace &T);

} // namespace hotg::trace

#endif // HOTG_SUPPORT_TRACEANALYSIS_H
