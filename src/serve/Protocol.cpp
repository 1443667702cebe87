//===- serve/Protocol.cpp - hotg-serve wire protocol -----------------------===//

#include "serve/Protocol.h"

#include "support/JsonWriter.h"
#include "support/StringUtils.h"
#include "support/Support.h"

#include <istream>
#include <limits>
#include <ostream>

using namespace hotg;
using namespace hotg::serve;

const char *hotg::serve::jobStatusName(JobStatus Status) {
  switch (Status) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Bugs:
    return "bugs";
  case JobStatus::Degraded:
    return "degraded";
  case JobStatus::Rejected:
    return "rejected";
  case JobStatus::Error:
    return "error";
  }
  HOTG_UNREACHABLE("unknown job status");
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

namespace {

/// Reads chars up to (not including) '\n' with a hard byte bound, so a
/// tenant cannot make the daemon buffer an unbounded line. Consumes the
/// terminating newline. Returns false when the bound was exceeded (the
/// rest of the line is drained so the caller can resync on the next one).
bool readBoundedLine(std::istream &In, std::string &Line, size_t MaxBytes) {
  Line.clear();
  for (;;) {
    int C = In.get();
    if (C == EOF || C == '\n')
      return true;
    if (Line.size() >= MaxBytes) {
      while (C != EOF && C != '\n')
        C = In.get();
      return false;
    }
    Line.push_back(static_cast<char>(C));
  }
}

} // namespace

FrameReadResult hotg::serve::readFrame(std::istream &In, std::string &Payload,
                                       std::string &Error,
                                       const FrameLimits &Limits) {
  Payload.clear();
  Error.clear();
  // Skip blank lines (and stray '\r' from CRLF input) between frames.
  int C = In.peek();
  while (C == '\n' || C == '\r') {
    In.get();
    C = In.peek();
  }
  if (C == EOF)
    return FrameReadResult::Eof;

  if (C == '{') {
    // Bare-object line: everything up to the newline is the payload.
    if (!readBoundedLine(In, Payload, Limits.MaxFrameBytes)) {
      Error = formatString("frame exceeds %zu bytes", Limits.MaxFrameBytes);
      return FrameReadResult::Error;
    }
    if (!Payload.empty() && Payload.back() == '\r')
      Payload.pop_back();
    return FrameReadResult::Ok;
  }

  if (C < '0' || C > '9') {
    // Drain the junk line so the caller can resync on the next frame.
    std::string Junk;
    readBoundedLine(In, Junk, 256);
    Error = "invalid frame header (want a decimal length or a JSON object)";
    return FrameReadResult::Error;
  }

  // Canonical frame: "<len>\n<payload>\n".
  std::string Header;
  if (!readBoundedLine(In, Header, 32)) {
    Error = "oversized frame length header";
    return FrameReadResult::Error;
  }
  if (!Header.empty() && Header.back() == '\r')
    Header.pop_back();
  size_t Len = 0;
  for (char D : Header) {
    if (D < '0' || D > '9') {
      Error = "invalid frame length '" + Header + "'";
      return FrameReadResult::Error;
    }
    Len = Len * 10 + size_t(D - '0');
    if (Len > Limits.MaxFrameBytes) {
      Error = formatString("frame of %s bytes exceeds limit of %zu bytes",
                           Header.c_str(), Limits.MaxFrameBytes);
      return FrameReadResult::Error;
    }
  }
  Payload.resize(Len);
  In.read(Payload.data(), static_cast<std::streamsize>(Len));
  if (static_cast<size_t>(In.gcount()) != Len) {
    Error = formatString("truncated frame (want %zu bytes, got %zu)", Len,
                         static_cast<size_t>(In.gcount()));
    return FrameReadResult::Error;
  }
  // Consume the trailing newline (tolerating CRLF and EOF-without-newline).
  if (In.peek() == '\r')
    In.get();
  if (In.peek() == '\n')
    In.get();
  return FrameReadResult::Ok;
}

void hotg::serve::writeFrame(std::ostream &Out, std::string_view Payload) {
  Out << Payload.size() << '\n' << Payload << '\n';
}

//===----------------------------------------------------------------------===//
// Request decoding
//===----------------------------------------------------------------------===//

namespace {

bool decodeCells(const json::Value &V, std::vector<int64_t> &Out,
                 std::string &Error, const char *Field) {
  if (!V.isArray()) {
    Error = formatString("field '%s' must be an array of integers", Field);
    return false;
  }
  Out.clear();
  for (const json::Value &Cell : V.asArray()) {
    if (!Cell.isInt()) {
      Error = formatString("field '%s' must be an array of integers", Field);
      return false;
    }
    Out.push_back(Cell.asInt());
  }
  return true;
}

bool decodeUnsigned(const json::Value &V, unsigned &Out, std::string &Error,
                    const char *Field) {
  if (!V.isInt() || V.asInt() < 0 ||
      static_cast<uint64_t>(V.asInt()) >
          std::numeric_limits<unsigned>::max()) {
    Error = formatString("field '%s' must be an integer in [0, %u]", Field,
                         std::numeric_limits<unsigned>::max());
    return false;
  }
  Out = static_cast<unsigned>(V.asInt());
  return true;
}

bool decodeString(const json::Value &V, std::string &Out, std::string &Error,
                  const char *Field) {
  if (!V.isString()) {
    Error = formatString("field '%s' must be a string", Field);
    return false;
  }
  Out = V.asString();
  return true;
}

bool decodeBool(const json::Value &V, bool &Out, std::string &Error,
                const char *Field) {
  if (!V.isBool()) {
    Error = formatString("field '%s' must be a boolean", Field);
    return false;
  }
  Out = V.asBool();
  return true;
}

} // namespace

bool hotg::serve::decodeJobRequest(std::string_view Payload,
                                   const json::ParseLimits &Limits,
                                   JobRequest &Out, std::string &Error) {
  // Start from defaults: a reused JobRequest must not leak fields (notably
  // the id) from a previous decode into this one's validation.
  Out = JobRequest();
  json::ParseResult Doc = json::parse(Payload, Limits);
  if (!Doc) {
    Error = Doc.error();
    return false;
  }
  if (!Doc->isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  // Fill the id first so every later rejection can be correlated.
  if (const json::Value *Id = Doc->get("id"); Id && Id->isString())
    Out.Id = Id->asString();

  for (const auto &[Key, V] : Doc->asObject()) {
    if (Key == "id") {
      if (!decodeString(V, Out.Id, Error, "id"))
        return false;
    } else if (Key == "tenant") {
      if (!decodeString(V, Out.Tenant, Error, "tenant"))
        return false;
    } else if (Key == "program") {
      if (!decodeString(V, Out.Program, Error, "program"))
        return false;
    } else if (Key == "program_path") {
      if (!decodeString(V, Out.ProgramPath, Error, "program_path"))
        return false;
    } else if (Key == "entry") {
      if (!decodeString(V, Out.Entry, Error, "entry"))
        return false;
    } else if (Key == "policy") {
      if (!decodeString(V, Out.Policy, Error, "policy"))
        return false;
    } else if (Key == "order") {
      if (!decodeString(V, Out.Order, Error, "order"))
        return false;
    } else if (Key == "max_tests") {
      if (!decodeUnsigned(V, Out.MaxTests, Error, "max_tests"))
        return false;
    } else if (Key == "multistep") {
      if (!decodeUnsigned(V, Out.MultiStep, Error, "multistep"))
        return false;
    } else if (Key == "seed") {
      if (!V.isInt()) {
        Error = "field 'seed' must be an integer";
        return false;
      }
      Out.Seed = static_cast<uint64_t>(V.asInt());
    } else if (Key == "deadline_ms") {
      if (!V.isInt() || V.asInt() < 0) {
        Error = "field 'deadline_ms' must be a non-negative integer";
        return false;
      }
      Out.DeadlineMs = static_cast<uint64_t>(V.asInt());
    } else if (Key == "explore_paths") {
      if (!decodeBool(V, Out.ExplorePaths, Error, "explore_paths"))
        return false;
    } else if (Key == "share_samples") {
      if (!decodeBool(V, Out.ShareSamples, Error, "share_samples"))
        return false;
    } else if (Key == "input") {
      std::vector<int64_t> Cells;
      if (!decodeCells(V, Cells, Error, "input"))
        return false;
      Out.Input = std::move(Cells);
    } else if (Key == "seed_inputs") {
      if (!V.isArray()) {
        Error = "field 'seed_inputs' must be an array of integer arrays";
        return false;
      }
      Out.SeedInputs.clear();
      for (const json::Value &Row : V.asArray()) {
        std::vector<int64_t> Cells;
        if (!decodeCells(Row, Cells, Error, "seed_inputs"))
          return false;
        Out.SeedInputs.push_back(std::move(Cells));
      }
    } else {
      // Strict vocabulary: a typo'd knob silently ignored would look like
      // a daemon bug to the tenant, so unknown fields are rejections.
      Error = "unknown field '" + Key + "'";
      return false;
    }
  }

  if (Out.Id.empty()) {
    Error = "missing required field 'id'";
    return false;
  }
  if (Out.Program.empty() == Out.ProgramPath.empty()) {
    Error = "exactly one of 'program' and 'program_path' is required";
    return false;
  }
  return true;
}

std::string hotg::serve::encodeJobResponse(const JobResponse &Response) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.key("id");
  W.value(Response.Id);
  W.key("status");
  W.value(jobStatusName(Response.Status));
  if (!Response.Reason.empty()) {
    W.key("reason");
    W.value(Response.Reason);
  }
  W.key("retries");
  W.value(int64_t(Response.Retries));
  W.key("quarantined");
  W.value(Response.Quarantined);
  if (Response.Status != JobStatus::Rejected &&
      Response.Status != JobStatus::Error) {
    W.key("tests");
    W.value(int64_t(Response.Tests));
    W.key("covered_directions");
    W.value(int64_t(Response.CoveredDirections));
    W.key("total_directions");
    W.value(int64_t(Response.TotalDirections));
    W.key("divergences");
    W.value(int64_t(Response.Divergences));
    W.key("bugs");
    W.value(int64_t(Response.Bugs));
    W.key("output");
    W.value(Response.Output);
  }
  W.key("elapsed_ms");
  W.value(int64_t(Response.ElapsedMs));
  W.endObject();
  return Out;
}
