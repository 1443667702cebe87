//===- support/JsonWriter.cpp - Minimal streaming JSON writer -------------===//

#include "support/JsonWriter.h"

#include "support/StringUtils.h"

#include <cassert>
#include <charconv>

using namespace hotg;

namespace {

/// Appends \p Text to \p Out, escaped for a double-quoted JSON string,
/// without a temporary: a trace event writes a dozen short keys and
/// values, and a heap string for each was a large part of its cost.
void appendEscaped(std::string &Out, std::string_view Text) {
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", static_cast<unsigned char>(C));
      else
        Out += C;
    }
  }
}

/// Appends the decimal digits of \p V to \p Out without a temporary.
template <typename IntT> void appendInt(std::string &Out, IntT V) {
  char Buf[24];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  assert(R.ec == std::errc() && "24 chars hold any 64-bit integer");
  Out.append(Buf, R.ptr);
}

} // namespace

std::string hotg::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  appendEscaped(Out, Text);
  return Out;
}

void JsonWriter::separate() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (!HasElement.empty()) {
    if (HasElement.back())
      Out += ',';
    HasElement.back() = true;
  }
}

void JsonWriter::beginObject() {
  separate();
  Out += '{';
  HasElement.push_back(false);
}

void JsonWriter::endObject() {
  assert(!HasElement.empty() && "endObject without beginObject");
  HasElement.pop_back();
  Out += '}';
}

void JsonWriter::beginArray() {
  separate();
  Out += '[';
  HasElement.push_back(false);
}

void JsonWriter::endArray() {
  assert(!HasElement.empty() && "endArray without beginArray");
  HasElement.pop_back();
  Out += ']';
}

void JsonWriter::key(std::string_view Name) {
  assert(!AfterKey && "two consecutive keys");
  separate();
  Out += '"';
  appendEscaped(Out, Name);
  Out += "\":";
  AfterKey = true;
}

void JsonWriter::value(int64_t V) {
  separate();
  appendInt(Out, V);
}

void JsonWriter::value(uint64_t V) {
  separate();
  appendInt(Out, V);
}

void JsonWriter::value(double V) {
  separate();
  Out += formatString("%g", V);
}

void JsonWriter::value(bool V) {
  separate();
  Out += V ? "true" : "false";
}

void JsonWriter::value(std::string_view V) {
  separate();
  Out += '"';
  appendEscaped(Out, V);
  Out += '"';
}

void JsonWriter::nullValue() {
  separate();
  Out += "null";
}
