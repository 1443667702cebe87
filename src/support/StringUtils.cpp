//===- support/StringUtils.cpp - String and formatting helpers -----------===//

#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <cstdio>

using namespace hotg;

std::string hotg::formatStringV(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Needed < 0)
    return std::string(Fmt);
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  return Result;
}

std::string hotg::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = formatStringV(Fmt, Args);
  va_end(Args);
  return Result;
}

std::string hotg::join(const std::vector<std::string> &Parts,
                       std::string_view Sep) {
  std::string Result;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result.append(Sep);
    Result.append(Parts[I]);
  }
  return Result;
}

std::vector<std::string> hotg::split(std::string_view Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Parts.emplace_back(Text.substr(Start));
      return Parts;
    }
    Parts.emplace_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view hotg::trim(std::string_view Text) {
  size_t Begin = 0, End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool hotg::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

std::optional<int64_t> hotg::parseInteger(std::string_view Text, int64_t Lo,
                                          int64_t Hi, std::string &Error) {
  int64_t Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec == std::errc() && Ptr == End && Value >= Lo && Value <= Hi)
    return Value;
  Error = formatString("expects an integer in [%lld, %lld], got '%.*s'",
                       static_cast<long long>(Lo), static_cast<long long>(Hi),
                       static_cast<int>(Text.size()), Text.data());
  return std::nullopt;
}

std::string hotg::escapeString(std::string_view Text) {
  std::string Result;
  Result.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '\n':
      Result += "\\n";
      break;
    case '\t':
      Result += "\\t";
      break;
    case '\r':
      Result += "\\r";
      break;
    case '"':
      Result += "\\\"";
      break;
    case '\\':
      Result += "\\\\";
      break;
    default:
      if (std::isprint(static_cast<unsigned char>(C)))
        Result += C;
      else
        Result += formatString("\\x%02x", static_cast<unsigned char>(C));
    }
  }
  return Result;
}
