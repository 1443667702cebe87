//===- support/StringUtils.h - String and formatting helpers -------------===//
//
// Part of the hotg project (PLDI 2011 "Higher-Order Test Generation").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style std::string formatting, joining and splitting helpers used by
/// diagnostics, term printers and the benchmark harness. GCC 12 lacks
/// <format>, so a checked vsnprintf wrapper stands in for std::format.
/// parseInteger reads the numeric flags of the command-line tools.
///
//===----------------------------------------------------------------------===//

#ifndef HOTG_SUPPORT_STRINGUTILS_H
#define HOTG_SUPPORT_STRINGUTILS_H

#include <cstdarg>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hotg {

/// Formats like printf into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list variant of formatString.
std::string formatStringV(const char *Fmt, va_list Args);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

/// Splits \p Text on the single character \p Sep; keeps empty fields.
std::vector<std::string> split(std::string_view Text, char Sep);

/// Strips ASCII whitespace from both ends of \p Text.
std::string_view trim(std::string_view Text);

/// Returns true if \p Text starts with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Reads all of \p Text as a decimal integer in [\p Lo, \p Hi]. Anything
/// else (empty text, a stray character, a value out of range) yields
/// nullopt and sets \p Error to "expects an integer in [Lo, Hi], got 'Text'",
/// which a command-line tool prefixes with the flag it was parsing.
std::optional<int64_t> parseInteger(std::string_view Text, int64_t Lo,
                                    int64_t Hi, std::string &Error);

/// Escapes control characters and quotes for diagnostics output.
std::string escapeString(std::string_view Text);

} // namespace hotg

#endif // HOTG_SUPPORT_STRINGUTILS_H
