#ifndef AGGCACHE_COMMON_STRING_UTIL_H_
#define AGGCACHE_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aggcache {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `separator`.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& separator);

/// Renders a byte count as "12.3 KiB" / "4.5 MiB" etc.
std::string HumanBytes(size_t bytes);

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// quote and backslash get a backslash, newline and tab their short forms,
/// every other control byte a \u00XX escape.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// AppendJsonEscaped into a fresh string, for stream-style renderers.
std::string JsonEscape(std::string_view s);

/// Splits a "k=v,k=v" configuration spec into (key, value) pairs, in
/// order. The key ends at the first '='; parts without one are skipped.
std::vector<std::pair<std::string, std::string>> SplitKeyValueSpec(
    const std::string& spec);

}  // namespace aggcache

#endif  // AGGCACHE_COMMON_STRING_UTIL_H_
