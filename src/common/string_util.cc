#include "common/string_util.h"

#include <cstdio>

namespace aggcache {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += separator;
    result += parts[i];
  }
  return result;
}

std::string HumanBytes(size_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 3) {
    value /= 1024.0;
    ++unit;
  }
  return StrFormat("%.1f %s", value, units[unit]);
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

std::vector<std::pair<std::string, std::string>> SplitKeyValueSpec(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t start = 0; start <= spec.size();) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string part = spec.substr(start, comma - start);
    start = comma + 1;
    size_t eq = part.find('=');
    if (eq == std::string::npos) continue;
    pairs.emplace_back(part.substr(0, eq), part.substr(eq + 1));
  }
  return pairs;
}

}  // namespace aggcache
