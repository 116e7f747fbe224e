// JSON string escaping for the repository's hand-written JSON output
// (`impact list --json` and Chrome traces).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace impact::util {

/// The body of a JSON string literal holding `s`: quotes, backslashes and
/// control characters escaped, every other byte copied as is.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace impact::util
