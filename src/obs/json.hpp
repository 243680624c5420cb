// Tiny JSON output helpers shared by the obs exporters. Writing only —
// the simulator never parses JSON.
#pragma once

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>

namespace dope::obs {

/// Writes `s` as a JSON string literal (quotes included). Runs of bytes
/// that need no escape go out in one `write`.
inline void write_json_string(std::ostream& out, std::string_view s) {
  out.put('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.write(s.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    if (escape != nullptr) {
      out << escape;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out << buf;
    }
  }
  out.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
  out.put('"');
}

/// Writes a double as a JSON number (JSON has no inf/nan; emit null).
inline void write_json_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  // Round-trippable without drowning the file in digits.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out << buf;
}

}  // namespace dope::obs
