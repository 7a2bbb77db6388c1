// Minimal JSON emission and parsing helpers shared by the exporters
// (export_sink) and the shard/service layers. Numbers print as
// printf("%.17g") would, through std::to_chars, so distinct doubles never
// collapse to the same text (round-trip precision) — two bit-identical
// results therefore produce byte-identical JSON; strings escape the minimum
// JSON set. Both append to a std::string; the put_json_* ostream forms wrap
// them. The parser below is the inverse: it reads exactly the JSON this
// codebase emits (objects, arrays, strings with the escape set above, finite
// numbers, booleans), which is all the shard merge and the serve protocol
// ever need to consume.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace qoed::core {

// Appends `v` with 17 significant digits in %g style: the bytes
// printf("%.17g") writes, "nan" and "inf" included.
inline void append_json_number(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, std::end(buf), v,
                                std::chars_format::general, 17)
                      .ptr);
}

// Appends `s` as a quoted JSON string: '"', '\', '\n' and '\t' get their
// short escapes, other bytes below 0x20 "\u00xx", everything else (UTF-8
// included) passes through.
inline void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t plain = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.substr(plain, i - plain));
    plain = i + 1;
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\t':
        out.append("\\t");
        break;
      default: {
        const char hex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.substr(plain));
  out.push_back('"');
}

inline void put_json_number(std::ostream& os, double v) {
  std::string text;
  append_json_number(text, v);
  os << text;
}

inline void put_json_string(std::ostream& os, std::string_view s) {
  std::string text;
  append_json_string(text, s);
  os << text;
}

// Cursor-based pull parser over a JSON text. All methods return false on a
// grammar mismatch and leave the cursor in an unspecified position; callers
// treat any false as "malformed input". Keys and values must be consumed in
// document order — this is a streaming reader, not a DOM.
//
//   JsonLiteParser p(line);
//   std::string key;
//   if (!p.enter_object()) ...;
//   while (p.next_key(&key)) {
//     if (key == "t") p.read_number(&t); else p.skip_value();
//   }
class JsonLiteParser {
 public:
  explicit JsonLiteParser(std::string_view text) : text_(text) {}

  // Consumes '{'. The matching next_key loop ends (returns false) at '}'.
  bool enter_object() {
    skip_ws();
    if (!consume('{')) return false;
    stack_.push_back(true);
    return true;
  }

  // Advances to the next "key": inside the current object; false at the
  // closing '}' (which it consumes) or on malformed input.
  bool next_key(std::string* key) {
    skip_ws();
    if (consume('}')) {
      if (!stack_.empty()) stack_.pop_back();
      return false;
    }
    if (!separator()) return false;
    if (!read_string(key)) return false;
    skip_ws();
    return consume(':');
  }

  // Consumes '['. array_next returns false at ']' (consuming it); call it
  // before reading each element.
  bool enter_array() {
    skip_ws();
    if (!consume('[')) return false;
    stack_.push_back(true);
    return true;
  }
  bool array_next() {
    skip_ws();
    if (consume(']')) {
      if (!stack_.empty()) stack_.pop_back();
      return false;
    }
    return separator();
  }

  bool read_string(std::string* out) {
    skip_ws();
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      c = text_[pos_++];
      switch (c) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // Our emitter only writes \u00XX for control bytes; decode the
          // low byte and ignore anything outside latin-1 (never produced).
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool read_number(double* out) {
    skip_ws();
    const char* start = text_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<std::size_t>(end - start);
    *out = v;
    return true;
  }

  // Exact unsigned-64 parse; use for seeds/ids, which exceed the 2^53
  // mantissa a double round-trips.
  bool read_uint64(std::uint64_t* out) {
    skip_ws();
    const char* start = text_.data() + pos_;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(start, &end, 10);
    if (end == start) return false;
    pos_ += static_cast<std::size_t>(end - start);
    *out = static_cast<std::uint64_t>(v);
    return true;
  }

  bool read_bool(bool* out) {
    skip_ws();
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      *out = true;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      *out = false;
      return true;
    }
    return false;
  }

  // Returns the raw text of the next value (balanced object/array, string,
  // or scalar token) and advances past it. Useful for delegating a nested
  // section to another parser without materializing it.
  bool raw_value(std::string_view* out) {
    skip_ws();
    const std::size_t start = pos_;
    if (!skip_value()) return false;
    *out = text_.substr(start, pos_ - start);
    return true;
  }

  // True once every container entered has been closed and only whitespace
  // is left. A next_key or array_next loop also ends on malformed input,
  // so a text cut short passes every read before the cut; this tells the
  // two apart.
  bool at_end() {
    skip_ws();
    return stack_.empty() && pos_ == text_.size();
  }

  bool skip_value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '"') {
      std::string scratch;
      return read_string(&scratch);
    }
    if (c == '{' || c == '[') {
      // Balanced scan, string-aware.
      int depth = 0;
      while (pos_ < text_.size()) {
        const char d = text_[pos_];
        if (d == '"') {
          std::string scratch;
          if (!read_string(&scratch)) return false;
          continue;
        }
        ++pos_;
        if (d == '{' || d == '[') ++depth;
        if (d == '}' || d == ']') {
          if (--depth == 0) return true;
        }
      }
      return false;
    }
    // Scalar token: number / true / false / null.
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '+' || text_[pos_] == '-' || text_[pos_] == '.')) {
      ++pos_;
    }
    return pos_ > start;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  // Consumes the ',' between members of the innermost open container
  // (tracked per nesting level so sibling containers don't share state).
  bool separator() {
    if (stack_.empty()) return false;
    if (stack_.back()) {
      stack_.back() = false;
      return true;
    }
    if (!consume(',')) return false;
    skip_ws();
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<bool> stack_;  // per open container: "next member is first"
};

}  // namespace qoed::core
