// The one JSON writer and the one JSON reader. The writer prints numbers as
// printf("%.17g") would, through std::to_chars, so distinct doubles never
// collapse to the same text and bit-identical results give byte-identical
// JSON; strings escape the minimum JSON set. Both append to a std::string;
// the put_json_* ostream forms wrap them. The reader has one number grammar
// (json_number_length), converted by std::from_chars straight into the
// target type, for JsonLiteParser, the timeline merge-key scanner and every
// number in a flag or environment variable (parse_json_number). The parser
// reads exactly the JSON this codebase emits: objects, arrays, strings with
// the escape set above, numbers (with the writer's nan/inf spellings) and
// booleans.
#pragma once

#include <charconv>
#include <concepts>
#include <initializer_list>
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

constexpr bool json_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// True when a scalar token may end at v[i]: the end of the text,
// whitespace, ',', '}' or ']'.
constexpr bool json_token_end(std::string_view v, std::size_t i) {
  return i == v.size() || json_space(v[i]) || v[i] == ',' || v[i] == '}' ||
         v[i] == ']';
}

// Length of the complete JSON number at the head of v, 0 if there is none:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? ending where a token
// ends. So "+1", "0x10", "01", ".5", "1." and "nan" are not numbers.
// *integer: no fraction or exponent.
constexpr std::size_t json_number_length(std::string_view v, bool* integer) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < v.size() && v[i] >= '0' && v[i] <= '9') ++i;
    return i > from;
  };
  *integer = true;
  if (i < v.size() && v[i] == '-') ++i;
  if (i < v.size() && v[i] == '0') {
    ++i;
  } else if (!digits()) {
    return 0;
  }
  if (i < v.size() && v[i] == '.') {
    ++i;
    *integer = false;
    if (!digits()) return 0;
  }
  if (i < v.size() && (v[i] == 'e' || v[i] == 'E')) {
    ++i;
    *integer = false;
    if (i < v.size() && (v[i] == '+' || v[i] == '-')) ++i;
    if (!digits()) return 0;
  }
  return json_token_end(v, i) ? i : 0;
}

// The JSON number at the head of v read into T: the length read, or 0 when
// there is none or it does not fit T — for an integral T also when it has
// a fraction or exponent, or a sign and T is unsigned. A double is finite.
template <typename T>
std::size_t read_json_number(std::string_view v, T* out) {
  bool integer = false;
  const std::size_t n = json_number_length(v, &integer);
  if (n == 0 || (std::integral<T> && !integer)) return 0;
  return std::from_chars(v.data(), v.data() + n, *out).ec == std::errc() ? n
                                                                         : 0;
}

// `text` is exactly one JSON number read into T: how a command-line flag or
// an environment variable writes a number.
template <typename T>
bool parse_json_number(std::string_view text, T* out) {
  const std::size_t n = read_json_number(text, out);
  return n > 0 && n == text.size();
}

// Cursor-based pull parser over a JSON text. All methods return false on a
// grammar mismatch and leave the cursor in an unspecified position (the
// number reads consume nothing on a mismatch); callers treat any false as
// "malformed input". Keys and values must be consumed in document order —
// this is a streaming reader, not a DOM. A decoder ends with at_end(), so a
// document cut short or followed by more text fails.
//
//   JsonLiteParser p(line);
//   std::string key;
//   if (!p.enter_object()) ...;
//   while (p.next_key(&key)) {
//     if (key == "t") p.read_number(&t); else p.skip_value();
//   }
//   if (!p.at_end()) ...;
class JsonLiteParser {
 public:
  explicit JsonLiteParser(std::string_view text) : text_(text) {}

  // Consumes '{'. The matching next_key loop ends (returns false) at '}'.
  bool enter_object() { return enter('{'); }

  // Advances to the next "key": inside the current object; false at the
  // closing '}' (which it consumes) or on malformed input.
  bool next_key(std::string* key) {
    if (leave('}') || !separator() || !read_string(key)) return false;
    skip_ws();
    return consume(':');
  }

  // Consumes '['. array_next returns false at ']' (consuming it); call it
  // before reading each element.
  bool enter_array() { return enter('['); }
  bool array_next() { return !leave(']') && separator(); }

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
          // Our emitter only writes \u00XX for control bytes; decode the
          // low byte and ignore anything outside latin-1 (never produced).
          const char* const hex = text_.data() + pos_;
          unsigned code = 0;
          if (text_.size() - pos_ < 4 ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
            return false;
          }
          pos_ += 4;
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  // A number read into T (read_json_number), so an integer is read exactly
  // and a fraction, exponent or out-of-range value is refused, never cast.
  // A double also takes the spellings append_json_number gives non-finite
  // values ("nan", "-nan", "inf", "-inf"), so every double the writer emits
  // reads back bit-identical. Consumes nothing on a mismatch.
  template <typename T>
  bool read_number(T* out) {
    skip_ws();
    const std::string_view rest = text_.substr(pos_);
    std::size_t n = read_json_number(rest, out);
    if (std::floating_point<T> && n == 0) {
      n = word_length(rest, {"nan", "-nan", "inf", "-inf"});
      std::from_chars(rest.data(), rest.data() + n, *out);  // none if n is 0
    }
    pos_ += n;
    return n > 0;
  }

  bool read_bool(bool* out) {
    skip_ws();
    const std::size_t n = word_length(text_.substr(pos_), {"true", "false"});
    if (n > 0) *out = n == 4;
    pos_ += n;
    return n > 0;
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
    // Scalar token: a number read_number takes, true, false or null.
    const std::string_view rest = text_.substr(pos_);
    bool integer = false;
    std::size_t n = json_number_length(rest, &integer);
    if (n == 0) {
      n = word_length(rest,
                      {"nan", "-nan", "inf", "-inf", "true", "false", "null"});
    }
    pos_ += n;
    return n > 0;
  }

 private:
  // Length of the word of `words` at the head of v that ends where a token
  // ends, 0 if none does.
  static std::size_t word_length(std::string_view v,
                                 std::initializer_list<std::string_view> words) {
    for (const std::string_view w : words) {
      if (v.starts_with(w) && json_token_end(v, w.size())) return w.size();
    }
    return 0;
  }

  void skip_ws() {
    while (pos_ < text_.size() && json_space(text_[pos_])) ++pos_;
  }
  bool enter(char open) {
    skip_ws();
    if (!consume(open)) return false;
    stack_.push_back(true);
    return true;
  }
  // Consumes `close`, leaving the innermost container.
  bool leave(char close) {
    skip_ws();
    if (!consume(close)) return false;
    if (!stack_.empty()) stack_.pop_back();
    return true;
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
