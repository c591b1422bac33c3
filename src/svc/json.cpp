#include "colorbars/svc/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace colorbars::svc {

namespace {

const Json& shared_null() {
  static const Json null;
  return null;
}

const std::string& shared_empty_string() {
  static const std::string empty;
  return empty;
}

/// Formats a double with enough digits to reconstruct its exact bit
/// pattern (17 significant decimal digits round-trip any binary64).
std::string format_double(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no NaN/inf
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

Json Json::boolean(bool value) {
  Json v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

Json Json::number(double value) {
  Json v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  v.number_token_ = format_double(value);
  return v;
}

Json Json::integer(std::int64_t value) {
  Json v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(value);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
  v.number_token_ = buf;
  return v;
}

Json Json::raw_number(double value, std::string token) {
  Json v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  v.number_token_ = std::move(token);
  return v;
}

Json Json::unsigned_integer(std::uint64_t value) {
  Json v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(value);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
  v.number_token_ = buf;
  return v;
}

Json Json::string(std::string value) {
  Json v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

Json Json::array() {
  Json v;
  v.kind_ = Kind::kArray;
  return v;
}

Json Json::object() {
  Json v;
  v.kind_ = Kind::kObject;
  return v;
}

bool Json::as_bool(bool fallback) const noexcept {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double Json::as_double(double fallback) const noexcept {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

namespace {

/// The token's value when it is an integer literal that fits T.
template <typename T>
std::optional<T> integer_token(const std::string& token) noexcept {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, status] = std::from_chars(token.data(), end, value);
  if (status != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::int64_t> Json::as_int64() const noexcept {
  if (kind_ != Kind::kNumber) return std::nullopt;
  return integer_token<std::int64_t>(number_token_);
}

std::optional<std::uint64_t> Json::as_uint64() const noexcept {
  if (kind_ != Kind::kNumber) return std::nullopt;
  return integer_token<std::uint64_t>(number_token_);
}

const std::string& Json::as_string() const noexcept {
  return kind_ == Kind::kString ? string_ : shared_empty_string();
}

std::size_t Json::size() const noexcept {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

const Json& Json::at(std::size_t index) const noexcept {
  if (kind_ != Kind::kArray || index >= array_.size()) return shared_null();
  return array_[index];
}

Json& Json::push_back(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  array_.push_back(std::move(value));
  return *this;
}

const Json& Json::operator[](std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return shared_null();
  for (const auto& [name, value] : object_) {
    if (name == key) return value;
  }
  return shared_null();
}

bool Json::has(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return false;
  for (const auto& [name, value] : object_) {
    if (name == key) return true;
  }
  return false;
}

Json& Json::set(std::string_view key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [name, existing] : object_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const noexcept {
  static const std::vector<std::pair<std::string, Json>> empty;
  return kind_ == Kind::kObject ? object_ : empty;
}

namespace {

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
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
  out += '"';
}

}  // namespace

void Json::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += number_token_; break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        array_[i].append_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        append_escaped(out, object_[i].first);
        out += ':';
        object_[i].second.append_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  append_to(out);
  return out;
}

namespace {

/// Bounded recursive-descent parser. Every read checks the cursor
/// against the end; failure paths set `error_` once and unwind.
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  Json run() {
    Json value = parse_value(0);
    if (failed_) return Json();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
      return Json();
    }
    return value;
  }

  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  void fail(const std::string& message) {
    if (failed_) return;
    failed_ = true;
    if (error_ != nullptr) {
      *error_ = message + " (at byte " + std::to_string(pos_) + ")";
    }
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_literal(std::string_view literal) {
    if (text_.size() - pos_ < literal.size()) return false;
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth >= Json::kMaxDepth) {
      fail("nesting too deep");
      return Json();
    }
    skip_whitespace();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return Json();
    }
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return parse_string_value();
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        fail("invalid literal");
        return Json();
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        fail("invalid literal");
        return Json();
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    ++pos_;  // '{'
    Json object = Json::object();
    skip_whitespace();
    if (consume('}')) return object;
    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return Json();
      }
      std::string key;
      if (!parse_string_into(key)) return Json();
      skip_whitespace();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return Json();
      }
      Json value = parse_value(depth + 1);
      if (failed_) return Json();
      object.set(key, std::move(value));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume('}')) return object;
      fail("expected ',' or '}' in object");
      return Json();
    }
  }

  Json parse_array(int depth) {
    ++pos_;  // '['
    Json array = Json::array();
    skip_whitespace();
    if (consume(']')) return array;
    while (true) {
      Json value = parse_value(depth + 1);
      if (failed_) return Json();
      array.push_back(std::move(value));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume(']')) return array;
      fail("expected ',' or ']' in array");
      return Json();
    }
  }

  Json parse_string_value() {
    std::string out;
    if (!parse_string_into(out)) return Json();
    return Json::string(std::move(out));
  }

  bool parse_string_into(std::string& out) {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        fail("dangling escape at end of input");
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (text_.size() - pos_ < 4) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("invalid \\u escape digit");
              return false;
            }
          }
          // UTF-8 encode the code point (surrogate pairs are not
          // combined — the wire layer never emits non-BMP text).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("invalid escape character");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t integer_start = pos_;
    bool digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      digits = true;
    }
    // JSON grammar: a multi-digit integer part must not start with 0.
    if (pos_ - integer_start > 1 && text_[integer_start] == '0') {
      fail("leading zero in number");
      return Json();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      bool exp_digits = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) {
        fail("malformed exponent");
        return Json();
      }
    }
    if (!digits) {
      fail("invalid number");
      return Json();
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("invalid number token");
      return Json();
    }
    // Keep the raw token so 64-bit integers survive untouched.
    return Json::raw_number(value, token);
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

Json Json::parse(std::string_view text, std::string* error) {
  Parser parser(text, error);
  return parser.run();
}

}  // namespace colorbars::svc
