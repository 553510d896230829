#include "util/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace dco3d::util {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

struct Parser {
  std::string_view s;
  int max_depth;  // 1 = flat: a nested container is an error
  std::size_t i = 0;
  int depth = 0;

  bool eof() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  bool peek_digit() const { return !eof() && is_digit(s[i]); }
  void skip_ws() {
    while (!eof() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                      s[i] == '\r'))
      ++i;
  }
  bool consume(char c) {
    skip_ws();
    if (eof() || s[i] != c) return false;
    ++i;
    return true;
  }

  Status fail(const std::string& what) const {
    return Status::invalid_argument("json: " + what + " at offset " +
                                    std::to_string(i));
  }

  Status parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (!eof()) {
      char c = s[i++];
      if (c == '"') return Status();
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) break;
      c = s[i++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (i + 4 > s.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // Encode the BMP code point as UTF-8 so nothing is silently
          // dropped (surrogate halves are encoded individually).
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
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Status parse_number(double& out) {
    const std::size_t start = i;
    if (!eof() && s[i] == '-') ++i;
    if (!peek_digit()) {
      i = start;
      return fail("expected value");
    }
    if (s[i++] != '0')
      while (peek_digit()) ++i;
    if (!eof() && s[i] == '.') {
      ++i;
      if (!peek_digit()) return fail("bad number");
      while (peek_digit()) ++i;
    }
    if (!eof() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (!eof() && (s[i] == '+' || s[i] == '-')) ++i;
      if (!peek_digit()) return fail("bad number");
      while (peek_digit()) ++i;
    }
    const auto r = std::from_chars(s.data() + start, s.data() + i, out);
    if (r.ec != std::errc()) {
      i = start;
      return fail("number out of range");
    }
    return Status();
  }

  Status parse_members(JsonValue& v) {
    v.kind = JsonValue::Kind::kObject;
    if (consume('}')) return Status();
    for (;;) {
      std::string key;
      Status st = parse_string(key);
      if (!st.ok()) return st;
      if (!consume(':')) return fail("expected ':'");
      JsonValue member;
      st = parse_value(member);
      if (!st.ok()) return st;
      v.obj[std::move(key)] = std::move(member);  // duplicate keys: last wins
      if (consume(',')) continue;
      if (consume('}')) return Status();
      return fail("expected ',' or '}'");
    }
  }

  Status parse_elements(JsonValue& v) {
    v.kind = JsonValue::Kind::kArray;
    if (consume(']')) return Status();
    for (;;) {
      v.arr.emplace_back();
      const Status st = parse_value(v.arr.back());
      if (!st.ok()) return st;
      if (consume(',')) continue;
      if (consume(']')) return Status();
      return fail("expected ',' or ']'");
    }
  }

  Status parse_value(JsonValue& v) {
    skip_ws();
    if (eof()) return fail("expected value");
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == max_depth)
        return fail(max_depth == 1
                        ? "nested containers are not part of the flat protocol"
                        : "nesting deeper than " +
                              std::to_string(kJsonMaxDepth) + " levels");
      ++i;
      ++depth;
      const Status st = c == '{' ? parse_members(v) : parse_elements(v);
      --depth;
      return st;
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      return parse_string(v.str);
    }
    if (c == 't' || c == 'f') {
      const std::string_view word = c == 't' ? "true" : "false";
      if (s.substr(i, word.size()) != word) return fail("bad literal");
      i += word.size();
      v.kind = JsonValue::Kind::kBool;
      v.b = c == 't';
      return Status();
    }
    if (c == 'n') {
      if (s.substr(i, 4) != "null") return fail("bad literal");
      i += 4;
      v.kind = JsonValue::Kind::kNull;
      return Status();
    }
    v.kind = JsonValue::Kind::kNumber;
    return parse_number(v.num);
  }

  Status parse_document(JsonValue& v) {
    const Status st = parse_value(v);
    if (!st.ok()) return st;
    skip_ws();
    if (!eof()) return fail("trailing content");
    return Status();
  }
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

Status parse_json(std::string_view text, JsonValue& out) {
  out = JsonValue();
  return Parser{text, kJsonMaxDepth}.parse_document(out);
}

Status parse_json_object(std::string_view text, JsonObject& out) {
  out.clear();
  Parser p{text, /*max_depth=*/1};
  p.skip_ws();
  if (p.eof() || p.peek() != '{') return p.fail("expected '{'");
  JsonValue v;
  const Status st = p.parse_document(v);
  if (st.ok()) out = std::move(v.obj);
  return st;
}

std::string json_str(const JsonObject& o, const std::string& key,
                     const std::string& dflt) {
  const auto it = o.find(key);
  if (it == o.end()) return dflt;
  if (it->second.kind == JsonValue::Kind::kString) return it->second.str;
  return dflt;
}

double json_num(const JsonObject& o, const std::string& key, double dflt) {
  const auto it = o.find(key);
  if (it == o.end()) return dflt;
  if (it->second.kind == JsonValue::Kind::kNumber) return it->second.num;
  return dflt;
}

bool json_bool(const JsonObject& o, const std::string& key, bool dflt) {
  const auto it = o.find(key);
  if (it == o.end()) return dflt;
  if (it->second.kind == JsonValue::Kind::kBool) return it->second.b;
  return dflt;
}

bool json_has(const JsonObject& o, const std::string& key) {
  return o.count(key) > 0;
}

void json_escape_into(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonWriter::key(std::string_view k) {
  if (!first_) out_ += ',';
  first_ = false;
  json_escape_into(out_, k);
  out_ += ':';
}

JsonWriter& JsonWriter::field(std::string_view k, std::string_view v) {
  key(k);
  json_escape_into(out_, v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    out_ += '0';
    return *this;
  }
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  out_.append(buf, static_cast<std::size_t>(n));
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::int64_t v) {
  key(k);
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::uint64_t v) {
  key(k);
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view k, std::string_view json) {
  key(k);
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::array(std::string_view k,
                              const std::vector<std::string>& items) {
  key(k);
  out_ += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out_ += ',';
    out_ += items[i];
  }
  out_ += ']';
  return *this;
}

}  // namespace dco3d::util
