#pragma once
// The repo's one JSON reader and writer: the serve protocol (line-delimited
// JSON, one object per line), the stage and search traces, the trace
// validator and the committed benchmark files all go through it.
//
// Reading: parse_json is a recursive-descent RFC 8259 parser — strict
// numbers (no inf/nan/hex/leading '+'/bare '.'), \u escapes decoded to
// UTF-8, and nesting capped at kJsonMaxDepth so hostile input off a socket
// cannot overflow the stack. parse_json_object is the flat-protocol view of
// it: serve requests and responses are flat objects (docs/serve.md).
//
// Writing: JsonWriter builds one object; nested values are spliced in as
// pre-serialized JSON (raw, array). Doubles print with %.17g (round-trip
// exact); non-finite doubles print as 0, since JSON has no NaN/Inf.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace dco3d::util {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  enum class Kind { kString, kNumber, kBool, kNull, kArray, kObject };
  Kind kind = Kind::kNull;
  std::string str;              // kString
  double num = 0.0;             // kNumber
  bool b = false;               // kBool
  std::vector<JsonValue> arr;   // kArray
  JsonObject obj;               // kObject

  bool is(Kind k) const { return kind == k; }
  /// Member `key` of an object value; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// Deepest array/object nesting parse_json accepts (the top level is 1).
inline constexpr int kJsonMaxDepth = 64;

/// Parse one JSON value with optional surrounding whitespace. Returns
/// kInvalidArgument ("json: <what> at offset N") on malformed input,
/// numbers outside the double range, or nesting deeper than kJsonMaxDepth.
Status parse_json(std::string_view text, JsonValue& out);

/// Parse a flat JSON object: parse_json restricted to a top-level object
/// whose members are all strings, numbers, bools or null. Any nested array
/// or object is kInvalidArgument. `out` is cleared first.
Status parse_json_object(std::string_view text, JsonObject& out);

std::string json_str(const JsonObject& o, const std::string& key,
                     const std::string& dflt = "");
double json_num(const JsonObject& o, const std::string& key, double dflt = 0.0);
bool json_bool(const JsonObject& o, const std::string& key, bool dflt = false);
bool json_has(const JsonObject& o, const std::string& key);

/// Append a JSON string literal (quotes + escapes) for `s` to `out`.
void json_escape_into(std::string& out, std::string_view s);

/// Incremental single-object builder: w.field("k", v)... then w.done().
class JsonWriter {
 public:
  JsonWriter() : out_("{") {}

  JsonWriter& field(std::string_view key, std::string_view v);
  JsonWriter& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  JsonWriter& field(std::string_view key, double v);
  JsonWriter& field(std::string_view key, std::int64_t v);
  JsonWriter& field(std::string_view key, std::uint64_t v);
  JsonWriter& field(std::string_view key, int v) {
    return field(key, static_cast<std::int64_t>(v));
  }
  JsonWriter& field(std::string_view key, bool v);
  /// Splice a pre-serialized JSON value verbatim.
  JsonWriter& raw(std::string_view key, std::string_view json);
  /// Splice an array of pre-serialized JSON values (e.g. JsonWriter::done()
  /// results).
  JsonWriter& array(std::string_view key,
                    const std::vector<std::string>& items);

  /// Close and return the object. The writer is spent afterwards.
  std::string done() {
    out_ += '}';
    return std::move(out_);
  }

 private:
  void key(std::string_view k);
  std::string out_;
  bool first_ = true;
};

}  // namespace dco3d::util
