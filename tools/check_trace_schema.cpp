// check_trace_schema — validate a trace JSON-lines file against the repo's
// trace schemas: dco3d-stage-trace-v1 (docs/flow.md) and
// dco3d-search-trace-v1 (docs/search.md). Each line declares its schema in
// the "schema" field; files may mix records of both.
//
//   check_trace_schema <trace.jsonl>
//
// Exit 0 when every line conforms; exit 1 with the offending line number and
// reason otherwise (a line that is not valid JSON, an unknown schema, or a
// field of the wrong type or range); exit 2 on usage or an unreadable file.
// Lines are read with the library's JSON parser (util/jsonl), whose
// conformance on literal JSON text is pinned by its own unit tests.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/jsonl.hpp"

namespace {

using dco3d::util::JsonValue;
using Kind = JsonValue::Kind;

/// `f` is present and a number >= lo.
bool number_ge(const JsonValue* f, double lo) {
  return f && f->is(Kind::kNumber) && f->num >= lo;
}

// ---------------------------------------------------------------------------
// Schema checks for dco3d-stage-trace-v1.

std::string check_entry(const JsonValue& v) {
  const JsonValue* stage = v.find("stage");
  if (!stage || !stage->is(Kind::kString) || stage->str.empty())
    return "'stage' must be a non-empty string";
  if (const JsonValue* design = v.find("design");
      design && !design->is(Kind::kString))
    return "'design' must be a string when present";

  if (!number_ge(v.find("index"), 0)) return "'index' must be a number >= 0";
  const JsonValue* cached = v.find("cached");
  if (!cached || !cached->is(Kind::kBool)) return "'cached' must be a boolean";
  if (!number_ge(v.find("wall_ms"), 0))
    return "'wall_ms' must be a number >= 0";
  if (!number_ge(v.find("threads"), 1))
    return "'threads' must be a number >= 1";

  const auto check_counters = [&](const char* block,
                                  const std::vector<const char*>& keys)
      -> std::string {
    const JsonValue* b = v.find(block);
    if (!b || !b->is(Kind::kObject))
      return std::string("'") + block + "' must be an object";
    for (const char* k : keys)
      if (!number_ge(b->find(k), 0))
        return std::string("'") + block + "." + k + "' must be a number >= 0";
    return "";
  };
  if (std::string e = check_counters(
          "arena", {"requests", "pool_hits", "heap_allocs", "live_bytes",
                    "peak_bytes", "pooled_bytes"});
      !e.empty())
    return e;
  if (std::string e =
          check_counters("pool", {"dispatches", "inline_runs", "chunks"});
      !e.empty())
    return e;

  const JsonValue* metrics = v.find("metrics");
  if (!metrics || !metrics->is(Kind::kObject))
    return "'metrics' must be an object";
  for (const auto& [k, mv] : metrics->obj)
    if (!mv.is(Kind::kNumber)) return "'metrics." + k + "' must be a number";

  // Per-tier metric family: an uncached route stage publishes 'tiers' plus
  // one 'ovf_tier<t>' per die and 'vias_b<b>'/'cut_b<b>' per tier boundary.
  if (stage->str == "route" && !cached->b) {
    const JsonValue* tiers = metrics->find("tiers");
    if (!number_ge(tiers, 2) ||
        tiers->num != static_cast<double>(static_cast<int>(tiers->num)))
      return "'metrics.tiers' must be an integer >= 2 on route entries";
    const int k = static_cast<int>(tiers->num);
    std::vector<std::string> keys;
    for (int t = 0; t < k; ++t) keys.push_back("ovf_tier" + std::to_string(t));
    for (int b = 0; b + 1 < k; ++b)
      for (const char* prefix : {"vias_b", "cut_b"})
        keys.push_back(prefix + std::to_string(b));
    for (const std::string& key : keys)
      if (!number_ge(metrics->find(key), 0))
        return "'metrics." + key + "' must be a number >= 0";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Schema checks for dco3d-search-trace-v1 (docs/search.md): per-evaluation
// records (event "eval") interleaved with per-round summaries (event
// "round"), appended in evaluation order by the multi-fidelity searcher.

std::string check_nonneg(const JsonValue& v, const char* key,
                         bool integer = true) {
  const JsonValue* f = v.find(key);
  if (!number_ge(f, 0))
    return std::string("'") + key + "' must be a number >= 0";
  if (integer &&
      f->num != static_cast<double>(static_cast<long long>(f->num)))
    return std::string("'") + key + "' must be an integer";
  return "";
}

std::string check_search_entry(const JsonValue& v) {
  const JsonValue* event = v.find("event");
  if (!event || !event->is(Kind::kString) ||
      (event->str != "eval" && event->str != "round"))
    return "'event' must be \"eval\" or \"round\"";
  if (const JsonValue* design = v.find("design");
      design && !design->is(Kind::kString))
    return "'design' must be a string when present";
  if (std::string e = check_nonneg(v, "round"); !e.empty()) return e;

  if (event->str == "eval") {
    if (std::string e = check_nonneg(v, "candidate"); !e.empty()) return e;
    const JsonValue* fid = v.find("fidelity");
    if (!fid || !fid->is(Kind::kString) ||
        (fid->str != "cheap" && fid->str != "full"))
      return "'fidelity' must be \"cheap\" or \"full\"";
    const JsonValue* obj = v.find("objective");
    if (!obj || !obj->is(Kind::kNumber)) return "'objective' must be a number";
    for (const char* key : {"usable", "promoted"}) {
      const JsonValue* f = v.find(key);
      if (!f || !f->is(Kind::kBool))
        return std::string("'") + key + "' must be a boolean";
    }
    for (const char* key : {"stages_run", "stages_cached"})
      if (std::string e = check_nonneg(v, key); !e.empty()) return e;
    return "";
  }

  // event == "round": the per-round summary closing each round's records.
  for (const char* key : {"candidates", "cheap_evals", "full_evals",
                          "promoted", "cache_hits", "cache_misses"})
    if (std::string e = check_nonneg(v, key); !e.empty()) return e;
  for (const char* key : {"round_best", "best_objective"}) {
    const JsonValue* f = v.find(key);
    if (!f || !f->is(Kind::kNumber))
      return std::string("'") + key + "' must be a number";
  }
  if (std::string e = check_nonneg(v, "wall_ms", /*integer=*/false); !e.empty())
    return e;
  if (!number_ge(v.find("threads"), 1))
    return "'threads' must be a number >= 1";
  return "";
}

/// Dispatch on the declared schema; unknown schemas fail (a typo'd schema
/// string must not validate as success).
std::string check_line(const JsonValue& v) {
  if (!v.is(Kind::kObject)) return "top-level value is not an object";
  const JsonValue* schema = v.find("schema");
  if (!schema || !schema->is(Kind::kString))
    return "missing 'schema' string";
  if (schema->str == "dco3d-stage-trace-v1") return check_entry(v);
  if (schema->str == "dco3d-search-trace-v1") return check_search_entry(v);
  return "unknown 'schema' \"" + schema->str +
         "\" (want \"dco3d-stage-trace-v1\" or \"dco3d-search-trace-v1\")";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: check_trace_schema <trace.jsonl>\n");
    return 2;
  }
  std::ifstream is(argv[1]);
  if (!is) {
    std::fprintf(stderr, "check_trace_schema: cannot open %s\n", argv[1]);
    return 2;
  }
  std::string line;
  std::size_t lineno = 0, entries = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    const dco3d::Status st = dco3d::util::parse_json(line, v);
    const std::string err = st.ok() ? check_line(v) : st.message();
    if (!err.empty()) {
      std::fprintf(stderr, "%s:%zu: %s\n", argv[1], lineno, err.c_str());
      return 1;
    }
    ++entries;
  }
  if (entries == 0) {
    std::fprintf(stderr, "%s: no trace entries\n", argv[1]);
    return 1;
  }
  std::printf("%s: %zu trace entries conform\n", argv[1], entries);
  return 0;
}
