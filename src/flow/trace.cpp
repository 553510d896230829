#include "flow/trace.hpp"

#include <fstream>

#include "flow/cache.hpp"
#include "util/jsonl.hpp"
#include "util/status.hpp"

namespace dco3d {

std::string StageTraceEntry::to_json() const {
  util::JsonWriter w;
  w.field("schema", kStageTraceSchema);
  if (!design.empty()) w.field("design", design);
  w.field("stage", stage)
      .field("index", index)
      .field("cached", cached)
      .field("wall_ms", wall_ms)
      .field("threads", threads)
      .raw("arena", util::JsonWriter()
                        .field("requests", arena.requests)
                        .field("pool_hits", arena.pool_hits)
                        .field("heap_allocs", arena.heap_allocs)
                        .field("live_bytes", arena.live_bytes)
                        .field("peak_bytes", arena.peak_bytes)
                        .field("pooled_bytes", arena.pooled_bytes)
                        .done())
      .raw("pool", util::JsonWriter()
                       .field("dispatches", pool.dispatches)
                       .field("inline_runs", pool.inline_runs)
                       .field("chunks", pool.chunks)
                       .done());
  util::JsonWriter m;
  for (const auto& [k, v] : metrics) m.field(k, v);
  return w.raw("metrics", m.done()).done();
}

StageTraceEntry cache_footer_entry(const std::string& design, int index,
                                   const ArtifactCacheStats& stats) {
  StageTraceEntry e;
  e.design = design;
  e.stage = "cache-footer";
  e.index = index;
  e.threads = util::num_threads();
  e.metrics.emplace_back("cache_hits", static_cast<double>(stats.loads));
  e.metrics.emplace_back("cache_misses", static_cast<double>(stats.misses));
  e.metrics.emplace_back("cache_saves", static_cast<double>(stats.saves));
  e.metrics.emplace_back("cache_evictions",
                         static_cast<double>(stats.evictions));
  e.metrics.emplace_back("cache_entries", static_cast<double>(stats.entries));
  e.metrics.emplace_back("cache_bytes", static_cast<double>(stats.bytes));
  return e;
}

void append_trace_file(const std::string& path,
                       const std::vector<StageTraceEntry>& entries) {
  std::ofstream os(path, std::ios::app);
  if (!os)
    throw StatusError(Status::io_error("trace: cannot open " + path));
  for (const StageTraceEntry& e : entries) os << e.to_json() << '\n';
  os.flush();
  if (!os) throw StatusError(Status::io_error("trace: write failed on " + path));
}

}  // namespace dco3d
