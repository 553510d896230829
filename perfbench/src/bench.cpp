#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "util/jsonl.hpp"
#include "util/status.hpp"

namespace perfbench {

namespace util = dco3d::util;

namespace {
// Fallback origin for set-up timing when the launcher passed no spawn time.
const Clock::time_point g_program_start = Clock::now();
}  // namespace

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.start_ms = ms_since(origin_);
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ms = ms_since(origin_);
  // Spans close in LIFO order; tolerate an out-of-order close by unwinding.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

double Tracer::self_ms(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  double child = 0.0;
  for (const Span& c : spans_)
    if (c.parent == id) child += c.end_ms - c.start_ms;
  return (s.end_ms - s.start_ms) - child;
}

void Tracer::write_json(const std::string& path,
                        const std::string& header) const {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  os << "{\"run\":" << header << ",\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    util::JsonWriter w;
    w.field("id", static_cast<std::int64_t>(i))
        .field("name", s.name)
        .field("parent", s.parent)
        .field("start_ms", s.start_ms)
        .field("end_ms", s.end_ms)
        .field("self_ms", self_ms(static_cast<int>(i)));
    os << w.done() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& it : items_)
    if (it.first == name) {
      it.second = {value, unit};
      return;
    }
  items_.push_back({name, {value, unit}});
}

double Metrics::get(const std::string& name) const {
  for (const auto& it : items_)
    if (it.first == name) return it.second.first;
  return std::nan("");
}

bool Metrics::has(const std::string& name) const {
  for (const auto& it : items_)
    if (it.first == name) return true;
  return false;
}

std::string Metrics::to_json() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, vu] = items_[i];
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
       << (std::isfinite(vu.first) ? vu.first : 0.0) << ", \"unit\": \""
       << vu.second << "\"}";
  }
  os << "}";
  return os.str();
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> v = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"op_s", "s"},
      {"qor", "qor"},
  };
  return v;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> v = {
      {"flow.calibrate_ms", "ms"},
      {"flow.stage.place3d_ms", "ms"},
      {"flow.stage.dco_ms", "ms"},
      {"flow.stage.after-place-metrics_ms", "ms"},
      {"flow.stage.cts_ms", "ms"},
      {"flow.stage.legalize_ms", "ms"},
      {"flow.stage.route_ms", "ms"},
      {"flow.stage.signoff_ms", "ms"},
      {"flow.stage.final-metrics_ms", "ms"},
      {"flow.cts_ms", "ms"},
      {"flow.dataset.sample_ms", "ms"},
      {"flow.dataset.samples", "count", true},
      {"flow.cache.stage_hit_ratio", "ratio", true},
      {"core.dco.iterations", "count", true},
      {"core.dco.candidates", "count", true},
      {"core.dco.cells_moved_tier", "count", true},
      {"core.spreader_fwd_ms", "ms"},
      {"core.loss.cong_ms", "ms"},
      {"core.loss.ovlp_ms", "ms"},
      {"core.loss.cut_ms", "ms"},
      {"core.loss.disp_ms", "ms"},
      {"core.train.steps", "count", true},
      {"nn.backward_ms", "ms"},
      {"nn.unet.fwd_ms", "ms"},
      {"nn.unet.bwd_ms", "ms"},
      {"nn.adam_step_ms", "ms"},
      {"grid.soft_maps_ms", "ms"},
      {"grid.feature_maps_ms", "ms"},
      {"netlist.copy_ms", "ms"},
      {"place.pseudo3d_ms", "ms"},
      {"place.legalize_ms", "ms"},
      {"route.global_route_ms", "ms"},
      {"timing.sta_ms", "ms"},
      {"search.rounds", "count", true},
      {"search.cheap_evals", "count", true},
      {"search.full_evals", "count", true},
      {"util.pool.dispatches", "count"},
      {"util.pool.inline_runs", "count"},
      {"util.arena.heap_allocs", "count"},
      {"util.arena.peak_bytes", "bytes"},
  };
  return v;
}

bool manifest_metrics(const Metrics& m, bool trace, Metrics& out,
                      Metrics& extra, std::string& err) {
  const std::vector<MetricSpec>& specs =
      trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    const auto& items = m.items();
    const auto it = std::find_if(items.begin(), items.end(), [&](const auto& kv) {
      return kv.first == spec.name;
    });
    if (it == items.end()) {
      if (!spec.zero_when_absent) {
        err = std::string("metric ") + spec.name + " was not measured";
        return false;
      }
      out.set(spec.name, 0.0, spec.unit);
      continue;
    }
    if (it->second.second != spec.unit) {
      err = std::string("metric ") + spec.name + " has unit " +
            it->second.second + ", not " + spec.unit;
      return false;
    }
    out.set(spec.name, it->second.first, spec.unit);
  }
  for (const auto& [name, vu] : m.items())
    if (!out.has(name)) extra.set(name, vu.first, vu.second);
  return true;
}

UtilDelta::UtilDelta()
    : pool0(util::pool_stats()), arena0(util::Arena::instance().stats()) {
  util::Arena::instance().reset_peak();
}

void UtilDelta::report(Metrics& m) const {
  const util::PoolStats p = util::pool_stats();
  const util::ArenaStats a = util::Arena::instance().stats();
  m.set("util.pool.dispatches", static_cast<double>(p.dispatches - pool0.dispatches),
        "count");
  m.set("util.pool.inline_runs",
        static_cast<double>(p.inline_runs - pool0.inline_runs), "count");
  m.set("util.arena.heap_allocs",
        static_cast<double>(a.heap_allocs - arena0.heap_allocs), "count");
  m.set("util.arena.peak_bytes", static_cast<double>(a.peak_bytes), "bytes");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double seconds_since_spawn(const Options& opt) {
  if (opt.spawn_ns > 0) {
    timespec ts{};
    clock_gettime(CLOCK_REALTIME, &ts);
    const std::int64_t now =
        static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
    return static_cast<double>(now - opt.spawn_ns) * 1e-9;
  }
  return ms_since(g_program_start) * 1e-3;
}

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, 4);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 over (seed, salt): decorrelated, never 0.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

}  // namespace perfbench
