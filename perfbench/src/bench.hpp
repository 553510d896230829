#pragma once
// Shared plumbing of the benchmark program: the run options, the span tracer
// of traced runs, the metric sink, and small statistics helpers.
//
// Every timing here is taken by the benchmark around a call into a public
// library function; nothing inside the library is instrumented.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // CLOCK_REALTIME nanoseconds at which the launcher spawned this process
  // (0 = unknown: set-up is then timed from the start of main()).
  std::int64_t spawn_ns = 0;
  std::string out_dir = "perfbench/out";  // trace files go here
  int threads = 1;  // kernel pool size; 0 = bench_threads()
};

/// One recorded span: a call the benchmark made into a module.
struct Span {
  std::string name;
  double start_ms = 0.0;  // since the tracer's origin
  double end_ms = 0.0;
  int parent = -1;        // index into the span list; -1 = root
};

/// In-memory span recorder. Disabled tracers record nothing, so the
/// untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  int begin(std::string name);
  void end(int id);

  /// Duration minus the time covered by direct children.
  double self_ms(int id) const;
  /// Write all spans with their self times as one JSON document.
  void write_json(const std::string& path, const std::string& header) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; `stop()` gives the elapsed time whether or not tracing is on,
/// so the same scope times the untraced run's metrics.
class Scoped {
 public:
  Scoped(Tracer& t, std::string name)
      : t_(t), id_(t.begin(std::move(name))), t0_(Clock::now()) {}
  ~Scoped() { stop(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  /// Close the span now; returns its duration in ms (idempotent).
  double stop() {
    if (!done_) {
      ms_ = ms_since(t0_);
      t_.end(id_);
      done_ = true;
    }
    return ms_;
  }

 private:
  Tracer& t_;
  int id_;
  Clock::time_point t0_;
  bool done_ = false;
  double ms_ = 0.0;
};

/// Ordered metric sink printed as the final JSON line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }
  /// Value of `name`, or NaN when it was never set.
  double get(const std::string& name) const;
  bool has(const std::string& name) const;
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What a workload hands back to main().
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;  // printed to stderr
  /// Workload-specific figures outside BENCHMARK.json (serve latencies,
  /// DCO loop estimates, ...): printed to stderr and written to the trace.
  Metrics details;
  void check(const std::string& failure) {
    if (failure.empty()) return;
    correct = false;
    check_failures.push_back(failure);
  }
};

/// A metric of BENCHMARK.json. Every run prints every end-to-end metric
/// (untraced) or every per-layer metric (traced), in this order.
struct MetricSpec {
  const char* name;
  const char* unit;
  /// A count or ratio of a layer that some workloads do not exercise; it
  /// reads 0 there. Timings are measured on every workload.
  bool zero_when_absent = false;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// The manifest's metrics of a run, in manifest order, taken from `m`.
/// Metrics of `m` outside the manifest go to `extra`. Returns false with
/// `err` when a timing is missing or a unit differs from the manifest's.
bool manifest_metrics(const Metrics& m, bool trace, Metrics& out,
                      Metrics& extra, std::string& err);

/// Counters of the util layer, as deltas over a timed section.
struct UtilDelta {
  dco3d::util::PoolStats pool0;
  dco3d::util::ArenaStats arena0;
  UtilDelta();
  /// Emit util.pool.dispatches/inline_runs and util.arena.heap_allocs/
  /// peak_bytes over the section that started at construction.
  void report(Metrics& m) const;
};

double median(std::vector<double> v);

/// Calls per replayed sub-step in traced runs (the median is reported).
inline constexpr int kReplays = 3;

/// Time kReplays calls of `body`, one span each; returns the median ms.
template <class F>
double replay(Tracer& tr, const std::string& name, F&& body) {
  std::vector<double> ms;
  for (int i = 0; i < kReplays; ++i) {
    Scoped s(tr, name);
    body();
    ms.push_back(s.stop());
  }
  return median(ms);
}
double peak_rss_mb();
/// User plus system CPU time of the whole process so far, in seconds.
double process_cpu_s();
/// Seconds from process spawn (or main) to now; see Options::spawn_ns.
double seconds_since_spawn(const Options& opt);
/// Pool size for a workload: the host's cores, capped at 4.
int bench_threads();

/// Derive a stream of sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
