// bench_report — emit and gate the committed engineering benchmark JSONs:
//
//   bench_report kernels [-o BENCH_kernels.json] [--scale S] [--reps N]
//   bench_report flow    [-o BENCH_flow.json]    [--scale S] [--grid N]
//   bench_report search  [-o BENCH_search.json]  [--scale S] [--grid N]
//   bench_report ingest  [-o BENCH_ingest.json]  [--scale S] [--grid N]
//   bench_report compare --baseline FILE [--threshold T] [--scale S]
//                        [--reps N] [--grid N]
//
// `kernels` times the hot kernels of the DCO loop (hard/soft feature maps,
// the differentiable losses with their analytic backwards, global routing,
// STA, K-way FM partitioning) at two and three tiers, plus the GEMM-bound
// nn primitives underneath the predictor (dense GEMM variants, a conv
// forward+backward block, elementwise and reduction sweeps), so the
// committed numbers track both the flow-level and microkernel-level cost.
// `flow` runs the staged Pin-3D pipeline end to end at two and three tiers
// and records per-stage wall time from the StageTrace.
// `search` runs a small multi-fidelity knob search (cheap screening +
// promotion through a fresh artifact cache) and records total/per-round
// wall time plus rounds/sec, the cache hit rate, and the cheap-vs-full
// evaluation split (docs/search.md).
// `ingest` times open-format ingestion at paper scale: a generated design is
// exported as structural Verilog and re-imported (parse + master mapping +
// freeze) then run through one cheap-fidelity flow, at 1x/4x/10x of the
// default benchmark scale (docs/formats.md).
//
// `compare` closes the perf-trajectory loop: it re-measures the suite named
// by the baseline file's schema and fails (exit 1) if any kernel's fresh p50
// regresses more than --threshold (default 0.15 = 15%) over the committed
// number, or if a committed kernel no longer exists (renames must regenerate
// the baseline). Wired as the `bench_regression` ctest.
//
// Timings are medians over --reps runs after one warm-up; they are
// machine-dependent engineering numbers (like BENCH_serve.json), committed
// to track relative regressions, not absolute performance. The JSON header
// records the SIMD backend, host ISA, git revision, and worker-pool size so
// a diff across machines or backends is recognizable as such.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/losses.hpp"
#include "flow/cache.hpp"
#include "flow/pin3d.hpp"
#include "flow/stage.hpp"
#include "io/netlist_reader.hpp"
#include "search/evaluator.hpp"
#include "search/searcher.hpp"
#include "grid/soft_maps.hpp"
#include "netlist/generators.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/simd/simd.hpp"
#include "place/fm_partitioner.hpp"
#include "place/placer3d.hpp"
#include "route/router.hpp"
#include "timing/sta.hpp"
#include "util/jsonl.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#ifndef DCO3D_GIT_DESCRIBE
#define DCO3D_GIT_DESCRIBE "unknown"
#endif

using namespace dco3d;

namespace {

const char* arg_str(int argc, char** argv, const char* key, const char* dflt) {
  for (int i = 2; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], key) == 0) return argv[i + 1];
  return dflt;
}

double arg_num(int argc, char** argv, const char* key, double dflt) {
  const char* s = arg_str(argc, argv, key, nullptr);
  return s ? std::atof(s) : dflt;
}

double median_ms(const std::function<void()>& fn, int reps) {
  fn();  // warm-up (pool/arena steady state)
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

struct Entry {
  std::string name;
  double p50_ms = 0.0;
};

/// Shared JSON header: design/workload identity plus the measurement context
/// (SIMD backend actually dispatched, best ISA the host supports, git
/// revision, actual worker-pool size).
util::JsonWriter context(const char* schema, const std::string& design,
                         std::size_t cells, std::size_t nets, double scale) {
  util::JsonWriter w;
  w.field("schema", schema)
      .field("design", design)
      .field("cells", std::uint64_t{cells})
      .field("nets", std::uint64_t{nets})
      .field("scale", scale)
      .field("simd", nn::simd::backend_name())
      .field("host_isa", nn::simd::host_isa())
      .field("git", DCO3D_GIT_DESCRIBE)
      .field("threads", util::num_threads());
  return w;
}

/// One {"name","p50_ms"} row per entry.
std::vector<std::string> entry_rows(const std::vector<Entry>& entries) {
  std::vector<std::string> rows;
  for (const Entry& e : entries)
    rows.push_back(util::JsonWriter()
                       .field("name", e.name)
                       .field("p50_ms", e.p50_ms)
                       .done());
  return rows;
}

/// Write one JSON document plus a newline to `path`.
int write_report(const std::string& path, const std::string& json) {
  std::ofstream os(path);
  os << json << '\n';
  if (!os) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Per-cell position/tier leaves for the differentiable kernels. K = 2 uses
/// the legacy scalar-z relaxation, K > 2 one probability vector per tier.
struct SoftState {
  nn::Var x, y, z;
  std::vector<nn::Var> p;
};

SoftState make_soft_state(const Placement3D& pl, int num_tiers) {
  const auto n = static_cast<std::int64_t>(pl.size());
  nn::Tensor tx({n}), ty({n});
  for (std::int64_t i = 0; i < n; ++i) {
    tx.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].x);
    ty.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].y);
  }
  SoftState s;
  s.x = nn::make_leaf(std::move(tx), /*requires_grad=*/true);
  s.y = nn::make_leaf(std::move(ty), /*requires_grad=*/true);
  if (num_tiers == 2) {
    nn::Tensor tz({n});
    for (std::int64_t i = 0; i < n; ++i)
      tz.data()[i] = pl.tier[static_cast<std::size_t>(i)] == 1 ? 0.8f : 0.2f;
    s.z = nn::make_leaf(std::move(tz), /*requires_grad=*/true);
  } else {
    for (int t = 0; t < num_tiers; ++t) {
      nn::Tensor tp({n});
      for (std::int64_t i = 0; i < n; ++i)
        tp.data()[i] = pl.tier[static_cast<std::size_t>(i)] == t ? 0.6f
                       : 0.4f / static_cast<float>(num_tiers - 1);
      s.p.push_back(nn::make_leaf(std::move(tp), /*requires_grad=*/true));
    }
  }
  return s;
}

struct KernelSuite {
  std::string design;
  std::size_t cells = 0, nets = 0;
  std::vector<Entry> entries;
};

KernelSuite measure_kernels(double scale, int reps) {
  DesignSpec spec = spec_for(DesignKind::kDma, scale);
  const Netlist design = generate_design(spec);
  const PlacementParams params;
  const Placement3D pl2 = place_pseudo3d(design, params, 3, true, 2);
  const Placement3D pl3 = place_pseudo3d(design, params, 3, true, 3);
  const GCellGrid grid(pl2.outline, 32, 32);
  const GCellGrid grid3(pl3.outline, 32, 32);
  auto edges = std::make_shared<
      const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      design.cell_graph_edges());
  TimingConfig tcfg;
  tcfg.clock_period_ps = spec.clock_period_ps;
  const nn::Tensor power({static_cast<std::int64_t>(design.num_cells())});

  KernelSuite suite;
  suite.design = spec.name;
  suite.cells = design.num_cells();
  suite.nets = design.num_nets();
  const auto add = [&](const char* name, const std::function<void()>& fn) {
    suite.entries.push_back({name, median_ms(fn, reps)});
    std::printf("  %-28s %9.3f ms\n", name, suite.entries.back().p50_ms);
  };

  // --- GEMM-bound nn primitives (fixed shapes, design-independent) ---
  Rng rng(5);
  const std::int64_t gm = 256, gn = 256, gk = 256;
  nn::Tensor ga = nn::xavier_uniform({gm, gk}, gk, gm, rng);
  nn::Tensor gb = nn::xavier_uniform({gk, gn}, gn, gk, rng);
  nn::Tensor gat = nn::xavier_uniform({gk, gm}, gk, gm, rng);
  nn::Tensor gbt = nn::xavier_uniform({gn, gk}, gn, gk, rng);
  nn::Tensor gc({gm, gn});
  const float* gad = ga.data().data();
  const float* gbd = gb.data().data();
  const float* gatd = gat.data().data();
  const float* gbtd = gbt.data().data();
  float* gcd = gc.data().data();
  add("gemm_nn_256", [&] { nn::detail::gemm_nn(gm, gn, gk, gad, gbd, gcd); });
  add("gemm_tn_256", [&] { nn::detail::gemm_tn(gm, gn, gk, gatd, gbd, gcd); });
  add("gemm_nt_256", [&] { nn::detail::gemm_nt(gm, gn, gk, gad, gbtd, gcd); });
  nn::Var cin = nn::make_leaf(nn::xavier_uniform({2, 8, 48, 48}, 8, 16, rng), true);
  nn::Var cw = nn::make_leaf(nn::xavier_uniform({16, 8, 3, 3}, 72, 144, rng), true);
  nn::Var cbias = nn::make_leaf(nn::Tensor({16}, 0.1f), true);
  add("conv_fwd_bwd", [&] {
    nn::backward(nn::sum(nn::conv2d(cin, cw, cbias, 1, 1)));
  });
  nn::Var vx = nn::make_leaf(nn::xavier_uniform({1, 1048576}, 1, 1, rng));
  nn::Var vy = nn::make_leaf(nn::xavier_uniform({1, 1048576}, 1, 1, rng));
  add("ew_mul_1m", [&] { nn::Var o = nn::mul(vx, vy); });
  add("reduce_sum_1m", [&] { nn::Var o = nn::sum(vx); });

  // --- flow-level kernels ---
  add("feature_maps_k2",
      [&] { compute_feature_maps(design, pl2, grid); });
  add("feature_maps_k3",
      [&] { compute_feature_maps(design, pl3, grid3); });
  add("soft_maps_fwd_bwd_k2", [&] {
    SoftState s = make_soft_state(pl2, 2);
    nn::backward(nn::sum(soft_feature_maps(design, grid, s.x, s.y, s.z).stacked));
  });
  add("soft_maps_fwd_bwd_k3", [&] {
    SoftState s = make_soft_state(pl3, 3);
    nn::backward(nn::sum(soft_feature_maps(design, grid3, s.x, s.y, s.p).stacked));
  });
  add("cutsize_fwd_bwd_k2", [&] {
    SoftState s = make_soft_state(pl2, 2);
    nn::backward(cutsize_loss(s.z, edges));
  });
  add("cutsize_fwd_bwd_k3", [&] {
    SoftState s = make_soft_state(pl3, 3);
    nn::backward(cutsize_loss(s.p, edges));
  });
  add("overlap_fwd_bwd_k2", [&] {
    SoftState s = make_soft_state(pl2, 2);
    nn::backward(overlap_loss(design, s.x, s.y, s.z, pl2.outline, 8, 8, 0.8));
  });
  add("overlap_fwd_bwd_k3", [&] {
    SoftState s = make_soft_state(pl3, 3);
    nn::backward(overlap_loss(design, s.x, s.y, s.p, pl3.outline, 8, 8, 0.8));
  });
  add("thermal_fwd_bwd_k3", [&] {
    SoftState s = make_soft_state(pl3, 3);
    nn::backward(
        thermal_density_loss(design, s.x, s.y, s.p, power, pl3.outline, 8, 8));
  });
  add("global_route_k2", [&] { global_route(design, pl2, grid); });
  add("global_route_k3", [&] { global_route(design, pl3, grid3); });
  // Capacity calibrated tight, so rip-up-and-reroute's maze search runs.
  const RouterConfig tight =
      calibrated_router(design, pl2, 32, kCalibrationPctile);
  add("global_route_rrr_k2", [&] { global_route(design, pl2, grid, tight); });
  add("sta", [&] { run_sta(design, pl2, tcfg); });
  add("fm_partition_k2", [&] {
    std::vector<int> tiers = seed_tiers_checkerboard(design, pl2, 16, 2);
    fm_refine(design, tiers, FmConfig{}, 2);
  });
  add("fm_partition_k4", [&] {
    std::vector<int> tiers = seed_tiers_checkerboard(design, pl2, 16, 4);
    fm_refine(design, tiers, FmConfig{}, 4);
  });
  return suite;
}

int run_kernels(int argc, char** argv) {
  const std::string out = arg_str(argc, argv, "-o", "BENCH_kernels.json");
  const double scale = arg_num(argc, argv, "--scale", 0.02);
  const int reps = static_cast<int>(arg_num(argc, argv, "--reps", 5));

  const KernelSuite suite = measure_kernels(scale, reps);
  return write_report(out, context("dco3d-bench-kernels-v2", suite.design,
                                   suite.cells, suite.nets, scale)
                               .field("reps", reps)
                               .array("kernels", entry_rows(suite.entries))
                               .done());
}

struct FlowSuite {
  std::string design;
  std::size_t cells = 0, nets = 0;
  std::vector<Entry> totals;      // name = "flow_tiers2"/"flow_tiers3"
  std::vector<std::string> runs;  // one pre-rendered object per tier count
};

FlowSuite measure_flow(double scale, int grid_n) {
  DesignSpec spec = spec_for(DesignKind::kDma, scale);
  const Netlist design = generate_design(spec);
  FlowSuite suite;
  suite.design = spec.name;
  suite.cells = design.num_cells();
  suite.nets = design.num_nets();

  for (const int tiers : {2, 3}) {
    FlowConfig cfg;
    cfg.grid_nx = cfg.grid_ny = grid_n;
    cfg.num_tiers = tiers;
    cfg.timing.clock_period_ps = spec.clock_period_ps;
    cfg.router = calibrated_router(design, cfg);
    FlowContext ctx = make_flow_context(design, cfg);
    ctx.design_name = spec.name;
    std::vector<StageTraceEntry> trace;
    PipelineOptions po;
    po.trace = &trace;
    const auto t0 = std::chrono::steady_clock::now();
    const FlowResult r = pin3d_pipeline().run(ctx, po);
    const double total_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    std::printf("tiers=%d: %.1f ms, signoff overflow %.0f, WL %.1f um\n",
                tiers, total_ms, r.signoff.overflow, r.signoff.wirelength_um);
    suite.totals.push_back({"flow_tiers" + std::to_string(tiers), total_ms});

    std::vector<std::string> stages;
    for (const StageTraceEntry& e : trace)
      stages.push_back(util::JsonWriter()
                           .field("stage", e.stage)
                           .field("wall_ms", e.wall_ms)
                           .done());
    suite.runs.push_back(util::JsonWriter()
                             .field("tiers", tiers)
                             .field("total_ms", total_ms)
                             .field("signoff_overflow", r.signoff.overflow)
                             .field("signoff_wl_um", r.signoff.wirelength_um)
                             .array("stages", stages)
                             .done());
  }
  return suite;
}

int run_flow(int argc, char** argv) {
  const std::string out = arg_str(argc, argv, "-o", "BENCH_flow.json");
  const double scale = arg_num(argc, argv, "--scale", 0.02);
  const int grid_n = static_cast<int>(arg_num(argc, argv, "--grid", 16));

  const FlowSuite suite = measure_flow(scale, grid_n);
  return write_report(out, context("dco3d-bench-flow-v2", suite.design,
                                   suite.cells, suite.nets, scale)
                               .field("grid", grid_n)
                               .array("runs", suite.runs)
                               .done());
}

// --- search mode ------------------------------------------------------------

struct SearchSuite {
  std::string design;
  std::size_t cells = 0, nets = 0;
  std::vector<Entry> totals;  // "search_total" / "search_round"
  int rounds = 0, cheap_evals = 0, full_evals = 0;
  double rounds_per_sec = 0.0, cache_hit_rate = 0.0, best_objective = 0.0;
};

/// One fixed small search: 3 rounds x batch 4 with cheap screening through a
/// fresh artifact cache (wiped up front so reruns don't replay the previous
/// run's artifacts and report an empty search).
SearchSuite measure_search(double scale, int grid_n) {
  DesignSpec spec = spec_for(DesignKind::kDma, scale);
  const Netlist design = generate_design(spec);
  SearchSuite suite;
  suite.design = spec.name;
  suite.cells = design.num_cells();
  suite.nets = design.num_nets();

  FlowConfig base;
  base.grid_nx = base.grid_ny = grid_n;
  base.router = calibrated_router(design, base);

  const std::string cache_dir = "bench_search_cache";
  std::filesystem::remove_all(cache_dir);
  ArtifactCache cache(cache_dir, 1ull << 30);

  FlowEvaluatorConfig ec;
  ec.cache = &cache;
  FlowEvaluator evaluator(spec.name, design, base, ec);
  SearchConfig sc;
  sc.rounds = 3;
  sc.batch = 4;
  sc.init_samples = 4;
  sc.candidates = 64;
  sc.promote_fraction = 0.25;
  sc.cheap_screen = true;
  sc.cache = &cache;

  Rng rng(1);
  const auto t0 = std::chrono::steady_clock::now();
  const SearchResult res = multi_fidelity_search(evaluator, sc, rng);
  const double total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  suite.rounds = res.rounds_completed;
  suite.cheap_evals = res.cheap_evals;
  suite.full_evals = res.full_evals;
  suite.best_objective = res.best_objective;
  suite.rounds_per_sec =
      total_ms > 0.0 ? res.rounds_completed / (total_ms / 1000.0) : 0.0;
  const ArtifactCacheStats cs = cache.stats();
  suite.cache_hit_rate = (cs.loads + cs.misses) > 0
                             ? static_cast<double>(cs.loads) /
                                   static_cast<double>(cs.loads + cs.misses)
                             : 0.0;
  double round_ms_sum = 0.0;
  for (const SearchRoundRecord& r : res.trace)
    if (r.round > 0) round_ms_sum += r.wall_ms;
  suite.totals.push_back({"search_total", total_ms});
  suite.totals.push_back(
      {"search_round", res.rounds_completed > 0
                           ? round_ms_sum / res.rounds_completed
                           : 0.0});
  std::printf("search: %.1f ms total (%.2f rounds/sec), best %.4f, "
              "%d cheap + %d full evals, cache hit rate %.2f\n",
              total_ms, suite.rounds_per_sec, res.best_objective,
              res.cheap_evals, res.full_evals, suite.cache_hit_rate);
  return suite;
}

int run_search(int argc, char** argv) {
  const std::string out = arg_str(argc, argv, "-o", "BENCH_search.json");
  const double scale = arg_num(argc, argv, "--scale", 0.02);
  const int grid_n = static_cast<int>(arg_num(argc, argv, "--grid", 16));

  const SearchSuite suite = measure_search(scale, grid_n);
  return write_report(out, context("dco3d-bench-search-v2", suite.design,
                                   suite.cells, suite.nets, scale)
                               .field("grid", grid_n)
                               .field("rounds", suite.rounds)
                               .field("rounds_per_sec", suite.rounds_per_sec)
                               .field("cache_hit_rate", suite.cache_hit_rate)
                               .field("cheap_evals", suite.cheap_evals)
                               .field("full_evals", suite.full_evals)
                               .field("best_objective", suite.best_objective)
                               .array("kernels", entry_rows(suite.totals))
                               .done());
}

// --- ingest mode ------------------------------------------------------------

struct IngestSuite {
  std::string design;
  std::size_t cells = 0, nets = 0;  // at the largest multiplier
  std::vector<Entry> entries;       // ingest_{parse,flow}_{1,4,10}x
  std::vector<std::string> scales;  // one {"mult","cells","nets"} per scale
};

/// Open-format ingestion cost at paper scale: each multiplier of the default
/// benchmark scale (0.04) is exported as structural Verilog, re-imported
/// (lex + parse + master mapping + freeze, all inside read_verilog), and
/// pushed through one cheap-fidelity flow (grid 8). One-shot wall times,
/// like the flow suite — ingestion is dominated by a single cold pass.
IngestSuite measure_ingest(double base_scale, int grid_n) {
  IngestSuite suite;
  for (const int mult : {1, 4, 10}) {
    DesignSpec spec = spec_for(DesignKind::kDma, base_scale * mult);
    const Netlist generated = generate_design(spec);
    std::stringstream verilog;
    write_verilog(verilog, generated, spec.name);
    const std::string tag = std::to_string(mult) + "x";

    const auto t0 = std::chrono::steady_clock::now();
    ImportReport rep;
    const Netlist imported = read_verilog(verilog, &rep);
    const double parse_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

    FlowConfig cfg;
    cfg.grid_nx = cfg.grid_ny = grid_n;
    const auto t1 = std::chrono::steady_clock::now();
    const FlowResult r = run_pin3d_flow(imported, cfg);
    const double flow_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t1)
                               .count();

    suite.design = spec.name;
    suite.cells = imported.num_cells();
    suite.nets = imported.num_nets();
    suite.entries.push_back({"ingest_parse_" + tag, parse_ms});
    suite.entries.push_back({"ingest_flow_" + tag, flow_ms});
    suite.scales.push_back(
        util::JsonWriter()
            .field("mult", mult)
            .field("cells", std::uint64_t{imported.num_cells()})
            .field("nets", std::uint64_t{imported.num_nets()})
            .done());
    std::printf("ingest %dx: %zu cells, parse %.1f ms, flow %.1f ms "
                "(signoff WL %.1f um)\n",
                mult, imported.num_cells(), parse_ms, flow_ms,
                r.signoff.wirelength_um);
  }
  return suite;
}

int run_ingest(int argc, char** argv) {
  const std::string out = arg_str(argc, argv, "-o", "BENCH_ingest.json");
  const double scale = arg_num(argc, argv, "--scale", 0.04);
  const int grid_n = static_cast<int>(arg_num(argc, argv, "--grid", 8));

  const IngestSuite suite = measure_ingest(scale, grid_n);
  return write_report(out, context("dco3d-bench-ingest-v1", suite.design,
                                   suite.cells, suite.nets, scale)
                               .field("grid", grid_n)
                               .array("scales", suite.scales)
                               .array("kernels", entry_rows(suite.entries))
                               .done());
}

// --- compare mode -----------------------------------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Where a baseline schema keeps its committed rows: the `array` member's
/// elements, each named by `name_key` (a string, or the flow suite's tier
/// count) with its timing under `value_key`.
struct BaselineLayout {
  const char* schema;
  const char* array;
  const char* name_key;
  const char* value_key;
};
constexpr BaselineLayout kBaselineLayouts[] = {
    {"dco3d-bench-kernels-v2", "kernels", "name", "p50_ms"},
    {"dco3d-bench-flow-v2", "runs", "tiers", "total_ms"},
    {"dco3d-bench-search-v2", "kernels", "name", "p50_ms"},
    {"dco3d-bench-ingest-v1", "kernels", "name", "p50_ms"},
};

/// Read the committed rows into `rows`; returns why the baseline is
/// unusable, or "" when every row is well-formed and there is at least one.
std::string baseline_rows(const util::JsonValue& base,
                          const BaselineLayout& layout,
                          std::vector<Entry>& rows) {
  using Kind = util::JsonValue::Kind;
  const util::JsonValue* arr = base.find(layout.array);
  if (!arr || !arr->is(Kind::kArray) || arr->arr.empty())
    return std::string("no '") + layout.array + "' entries";
  for (const util::JsonValue& e : arr->arr) {
    const util::JsonValue* name = e.find(layout.name_key);
    const util::JsonValue* value = e.find(layout.value_key);
    if (!name || !(name->is(Kind::kString) || name->is(Kind::kNumber)) ||
        !value || !value->is(Kind::kNumber))
      return "entry " + std::to_string(rows.size()) + " lacks '" +
             layout.name_key + "'/'" + layout.value_key + "'";
    rows.push_back({name->is(Kind::kString)
                        ? name->str
                        : std::to_string(static_cast<long long>(name->num)),
                    value->num});
  }
  return "";
}

int run_compare(int argc, char** argv) {
  using Kind = util::JsonValue::Kind;
  const char* baseline_path = arg_str(argc, argv, "--baseline", nullptr);
  if (!baseline_path) {
    std::fprintf(stderr, "bench_report compare: --baseline FILE required\n");
    return 2;
  }
  const double threshold = arg_num(argc, argv, "--threshold", 0.15);
  const double scale = arg_num(argc, argv, "--scale", 0.02);
  const int reps = static_cast<int>(arg_num(argc, argv, "--reps", 5));
  const int grid_n = static_cast<int>(arg_num(argc, argv, "--grid", 16));

  const std::string text = read_file(baseline_path);
  if (text.empty()) {
    std::fprintf(stderr, "bench_report compare: cannot read %s\n",
                 baseline_path);
    return 2;
  }
  // Refuse an unusable baseline before measuring anything: a file whose
  // rows are missing would otherwise compare zero rows and pass.
  util::JsonValue base;
  const Status parsed = util::parse_json(text, base);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_report compare: %s: %s\n", baseline_path,
                 parsed.message().c_str());
    return 2;
  }
  const util::JsonValue* schema = base.find("schema");
  const util::JsonValue* threads = base.find("threads");
  if (!schema || !schema->is(Kind::kString) || !threads ||
      !threads->is(Kind::kNumber) || !(threads->num >= 1.0) ||
      threads->num > 1024.0) {
    std::fprintf(stderr,
                 "bench_report compare: %s lacks a 'schema' string or a "
                 "'threads' count in [1, 1024]\n",
                 baseline_path);
    return 2;
  }
  const BaselineLayout* layout = nullptr;
  for (const BaselineLayout& l : kBaselineLayouts)
    if (schema->str == l.schema) layout = &l;
  if (!layout) {
    std::fprintf(stderr,
                 "bench_report compare: unsupported schema '%s' in %s "
                 "(regenerate with this binary)\n",
                 schema->str.c_str(), baseline_path);
    return 2;
  }
  std::vector<Entry> committed;
  if (const std::string err = baseline_rows(base, *layout, committed);
      !err.empty()) {
    std::fprintf(stderr, "bench_report compare: malformed baseline %s: %s\n",
                 baseline_path, err.c_str());
    return 2;
  }

  // Measure at the pool size the baseline was recorded with: at another
  // size the µs-scale rows time pool dispatch, not the kernel.
  util::set_num_threads(static_cast<int>(threads->num));
  std::vector<Entry> fresh;
  if (schema->str == "dco3d-bench-kernels-v2") {
    fresh = measure_kernels(scale, reps).entries;
  } else if (schema->str == "dco3d-bench-flow-v2") {
    const FlowSuite s = measure_flow(scale, grid_n);
    for (const Entry& e : s.totals)
      fresh.push_back({e.name.substr(std::strlen("flow_tiers")), e.p50_ms});
  } else if (schema->str == "dco3d-bench-search-v2") {
    fresh = measure_search(scale, grid_n).totals;
  } else {
    fresh = measure_ingest(scale, grid_n).entries;
  }
  const util::JsonValue* base_simd = base.find("simd");
  if (base_simd && base_simd->is(Kind::kString) &&
      base_simd->str != nn::simd::backend_name())
    std::printf("note: baseline simd=%s, current simd=%s — timings may not "
                "be comparable\n",
                base_simd->str.c_str(), nn::simd::backend_name());

  int regressions = 0;
  std::printf("%-28s %10s %10s %8s\n", "kernel", "base_ms", "fresh_ms",
              "ratio");
  for (const Entry& b : committed) {
    const Entry* match = nullptr;
    for (const Entry& f : fresh)
      if (f.name == b.name) { match = &f; break; }
    if (!match) {
      std::printf("%-28s %10.4f %10s %8s  MISSING\n", b.name.c_str(), b.p50_ms,
                  "-", "-");
      ++regressions;
      continue;
    }
    const double ratio = b.p50_ms > 0.0 ? match->p50_ms / b.p50_ms : 1.0;
    const bool bad = ratio > 1.0 + threshold;
    std::printf("%-28s %10.4f %10.4f %8.3f%s\n", b.name.c_str(), b.p50_ms,
                match->p50_ms, ratio, bad ? "  REGRESSION" : "");
    if (bad) ++regressions;
  }
  if (regressions) {
    std::fprintf(stderr,
                 "bench_report compare: %d kernel(s) regressed >%.0f%% vs %s\n",
                 regressions, threshold * 100.0, baseline_path);
    return 1;
  }
  std::printf("compare: all kernels within %.0f%% of %s\n", threshold * 100.0,
              baseline_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_report <kernels|flow|search|ingest|compare> [-o file] "
                 "[--scale S] [--reps N] [--grid N] "
                 "[--baseline FILE] [--threshold T]\n");
    return 2;
  }
  if (std::strcmp(argv[1], "kernels") == 0) return run_kernels(argc, argv);
  if (std::strcmp(argv[1], "flow") == 0) return run_flow(argc, argv);
  if (std::strcmp(argv[1], "search") == 0) return run_search(argc, argv);
  if (std::strcmp(argv[1], "ingest") == 0) return run_ingest(argc, argv);
  if (std::strcmp(argv[1], "compare") == 0) return run_compare(argc, argv);
  std::fprintf(stderr, "bench_report: unknown mode '%s'\n", argv[1]);
  return 2;
}
