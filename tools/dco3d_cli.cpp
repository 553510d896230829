// dco3d — command-line driver for the library.
//
// Subcommands:
//   generate <design> [--scale S] [-o file]        synthesize a benchmark
//   check <design-file>                            lint structural invariants
//   import <file.v|.aux|.nodes> [-o file] [--force]  ingest an open-format
//        design (structural Verilog subset or Bookshelf; docs/formats.md),
//        lint it, and write the standard design artifact; a Bookshelf .pl
//        sidecar is converted to <out>.place
//   place <design-file> [-o file] [--seed N] [--tiers N] [--congestion-focused]
//   route <design-file> <placement-file> [--grid N] [--pctile P]
//   sta <design-file> <placement-file> [--clock PS] [--paths K] [--hold]
//   train <design-file> [-o ckpt] [--layouts N] [--epochs N] [--grid N]
//        [--tiers N]
//   refine <design-file> <placement-file> [-o file] [--passes N]
//   optimize <design-file> <placement-file> <ckpt> [-o file] [--grid N]
//   flow <design-file> [--dco ckpt] [--clock PS] [--grid N] [--tiers N]
//        [--trace file] [--cache-dir dir] [--resume-from stage] [--stop-after stage]
//   batch [kinds...] [--scale S] [--clock PS] [--grid N] [--tiers N] [--seed N]
//        [--trace file] [--stop-after stage] [--cache-dir dir]
//   search <kind> [--scale S] [--grid N] [--tiers N] [--clock PS] [--seed N]
//        [--rounds N] [--batch B] [--init N] [--candidates N] [--promote F]
//        [--xi X] [--no-cheap] [--search-seed N] [--cache-dir dir]
//        [--trace file] [--deadline S]              multi-fidelity knob search
//   serve [--port N] [--workers N] [--queue N] [--deadline S]
//        [--cache-dir dir] [--cache-budget MB]      resident job server
//   submit <kind> [--port N] [--scale S] [--grid N] [--tiers N] [--clock PS]
//        [--seed N] [--stop-after stage] [--deadline S] [--priority N]
//        [--wait] [--no-cache] [--retries N]        enqueue a job
//        [--type search] [--rounds N] [--batch B] [--init N] [--candidates N]
//        [--promote F] [--no-cheap] [--search-seed N]   search-job knobs
//   status [--port N] [job]                         server / job status
//   cancel <job> [--port N]                         cancel a queued/running job
//   drain [--port N]                                graceful server shutdown
//
// The single-design subcommands are thin wrappers over the stage-graph flow
// engine (src/flow/stage.hpp): each builds a FlowContext and runs a pipeline
// composed from the shared named stages, so design loading, router
// calibration, and guard wiring exist exactly once. `batch` pushes several
// designs through the same pipeline concurrently (docs/flow.md).
//
// Long-running commands (train/optimize/flow) accept run guardrails:
//   --deadline S   wall-clock budget in seconds; on expiry the best result
//                  so far is committed gracefully (exit 0)
//   --strict       escalate guardrail events (NaN recovery, deadline) into
//                  hard failures with distinct exit codes (docs/cli.md)
//
// Global options (any command):
//   --threads N    worker-pool size for the parallel kernels (default: the
//                  DCO3D_THREADS env var, else hardware concurrency). Results
//                  are bit-identical for every N; 1 runs fully serial.
//
// Option parsing: `--opt value` and boolean flags; a value may start with
// '-' when it parses as a number (`--deadline -1`); `--` ends option
// processing so files whose names start with '-' can follow.
//
// serve/submit/status/cancel/drain speak the line-delimited JSON protocol
// of docs/serve.md over loopback TCP; client commands print the raw response
// lines (machine-readable) and map terminal job states to exit codes
// (docs/cli.md): shed/rejected -> 9 (retriable), early-commit -> 7.
//
// Files use the formats in src/io/. Every command is deterministic for a
// given --seed.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dco.hpp"
#include "core/trainer.hpp"
#include "flow/batch.hpp"
#include "flow/cache.hpp"
#include "flow/pin3d.hpp"
#include "flow/server.hpp"
#include "flow/stage.hpp"
#include "io/design_io.hpp"
#include "io/model_io.hpp"
#include "io/netlist_reader.hpp"
#include "netlist/generators.hpp"
#include "netlist/validate.hpp"
#include "nn/simd/simd.hpp"
#include "place/detailed.hpp"
#include "place/legalize.hpp"
#include "search/evaluator.hpp"
#include "search/searcher.hpp"
#include "search/serve_search.hpp"
#include "timing/hold.hpp"
#include "timing/report.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "util/signals.hpp"
#include "util/socket.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

#ifndef DCO3D_GIT_DESCRIBE
#define DCO3D_GIT_DESCRIBE "unknown"
#endif

using namespace dco3d;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const { return options.count(name) > 0; }
  std::string get(const std::string& name, const std::string& dflt) const {
    const auto it = options.find(name);
    return it == options.end() ? dflt : it->second;
  }
  double num(const std::string& name, double dflt) const {
    const auto it = options.find(name);
    return it == options.end() ? dflt : std::atof(it->second.c_str());
  }
};

/// Options that never take a value; everything else is `--opt value` when a
/// value follows. Listing them here keeps `--strict file.design` from eating
/// the positional.
const std::set<std::string>& bool_flags() {
  static const std::set<std::string> kFlags = {
      "--strict", "--hold", "--congestion-focused", "--wait", "--no-cache",
      "--no-cheap"};
  return kFlags;
}

/// The whole string parses as a (possibly signed / fractional / exponent)
/// number — such strings are option values even though they start with '-'.
bool is_number(const char* s) {
  if (!s || !*s) return false;
  char* end = nullptr;
  std::strtod(s, &end);
  return end != s && *end == '\0';
}

Args parse_args(int argc, char** argv, int first) {
  Args a;
  bool options_done = false;
  for (int i = first; i < argc; ++i) {
    const std::string s = argv[i];
    if (!options_done && s == "--") {  // end-of-options terminator
      options_done = true;
      continue;
    }
    if (!options_done && (s.rfind("--", 0) == 0 || s == "-o")) {
      const std::string key = s;
      if (bool_flags().count(key)) {
        a.options[key] = "1";
        continue;
      }
      if (i + 1 < argc &&
          (argv[i + 1][0] != '-' || is_number(argv[i + 1]))) {
        a.options[key] = argv[++i];
      } else {
        a.options[key] = "1";
      }
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

int usage() {
  std::fprintf(stderr,
               "usage: dco3d <generate|check|import|place|route|sta|train|refine|"
               "optimize|flow|batch|search|serve|submit|status|cancel|drain|"
               "--version> ...\n  (see the header of tools/dco3d_cli.cpp)\n");
  return status_exit_code(StatusCode::kInvalidArgument);
}

/// Shared guardrail options of the long-running commands.
void apply_guard_options(const Args& a, double& deadline_ms, GuardConfig& guard) {
  deadline_ms = a.num("--deadline", 0.0) * 1000.0;
  guard.strict = a.flag("--strict");
}

void print_guard_summary(const char* what, const GuardStats& gs) {
  if (gs.clean()) return;
  std::printf("%s guardrails: %d non-finite events (%d steps skipped, "
              "%d LR halvings, %d rollbacks, %d reseeds)%s\n",
              what, gs.nan_events, gs.skipped_steps, gs.lr_halvings,
              gs.rollbacks, gs.reseeds,
              gs.deadline_hit ? ", deadline hit - committed best-so-far" : "");
}

/// --cache-budget MB -> bytes (default 1024 MB; 0 = unbounded). Shared by
/// flow / batch / serve so every cache user gets the same LRU byte budget.
std::uint64_t cache_budget_bytes(const Args& a) {
  return static_cast<std::uint64_t>(a.num("--cache-budget", 1024.0) * 1024.0 *
                                    1024.0);
}

/// --tiers N: number of stacked dies. Anything that is not a plain integer
/// >= 2 is rejected with kInvalidArgument (exit code 2, docs/cli.md).
int parse_tiers(const Args& a) {
  const std::string s = a.get("--tiers", "2");
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < 2)
    throw StatusError(Status::invalid_argument(
        "--tiers must be an integer >= 2 (got '" + s + "')"));
  return static_cast<int>(v);
}

// ---------------------------------------------------------------------------
// Shared load / pipeline glue. Every subcommand that operates on files goes
// through these, so the read/calibrate plumbing exists exactly once.

Netlist load_design(const Args& a, std::size_t index = 0) {
  return read_design_file(a.positional[index]);
}

Placement3D load_placement(const Args& a, const Netlist& design,
                           std::size_t index = 1) {
  return read_placement_file(a.positional[index], design.num_cells());
}

/// Run a pipeline assembled from named standard stages on a prepared context.
void run_stages(FlowContext& ctx, const std::vector<std::string>& names,
                const PipelineOptions& opts = {}) {
  std::vector<Stage> stages;
  stages.reserve(names.size());
  for (const std::string& n : names) stages.push_back(pin3d_stage(n));
  Pipeline(std::move(stages)).run(ctx, opts);
}

// ---------------------------------------------------------------------------
// Subcommands.

int cmd_generate(const Args& a) {
  if (a.positional.empty()) return usage();
  Status kind_err;
  DesignSpec spec = spec_for(parse_serve_kind(a.positional[0], kind_err),
                             a.num("--scale", 0.04));
  if (!kind_err.ok()) throw StatusError(kind_err);
  const Netlist design = generate_design(spec);
  const std::string out = a.get("-o", spec.name + ".design");
  write_design_file(out, design);
  std::printf("wrote %s: %zu cells, %zu nets, %zu IOs\n", out.c_str(),
              design.num_cells(), design.num_nets(), design.num_ios());
  return 0;
}

int cmd_check(const Args& a) {
  if (a.positional.empty()) return usage();
  const Netlist design = load_design(a);
  const LintReport rep = lint_netlist(design);
  std::printf("%s", format_report(rep).c_str());
  return rep.ok() ? 0 : 1;
}

/// import <file> [-o out.design] [--force]: parse an open-format design
/// (extension picks the reader), print the mapping report, lint, freeze, and
/// write the standard artifact. Lint errors abort unless --force is given.
int cmd_import(const Args& a) {
  if (a.positional.empty()) return usage();
  const std::string& in = a.positional[0];
  const bool verilog =
      in.size() >= 2 && in.compare(in.size() - 2, 2, ".v") == 0;

  ImportReport irep;
  Placement3D imported_pl;
  const Netlist design = verilog
                             ? read_verilog_file(in, &irep)
                             : read_bookshelf(in, &irep, &imported_pl);
  std::printf("%s", irep.to_string().c_str());

  const LintReport lint = lint_netlist(design);
  if (!lint.ok()) {
    std::printf("%s", format_report(lint).c_str());
    if (!a.flag("--force")) lint_status(lint).throw_if_error();
    std::printf("continuing despite lint errors (--force)\n");
  }

  std::string stem = in;
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos) stem = stem.substr(0, dot);
  const std::string out = a.get("-o", stem + ".design");
  write_design_file(out, design);
  std::printf("wrote %s: %zu cells, %zu nets, %zu IOs\n", out.c_str(),
              design.num_cells(), design.num_nets(), design.num_ios());
  if (imported_pl.size() == design.num_cells()) {
    const std::string pl_out = out + ".place";
    write_placement_file(pl_out, imported_pl);
    std::printf("wrote %s (fixed placement from .pl)\n", pl_out.c_str());
  }
  return 0;
}

int cmd_place(const Args& a) {
  if (a.positional.empty()) return usage();
  FlowConfig cfg;
  if (a.flag("--congestion-focused"))
    cfg.place_params = PlacementParams::congestion_focused();
  cfg.seed = static_cast<std::uint64_t>(a.num("--seed", 42));
  cfg.num_tiers = parse_tiers(a);
  FlowContext ctx = make_flow_context(load_design(a), cfg);
  // Global placement + row legalization == place_pseudo3d(legalized=true).
  run_stages(ctx, {"place3d", "legalize"});
  const std::string out = a.get("-o", a.positional[0] + ".place");
  write_placement_file(out, ctx.placement);
  std::printf("wrote %s: HPWL %.1f um, cut %zu nets, outline %.2f x %.2f um\n",
              out.c_str(), total_hpwl(ctx.netlist, ctx.placement),
              count_cut_nets(ctx.netlist, ctx.placement),
              ctx.placement.outline.width(), ctx.placement.outline.height());
  return 0;
}

int cmd_route(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const Netlist design = load_design(a);
  const Placement3D pl = load_placement(a, design);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = static_cast<int>(a.num("--grid", 48));
  cfg.router = calibrated_router(design, pl, cfg.grid_nx,
                                 a.num("--pctile", kCalibrationPctile));
  FlowContext ctx = make_flow_context(design, cfg);
  ctx.placement = pl;
  run_stages(ctx, {"route"});
  const RouteResult& r = ctx.route;
  std::printf("capacity: H=%.0f V=%.0f tracks/GCell (auto-calibrated)\n",
              cfg.router.h_capacity, cfg.router.v_capacity);
  std::printf("overflow: total %.0f (H %.0f, V %.0f), %.2f%% of GCells\n",
              r.total_overflow, r.h_overflow, r.v_overflow, r.ovf_gcell_pct);
  std::printf("wirelength: %.1f um, 3D vias: %zu\n", r.wirelength, r.num_3d_vias);
  for (int die = 0; die < r.num_tiers; ++die) {
    std::printf("\ncongestion map, die %d%s:\n%s", die,
                die == 0 ? " (bottom)"
                         : (die == r.num_tiers - 1 ? " (top)" : ""),
                ascii_heatmap(r.congestion[static_cast<std::size_t>(die)],
                              static_cast<std::size_t>(cfg.grid_nx),
                              static_cast<std::size_t>(cfg.grid_ny))
                    .c_str());
  }
  return 0;
}

int cmd_sta(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const Netlist design = load_design(a);
  const Placement3D pl = load_placement(a, design);
  TimingConfig cfg;
  cfg.clock_period_ps = a.num("--clock", 300.0);
  const TimingResult t = run_sta(design, pl, cfg);
  std::printf("clock period: %.0f ps\n", cfg.clock_period_ps);
  std::printf("WNS %.2f ps, TNS %.1f ps over %zu endpoints (%zu violating)\n",
              t.wns_ps, t.tns_ps, t.endpoints, t.violating_endpoints);
  std::printf("power: %.3f mW (switching %.3f + internal %.3f + leakage %.3f)\n",
              t.total_mw, t.switching_mw, t.internal_mw, t.leakage_mw);
  if (a.flag("--hold")) {
    const HoldResult h = run_hold_check(design, pl, cfg);
    std::printf("hold: WHS %.2f ps, THS %.1f ps over %zu endpoints (%zu "
                "violating)\n",
                h.whs_ps, h.ths_ps, h.endpoints, h.violating_endpoints);
  }
  const auto n_paths = static_cast<std::size_t>(a.num("--paths", 0));
  if (n_paths > 0) {
    std::printf("\nworst %zu paths:\n", n_paths);
    for (const TimingPath& p : worst_paths(design, pl, cfg, t, n_paths))
      std::printf("%s\n", format_path(design, p).c_str());
  }
  return 0;
}

int cmd_train(const Args& a) {
  if (a.positional.empty()) return usage();
  const Netlist design = load_design(a);
  const int grid_n = static_cast<int>(a.num("--grid", 48));

  // Calibrate exactly as `flow` does, so the labels (per-tile overflow) come
  // from the capacity model DCO's trial routes and signoff will use.
  FlowConfig flow_cfg;
  flow_cfg.grid_nx = flow_cfg.grid_ny = grid_n;
  flow_cfg.num_tiers = parse_tiers(a);
  DatasetConfig dcfg;
  dcfg.num_tiers = flow_cfg.num_tiers;
  dcfg.layouts = static_cast<int>(a.num("--layouts", 10));
  dcfg.grid_nx = dcfg.grid_ny = grid_n;
  dcfg.net_h = dcfg.net_w = grid_n;
  dcfg.router = calibrated_router(design, flow_cfg,
                                  a.num("--pctile", kCalibrationPctile));
  std::printf("building %d layouts (+%d perturbed each)...\n", dcfg.layouts,
              dcfg.perturbed_per_layout);
  const auto dataset = build_dataset(design, dcfg);

  TrainConfig tcfg;
  tcfg.epochs = static_cast<int>(a.num("--epochs", 8));
  tcfg.unet.base_channels = 8;
  tcfg.unet.depth = 2;
  apply_guard_options(a, tcfg.deadline_ms, tcfg.guard);
  std::printf("training %d epochs on %zu samples...\n", tcfg.epochs,
              dataset.size());
  const Predictor pred = train_predictor(dataset, tcfg);
  if (!pred.curve.empty())
    std::printf("final train/test loss: %.4f / %.4f\n",
                pred.curve.back().train_loss, pred.curve.back().test_loss);
  print_guard_summary("training", pred.guard);

  nn::UNetConfig saved = tcfg.unet;
  saved.in_channels = kNumFeatureChannels;
  saved.out_channels = 1;
  const std::string out = a.get("-o", a.positional[0] + ".ckpt");
  save_predictor_file(out, pred, saved);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_refine(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const Netlist design = load_design(a);
  Placement3D pl = load_placement(a, design);
  DetailedConfig cfg;
  cfg.passes = static_cast<int>(a.num("--passes", 2));
  const DetailedStats s = detailed_place(design, pl, cfg);
  std::printf("detailed placement: %zu slides, %zu swaps, HPWL %.1f -> %.1f um "
              "(%.2f%%)\n",
              s.slides, s.swaps, s.hpwl_before, s.hpwl_after,
              100.0 * (s.hpwl_before - s.hpwl_after) /
                  std::max(s.hpwl_before, 1e-9));
  const std::string out = a.get("-o", a.positional[1] + ".refined");
  write_placement_file(out, pl);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_optimize(const Args& a) {
  if (a.positional.size() < 3) return usage();
  const Netlist design = load_design(a);
  const Placement3D pl = load_placement(a, design);
  const Predictor pred = load_predictor_file(a.positional[2]);

  const int grid_n = static_cast<int>(a.num("--grid", 48));
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = grid_n;
  cfg.router = calibrated_router(design, pl, grid_n,
                                 a.num("--pctile", kCalibrationPctile));
  cfg.timing.clock_period_ps = a.num("--clock", 300.0);
  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = grid_n;
  apply_guard_options(a, dcfg.deadline_ms, dcfg.guard);

  FlowContext ctx = make_flow_context(design, cfg);
  DcoResult r;
  attach_dco(ctx, pred, dcfg, &r);
  ctx.placement = pl;
  run_stages(ctx, {"dco"});
  print_guard_summary("DCO", r.guard);
  std::printf("DCO: %zu gradient iterations, %s (score %.2f -> %.2f), "
              "%zu cells changed tier\n",
              r.trace.size(),
              r.improved ? "improved" : "input placement kept",
              r.initial_score, r.best_loss, r.cells_moved_tier);
  const std::string out = a.get("-o", a.positional[1] + ".dco");
  write_placement_file(out, ctx.placement);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_flow(const Args& a) {
  if (a.positional.empty()) return usage();
  const Netlist design = load_design(a);
  FlowConfig cfg;
  cfg.timing.clock_period_ps = a.num("--clock", 300.0);
  cfg.grid_nx = cfg.grid_ny = static_cast<int>(a.num("--grid", 48));
  cfg.num_tiers = parse_tiers(a);
  cfg.router =
      calibrated_router(design, cfg, a.num("--pctile", kCalibrationPctile));

  FlowContext ctx = make_flow_context(design, cfg);
  ctx.design_name = a.positional[0];
  if (a.flag("--dco")) {
    DcoConfig dcfg;
    dcfg.grid_nx = dcfg.grid_ny = cfg.grid_nx;
    apply_guard_options(a, dcfg.deadline_ms, dcfg.guard);
    attach_dco(ctx, load_predictor_file(a.get("--dco", "")), dcfg);
  }

  PipelineOptions popts;
  popts.resume_from = a.get("--resume-from", "");
  popts.stop_after = a.get("--stop-after", "");
  popts.cache_dir = a.get("--cache-dir", "");
  if (!popts.resume_from.empty() && popts.cache_dir.empty())
    popts.cache_dir = ".dco3d-cache";
  std::unique_ptr<ArtifactCache> cache;
  if (!popts.cache_dir.empty()) {
    // The ArtifactCache sweeps stale *.tmp leftovers and enforces the LRU
    // byte budget; opening it also enables auto-resume bookkeeping.
    cache = std::make_unique<ArtifactCache>(popts.cache_dir,
                                            cache_budget_bytes(a));
    popts.cache = cache.get();
  }
  std::vector<StageTraceEntry> trace;
  if (a.flag("--trace")) popts.trace = &trace;

  const FlowResult r = pin3d_pipeline().run(ctx, popts);
  if (a.flag("--trace")) {
    if (popts.cache)
      trace.push_back(cache_footer_entry(ctx.design_name,
                                         static_cast<int>(trace.size()),
                                         popts.cache->stats()));
    append_trace_file(a.get("--trace", ""), trace);
  }

  std::printf("%-16s %9s %8s %8s %8s %10s %12s %10s %12s\n", "stage",
              "overflow", "ovf%", "H ovf", "V ovf", "wns(ps)", "tns(ps)",
              "power(mW)", "WL(um)");
  // A --stop-after before a metrics stage leaves its block empty; print only
  // stages that were actually measured.
  if (r.after_place.wirelength_um > 0.0)
    std::printf("%s\n", r.after_place.row("after placement").c_str());
  if (r.signoff.wirelength_um > 0.0)
    std::printf("%s\n", r.signoff.row("signoff").c_str());
  return 0;
}

int cmd_batch(const Args& a) {
  std::vector<DesignKind> kinds;
  if (a.positional.empty()) {
    kinds.assign(std::begin(kAllDesigns), std::end(kAllDesigns));
  } else {
    for (const std::string& k : a.positional) {
      Status kind_err;
      kinds.push_back(parse_serve_kind(k, kind_err));
      if (!kind_err.ok()) throw StatusError(kind_err);
    }
  }

  FlowConfig base;
  base.timing.clock_period_ps = a.num("--clock", 300.0);
  base.grid_nx = base.grid_ny = static_cast<int>(a.num("--grid", 48));
  base.num_tiers = parse_tiers(a);
  const auto seed = static_cast<std::uint64_t>(a.num("--seed", 1));
  const double scale = a.num("--scale", 0.04);

  std::printf("batch: %zu designs at scale %.3g on %d threads\n", kinds.size(),
              scale, util::num_threads());
  const std::vector<BatchJob> jobs =
      make_generator_jobs(kinds, scale, base, seed,
                          a.num("--pctile", kCalibrationPctile));

  BatchOptions opts;
  opts.stop_after = a.get("--stop-after", "");
  opts.collect_trace = a.flag("--trace");
  std::unique_ptr<ArtifactCache> cache;
  const std::string cache_dir = a.get("--cache-dir", "");
  if (!cache_dir.empty()) {
    cache = std::make_unique<ArtifactCache>(cache_dir, cache_budget_bytes(a));
    opts.cache = cache.get();
  }
  const std::vector<BatchEntry> entries = run_many(jobs, opts);

  if (a.flag("--trace")) {
    std::vector<StageTraceEntry> merged;
    for (const BatchEntry& e : entries)
      merged.insert(merged.end(), e.trace.begin(), e.trace.end());
    if (opts.cache)
      merged.push_back(cache_footer_entry("batch",
                                          static_cast<int>(merged.size()),
                                          opts.cache->stats()));
    append_trace_file(a.get("--trace", ""), merged);
  }

  std::printf("%s", batch_summary_table(entries).c_str());
  for (const BatchEntry& e : entries)
    if (!e.status.ok()) return status_exit_code(e.status.code());
  return 0;
}

/// Multi-fidelity knob search (docs/search.md): q-EI batched proposals over
/// the Table-I parameter space, screened at cheap fidelity (flow through
/// after-place-metrics) with the top fraction promoted to full signoff
/// flows. The design is set up by build_serve_job, like a served search
/// job, so CLI and serve searches of the same parameters share cache keys.
int cmd_search(const Args& a) {
  if (a.positional.empty()) return usage();
  ServeJobSpec job;
  job.kind = a.positional[0];
  job.scale = a.num("--scale", job.scale);
  job.grid = static_cast<int>(a.num("--grid", job.grid));
  job.tiers = parse_tiers(a);
  job.clock_ps = a.num("--clock", job.clock_ps);
  job.seed = static_cast<std::uint64_t>(a.num("--seed", 1));
  ServeJobSetup setup =
      build_serve_job(job, a.num("--pctile", kCalibrationPctile));

  FlowEvaluatorConfig ec;
  std::unique_ptr<ArtifactCache> cache;
  const std::string cache_dir = a.get("--cache-dir", "");
  if (!cache_dir.empty()) {
    cache = std::make_unique<ArtifactCache>(cache_dir, cache_budget_bytes(a));
    ec.cache = cache.get();
  }
  const Deadline deadline(a.num("--deadline", 0.0) * 1000.0);
  if (!deadline.unlimited()) ec.deadline = &deadline;
  FlowEvaluator evaluator(setup.name, std::move(setup.design), setup.cfg, ec);

  SearchConfig sc;
  sc.rounds = static_cast<int>(a.num("--rounds", 4));
  sc.batch = static_cast<int>(a.num("--batch", 4));
  sc.init_samples = static_cast<int>(a.num("--init", 6));
  sc.candidates = static_cast<int>(a.num("--candidates", 256));
  sc.promote_fraction = a.num("--promote", 0.25);
  sc.xi = a.num("--xi", 0.01);
  sc.cheap_screen = !a.flag("--no-cheap");
  sc.cache = ec.cache;
  if (!deadline.unlimited()) sc.deadline = &deadline;
  sc.on_round = [](const SearchRoundRecord& r) {
    std::printf("round %2d: %d cheap + %d full evals, best %.4f "
                "(round best %.4f), cache %llu hit / %llu miss, %.0f ms\n",
                r.round, r.cheap_evals, r.full_evals, r.best_objective,
                r.round_best, static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses), r.wall_ms);
    std::fflush(stdout);
  };

  std::printf("search %s: %d rounds x batch %d (init %d, pool %d, promote "
              "%.2f, cheap screening %s) on %d threads\n",
              setup.name.c_str(), sc.rounds, sc.batch, sc.init_samples,
              sc.candidates, sc.promote_fraction,
              sc.cheap_screen ? "on" : "off", util::num_threads());

  Rng rng(static_cast<std::uint64_t>(a.num("--search-seed", 1)));
  const SearchResult res = multi_fidelity_search(evaluator, sc, rng);

  if (a.flag("--trace"))
    append_search_trace_file(a.get("--trace", ""), setup.name, res.trace);

  if (res.deadline_hit)
    std::printf("search: deadline hit — committed best-so-far\n");
  if (!std::isfinite(res.best_objective)) {
    std::fprintf(stderr, "search: no usable evaluation completed\n");
    return status_exit_code(res.deadline_hit ? StatusCode::kDeadlineExceeded
                                             : StatusCode::kInternal);
  }
  std::printf("best objective %.4f after %d cheap + %d full evaluations "
              "(%d search rounds)\n",
              res.best_objective, res.cheap_evals, res.full_evals,
              res.rounds_completed);
  std::printf("best params: %s\n", res.best_params.summary().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Serve mode: resident server + thin protocol clients (docs/serve.md).

/// Exit code for a terminal client response: retriable shed/rejected -> 9,
/// deadline early-commit -> 7, cancelled -> 10, protocol errors by status
/// name, success -> 0.
int serve_exit_code(const util::JsonObject& o) {
  const std::string state = util::json_str(o, "state", "");
  if (state == "done" || state == "queued" || state == "running" ||
      state == "cancelling")
    return 0;
  if (state == "early_commit")
    return status_exit_code(StatusCode::kDeadlineExceeded);
  if (state == "cancelled") return status_exit_code(StatusCode::kCancelled);
  if (state == "shed" || state == "rejected")
    return status_exit_code(StatusCode::kUnavailable);
  if (util::json_bool(o, "ok", false)) return 0;
  const std::string st = util::json_str(o, "status", "");
  if (st == "failed" || state == "failed")
    return status_exit_code(StatusCode::kInternal);
  if (st == "invalid_argument")
    return status_exit_code(StatusCode::kInvalidArgument);
  if (st == "not_found") return status_exit_code(StatusCode::kNotFound);
  if (st == "unavailable") return status_exit_code(StatusCode::kUnavailable);
  return status_exit_code(StatusCode::kInternal);
}

int cmd_serve(const Args& a) {
  ServerConfig cfg;
  cfg.port = static_cast<int>(a.num("--port", kDefaultServePort));
  cfg.workers = static_cast<int>(a.num("--workers", 2));
  cfg.queue_depth = static_cast<std::size_t>(a.num("--queue", 8));
  cfg.default_deadline_ms = a.num("--deadline", 0.0) * 1000.0;
  cfg.cache_dir = a.get("--cache-dir", ".dco3d-serve-cache");
  if (a.flag("--no-cache")) cfg.cache_dir.clear();
  cfg.cache_budget_bytes = cache_budget_bytes(a);
  // Beyond the built-in "flow" jobs: the multi-fidelity knob search
  // (docs/search.md) runs as a first-class job type.
  cfg.runners["search"] = make_search_job_runner();

  Server server(cfg);
  server.start();
  std::printf("dco3d serve: listening on 127.0.0.1:%d (%d workers, queue %zu"
              "%s)\n",
              server.port(), cfg.workers, cfg.queue_depth,
              cfg.cache_dir.empty() ? ", no cache" : "");
  std::fflush(stdout);

  // SIGINT/SIGTERM arrive on the self-pipe; the watcher turns the first one
  // into a graceful drain (in-flight jobs finish or early-commit, queued
  // jobs are rejected with a retriable status).
  const int sigfd = util::install_shutdown_pipe();
  std::thread watcher([&server, sigfd] {
    pollfd p{sigfd, POLLIN, 0};
    while (!server.stopped()) {
      const int r = ::poll(&p, 1, 200);
      if (r > 0 && (p.revents & POLLIN) != 0) {
        char b;
        (void)!::read(sigfd, &b, 1);
        std::fprintf(stderr, "dco3d serve: shutdown signal — draining\n");
        server.request_drain();
        break;
      }
    }
  });
  server.wait();
  watcher.join();

  const ServerCounters c = server.counters();
  std::printf("dco3d serve: drained — %llu submitted, %llu completed, "
              "%llu early-commit, %llu failed, %llu shed, %llu cancelled, "
              "%llu rejected\n",
              static_cast<unsigned long long>(c.submitted),
              static_cast<unsigned long long>(c.completed),
              static_cast<unsigned long long>(c.early_commits),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.cancelled),
              static_cast<unsigned long long>(c.rejected));
  return 0;
}

int cmd_submit(const Args& a) {
  if (a.positional.empty()) return usage();
  const bool wait = a.flag("--wait");
  util::JsonWriter w;
  w.field("cmd", "submit")
      .field("kind", a.positional[0])
      .field("scale", a.num("--scale", 0.02))
      .field("grid", static_cast<int>(a.num("--grid", 16)))
      .field("tiers", parse_tiers(a))
      .field("clock_ps", a.num("--clock", 250.0))
      .field("seed", static_cast<std::int64_t>(a.num("--seed", 1)));
  const std::string type = a.get("--type", "flow");
  if (type != "flow") w.field("type", type);
  // Search-job knobs (type "search"; server-side defaults when omitted).
  if (a.flag("--rounds"))
    w.field("rounds", static_cast<int>(a.num("--rounds", 4)));
  if (a.flag("--batch"))
    w.field("batch", static_cast<int>(a.num("--batch", 4)));
  if (a.flag("--init"))
    w.field("init", static_cast<int>(a.num("--init", 6)));
  if (a.flag("--candidates"))
    w.field("candidates", static_cast<int>(a.num("--candidates", 256)));
  if (a.flag("--promote")) w.field("promote", a.num("--promote", 0.25));
  if (a.flag("--xi")) w.field("xi", a.num("--xi", 0.01));
  if (a.flag("--no-cheap")) w.field("cheap", false);
  if (a.flag("--search-seed"))
    w.field("search_seed", static_cast<std::int64_t>(a.num("--search-seed", 1)));
  if (a.flag("--stop-after")) w.field("stop_after", a.get("--stop-after", ""));
  if (a.flag("--deadline"))
    w.field("deadline_ms", a.num("--deadline", 0.0) * 1000.0);
  if (a.flag("--priority"))
    w.field("priority", static_cast<int>(a.num("--priority", 0)));
  if (a.flag("--no-cache")) w.field("cache", false);
  if (wait) w.field("wait", true);
  const std::string request = w.done();

  // A shed response means the queue was full right now — an explicitly
  // retriable condition. Honor the server's retry_after_ms backoff hint
  // (bounded to keep the client snappy) up to --retries resubmissions; each
  // attempt uses a fresh connection. Exhausted retries exit 9 (retriable).
  const int retries = std::max(0, static_cast<int>(a.num("--retries", 3)));
  const int port = static_cast<int>(a.num("--port", kDefaultServePort));
  for (int attempt = 0;; ++attempt) {
    util::Fd conn = util::connect_local(port);
    if (!util::send_line(conn.get(), request))
      return status_exit_code(StatusCode::kIoError);
    util::LineReader reader(conn.get());
    std::string line;
    int code = status_exit_code(StatusCode::kIoError);  // no response at all
    bool shed = false;
    double retry_after_ms = 0.0;
    while (reader.read_line(line)) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
      util::JsonValue v;
      if (!util::parse_json(line, v).ok() ||
          !v.is(util::JsonValue::Kind::kObject))
        continue;
      const util::JsonObject& o = v.obj;
      const std::string event = util::json_str(o, "event", "");
      if (event == "stage" || event == "eval" || event == "round")
        continue;  // progress stream
      code = serve_exit_code(o);
      shed = util::json_str(o, "state", "") == "shed";
      retry_after_ms = util::json_num(o, "retry_after_ms", 0.0);
      const bool terminal =
          event == "done" || !util::json_bool(o, "ok", false);
      if (!wait || terminal) break;
    }
    if (!shed || attempt >= retries) return code;
    const double sleep_ms = std::min(std::max(retry_after_ms, 50.0), 2000.0);
    std::fprintf(stderr, "dco3d submit: shed — retrying (%d/%d) in %.0f ms\n",
                 attempt + 1, retries, sleep_ms);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
}

/// One-shot request/response client shared by status/cancel/drain.
int serve_rpc(const Args& a, const std::string& request) {
  util::Fd conn =
      util::connect_local(static_cast<int>(a.num("--port", kDefaultServePort)));
  if (!util::send_line(conn.get(), request))
    return status_exit_code(StatusCode::kIoError);
  util::LineReader reader(conn.get());
  std::string line;
  if (!reader.read_line(line)) return status_exit_code(StatusCode::kIoError);
  std::printf("%s\n", line.c_str());
  util::JsonObject o;
  if (!util::parse_json_object(line, o).ok())
    return status_exit_code(StatusCode::kInternal);
  return serve_exit_code(o);
}

int cmd_status(const Args& a) {
  util::JsonWriter w;
  w.field("cmd", "status");
  if (!a.positional.empty()) w.field("job", a.positional[0]);
  return serve_rpc(a, w.done());
}

int cmd_cancel(const Args& a) {
  if (a.positional.empty()) return usage();
  return serve_rpc(
      a, util::JsonWriter().field("cmd", "cancel").field("job", a.positional[0]).done());
}

int cmd_drain(const Args& a) {
  return serve_rpc(a, util::JsonWriter().field("cmd", "drain").done());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // Guardrail events (NaN recovery, deadline hits) narrate to stderr.
  log_level() = LogLevel::kWarn;
  const std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") {
    std::printf("dco3d %s (simd=%s, host_isa=%s)\n", DCO3D_GIT_DESCRIBE,
                nn::simd::backend_name(), nn::simd::host_isa());
    return 0;
  }
  const Args args = parse_args(argc, argv, 2);
  if (args.flag("--threads"))
    util::set_num_threads(static_cast<int>(args.num("--threads", 0)));
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "import") return cmd_import(args);
    if (cmd == "place") return cmd_place(args);
    if (cmd == "route") return cmd_route(args);
    if (cmd == "sta") return cmd_sta(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "refine") return cmd_refine(args);
    if (cmd == "optimize") return cmd_optimize(args);
    if (cmd == "flow") return cmd_flow(args);
    if (cmd == "batch") return cmd_batch(args);
    if (cmd == "search") return cmd_search(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "submit") return cmd_submit(args);
    if (cmd == "status") return cmd_status(args);
    if (cmd == "cancel") return cmd_cancel(args);
    if (cmd == "drain") return cmd_drain(args);
  } catch (const StatusError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return status_exit_code(e.status().code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return status_exit_code(StatusCode::kInternal);
  }
  return usage();
}
