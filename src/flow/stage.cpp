#include "flow/stage.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <thread>

#include "core/dco.hpp"
#include "flow/artifact.hpp"
#include "flow/cache.hpp"
#include "io/design_io.hpp"
#include "place/legalize.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace dco3d {

namespace {

/// Lazily build the GCell grid from the current placement outline. The dco
/// stage does this in the full flow; standalone pipelines (route-only) hit
/// it on their first grid consumer.
void ensure_grid(FlowContext& c) {
  if (c.grid_valid) return;
  c.res.grid = GCellGrid(c.placement.outline, c.cfg.grid_nx, c.cfg.grid_ny);
  c.grid_valid = true;
}

/// Zero-mean skew normalization over sequential cells (macros track the
/// shift too) — preserves the ideal-clock period so only relative insertion
/// delays remain. Exact transcription of the pre-refactor monolith.
void normalize_skew(const Netlist& netlist, std::vector<double>& skew) {
  if (skew.empty()) return;
  double mean = 0.0;
  std::size_t n = 0;
  for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci) {
    if (netlist.is_sequential(static_cast<CellId>(ci))) {
      mean += skew[ci];
      ++n;
    }
  }
  if (n > 0) {
    mean /= static_cast<double>(n);
    for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci)
      if (netlist.is_sequential(static_cast<CellId>(ci)) ||
          netlist.is_macro(static_cast<CellId>(ci)))
        skew[ci] -= mean;
  }
}

void publish_metrics(FlowContext& c, const StageMetrics& m) {
  c.publish("overflow", m.overflow);
  c.publish("ovf_gcell_pct", m.ovf_gcell_pct);
  c.publish("wns_ps", m.wns_ps);
  c.publish("tns_ps", m.tns_ps);
  c.publish("power_mw", m.power_mw);
  c.publish("wirelength_um", m.wirelength_um);
}

// ---------------------------------------------------------------------------
// Cache-key serialization. One helper per configuration group; the stage key
// domains and the DCO hook's tag reuse them so a knob can never be
// serialized two different ways.

std::ostringstream key_stream() {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  return os;
}

std::string params_key(const PlacementParams& p) {
  auto os = key_stream();
  os << "|params";
  for (double v : p.encode()) os << ' ' << v;
  return os.str();
}

std::string timing_key(const FlowContext& c) {
  const TimingConfig& t = c.cfg.timing;
  auto os = key_stream();
  os << "|timing " << t.clock_period_ps << ' ' << t.wire_cap_per_um << ' '
     << t.wire_res_per_um << ' ' << t.via_delay_ps << ' ' << t.via_cap_ff
     << ' ' << t.setup_ps << ' ' << t.clk_to_q_ps << ' ' << t.base_slew_ps
     << ' ' << t.slew_impact << ' ' << t.activity << ' ' << t.vdd;
  return os.str();
}

std::string router_key(const RouterConfig& r) {
  auto os = key_stream();
  os << "|router " << r.h_capacity << ' ' << r.v_capacity << ' '
     << r.macro_capacity_factor << ' ' << r.rrr_rounds << ' '
     << r.history_increment << ' ' << r.present_penalty << ' '
     << r.maze_margin;
  return os.str();
}

std::string cts_key(const FlowContext& c) {
  const CtsConfig& ct = c.cfg.cts;
  auto os = key_stream();
  os << "|cts " << ct.max_sinks_per_leaf << ' ' << ct.buffer_delay_ps << ' '
     << ct.wire_delay_per_um << ' ' << ct.buffer_drive;
  return os.str();
}

std::string signoff_key(const FlowContext& c) {
  const SignoffConfig& so = c.cfg.signoff;
  auto os = key_stream();
  os << "|signoff " << so.max_iterations << ' ' << so.upsize_slack_threshold_ps
     << ' ' << so.downsize_slack_margin_ps << ' '
     << so.enable_low_power_recovery << ' ' << so.enable_useful_skew << ' '
     << so.useful_skew_budget_ps << ' ' << so.detour_overflow_penalty;
  return os.str();
}

std::string grid_key(const FlowContext& c) {
  auto os = key_stream();
  os << "|grid " << c.cfg.grid_nx << ' ' << c.cfg.grid_ny;
  return os.str();
}

std::string opt_key(const FlowContext& c) {
  return "|opt " + c.optimizer_tag;
}

std::string params_key(const FlowContext& c) {
  return params_key(c.cfg.place_params);
}

std::string router_key(const FlowContext& c) {
  return router_key(c.cfg.router);
}

/// Every DcoConfig field, the nested spreader/guard/router/legalization
/// configs included.
std::string dco_key(const DcoConfig& d) {
  const SpreaderConfig& sp = d.spreader;
  const GuardConfig& g = d.guard;
  auto os = key_stream();
  os << "|dco " << d.max_iter << ' ' << d.lr << ' ' << d.alpha_disp << ' '
     << d.beta_ovlp << ' ' << d.gamma_cut << ' ' << d.delta_cong << ' '
     << sp.hidden << ' ' << sp.max_disp_frac << ' ' << sp.freeze_tier << ' '
     << d.grid_nx << ' ' << d.grid_ny << ' ' << d.overlap_target_util << ' '
     << d.overlap_bins << ' ' << d.epsilon_thermal << ' ' << d.convergence_eps
     << ' ' << d.patience << ' ' << d.eval_every << ' ' << d.restarts << ' '
     << d.select_by_route << ' ' << d.seed << ' ' << d.deadline_ms << ' '
     << static_cast<int>(g.nan_policy) << ' ' << g.max_lr_halvings << ' '
     << g.max_reseeds << ' ' << g.strict;
  return os.str() + router_key(d.router) + params_key(d.legalize_params);
}

/// Content hash of a predictor: architecture, label and feature scales, then
/// every parameter tensor's shape and raw bits (bit-exact through a
/// checkpoint save/load round trip).
std::uint64_t predictor_hash(const Predictor& pred) {
  if (!pred.model)
    throw StatusError(
        Status::invalid_argument("attach_dco: predictor has no model"));
  const nn::UNetConfig& u = pred.model->config();
  auto os = key_stream();
  os << "|predictor " << u.in_channels << ' ' << u.out_channels << ' '
     << u.base_channels << ' ' << u.depth << ' ' << u.communication << ' '
     << pred.label_scale << " |";
  for (float v : pred.feature_scale.data()) os << ' ' << v;
  std::uint64_t h = fnv1a64(os.str());
  for (const nn::Var& p : pred.model->parameters()) {
    const nn::Tensor& t = p->value;
    const std::span<const float> w = t.data();
    h = fnv1a64(nn::shape_str(t.shape()), h);
    h = fnv1a64(std::string(reinterpret_cast<const char*>(w.data()),
                            w.size_bytes()),
                h);
  }
  return h;
}

std::string hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<Stage> make_pin3d_stages() {
  std::vector<Stage> s;

  s.emplace_back("place3d", [](FlowContext& c) {
    if (c.cfg.num_tiers < 2)
      throw StatusError(Status::invalid_argument(
          "num_tiers must be >= 2 (got " + std::to_string(c.cfg.num_tiers) +
          ")"));
    // Un-legalized global placement: the DCO hook operates pre-legalization.
    c.placement = place_pseudo3d(c.netlist, c.cfg.place_params, c.cfg.seed,
                                 false, c.cfg.num_tiers);
    c.publish("cells", static_cast<double>(c.netlist.num_cells()));
    c.publish("nets", static_cast<double>(c.netlist.num_nets()));
    c.publish("tiers", static_cast<double>(c.placement.num_tiers));
  }, [](const FlowContext& c) { return params_key(c); });

  s.emplace_back("dco", [](FlowContext& c) {
    if (c.optimizer) c.optimizer(c.netlist, c.placement);
    ensure_grid(c);
    c.res.global_placement = c.placement;
    c.publish("hook_present", c.optimizer ? 1.0 : 0.0);
  }, [](const FlowContext& c) {
    // A DCO hook reads the router (trial routes) and timing configs too.
    return opt_key(c) + grid_key(c) + router_key(c) + timing_key(c);
  });

  s.emplace_back("after-place-metrics", [](FlowContext& c) {
    // "after 3D placement optimization" view: legalize a copy and evaluate;
    // the flow itself continues from the global placement through CTS.
    ensure_grid(c);
    Placement3D legal = c.placement;
    legalize_all(c.netlist, legal, c.cfg.place_params);
    c.res.after_place = measure_stage(c.netlist, legal, c.res.grid,
                                      c.cfg.timing, c.cfg.router);
    publish_metrics(c, c.res.after_place);
  }, [](const FlowContext& c) {
    return params_key(c) + timing_key(c) + router_key(c) + grid_key(c);
  });

  s.emplace_back("cts", [](FlowContext& c) {
    c.res.cts = run_cts(c.netlist, c.placement, c.cfg.cts);
    c.skew = c.res.cts.skew_ps;
    normalize_skew(c.netlist, c.skew);
    c.publish("buffers_inserted",
              static_cast<double>(c.res.cts.buffers_inserted));
    c.publish("levels", static_cast<double>(c.res.cts.levels));
    c.publish("max_skew_ps", c.res.cts.max_skew_ps);
  }, cts_key);

  s.emplace_back("legalize", [](FlowContext& c) {
    legalize_all(c.netlist, c.placement, c.cfg.place_params);
  }, [](const FlowContext& c) { return params_key(c); });

  s.emplace_back("route", [](FlowContext& c) {
    ensure_grid(c);
    c.route = global_route(c.netlist, c.placement, c.res.grid, c.cfg.router);
    c.route_valid = true;
    c.publish("overflow", c.route.total_overflow);
    c.publish("ovf_gcell_pct", c.route.ovf_gcell_pct);
    c.publish("wirelength_um", c.route.wirelength);
    c.publish("num_3d_vias", static_cast<double>(c.route.num_3d_vias));
    // Per-tier / per-boundary breakdown for N-tier stacks. Keys are indexed
    // so the StageTrace schema stays flat: ovf_tier<t> is the overflow on
    // die t, vias_b<b> the via stacks crossing boundary b (between tiers b
    // and b+1), cut_b<b> the net cut count at that boundary.
    c.publish("tiers", static_cast<double>(c.route.num_tiers));
    for (int t = 0; t < c.route.num_tiers; ++t)
      c.publish("ovf_tier" + std::to_string(t),
                static_cast<std::size_t>(t) < c.route.tier_overflow.size()
                    ? c.route.tier_overflow[static_cast<std::size_t>(t)]
                    : 0.0);
    const std::vector<std::size_t> cuts =
        count_tier_pair_cuts(c.netlist, c.placement);
    for (int b = 0; b + 1 < c.route.num_tiers; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      c.publish("vias_b" + std::to_string(b),
                bi < c.route.vias_per_boundary.size()
                    ? static_cast<double>(c.route.vias_per_boundary[bi])
                    : 0.0);
      c.publish("cut_b" + std::to_string(b),
                bi < cuts.size() ? static_cast<double>(cuts[bi]) : 0.0);
    }
  }, [](const FlowContext& c) { return router_key(c) + grid_key(c); });

  s.emplace_back("signoff", [](FlowContext& c) {
    if (!c.route_valid)
      throw StatusError(Status::invalid_argument(
          "signoff stage requires the route stage's result"));
    SignoffConfig so = c.cfg.signoff;
    so.enable_useful_skew =
        so.enable_useful_skew || c.cfg.place_params.enable_ccd;
    so.enable_low_power_recovery = so.enable_low_power_recovery ||
                                   c.cfg.place_params.low_power_placement;
    c.res.signoff_detail = run_signoff(c.netlist, c.placement, c.route,
                                       c.cfg.timing, c.skew, so);
    c.publish("upsized", static_cast<double>(c.res.signoff_detail.upsized));
    c.publish("downsized",
              static_cast<double>(c.res.signoff_detail.downsized));
    c.publish("skewed", static_cast<double>(c.res.signoff_detail.skewed));
    c.publish("wns_ps", c.res.signoff_detail.timing.wns_ps);
    c.publish("tns_ps", c.res.signoff_detail.timing.tns_ps);
  }, [](const FlowContext& c) {
    // place_params matters here too: the enable_ccd / low_power_placement
    // flags fold into the effective SignoffConfig above.
    return signoff_key(c) + timing_key(c) + params_key(c);
  });

  s.emplace_back("final-metrics", [](FlowContext& c) {
    // Final view: the route stage's result stands (signoff only resizes
    // cells, which moves no pin and no macro, so routing again would
    // reproduce it); re-time with the final skew and the route's detours.
    if (!c.route_valid)
      throw StatusError(Status::invalid_argument(
          "final-metrics stage requires the route stage's result"));
    ensure_grid(c);
    c.res.final_route = c.route;
    c.res.signoff = measure_stage(c.netlist, c.placement, c.res.final_route,
                                  c.cfg.timing, &c.skew);
    c.res.placement = c.placement;
    publish_metrics(c, c.res.signoff);
  }, [](const FlowContext& c) {
    return timing_key(c) + router_key(c) + grid_key(c);
  });

  return s;
}

}  // namespace

int Pipeline::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < stages_.size(); ++i)
    if (stages_[i].name() == name) return static_cast<int>(i);
  return -1;
}

std::string Pipeline::stage_names() const {
  std::string out;
  for (const Stage& s : stages_) {
    if (!out.empty()) out += ", ";
    out += s.name();
  }
  return out;
}

FlowResult Pipeline::run(FlowContext& ctx, const PipelineOptions& opts) const {
  if (stages_.empty())
    throw StatusError(Status::invalid_argument("pipeline has no stages"));
  if (!opts.resume_from.empty() && !opts.start_at.empty())
    throw StatusError(Status::invalid_argument(
        "resume_from and start_at are mutually exclusive"));

  const auto require_stage = [&](const std::string& name) {
    const int i = index_of(name);
    if (i < 0)
      throw StatusError(Status::invalid_argument(
          "unknown stage '" + name + "' (stages: " + stage_names() + ")"));
    return i;
  };

  // A shared ArtifactCache supplies the directory when the caller didn't.
  const std::string cache_dir =
      !opts.cache_dir.empty() ? opts.cache_dir
      : opts.cache            ? opts.cache->dir()
                              : std::string();

  int start = 0;
  int stop = static_cast<int>(stages_.size()) - 1;
  if (!opts.stop_after.empty()) stop = require_stage(opts.stop_after);
  if (!opts.start_at.empty()) start = require_stage(opts.start_at);

  // Per-stage rolling prefix keys: stage i's artifact is addressed by the
  // configuration surface stages 0..i actually read, so evaluations that
  // share a flow prefix (same placement knobs, different CTS/route knobs)
  // replay the shared stages from the cache. Computed once, up front — the
  // keys must reflect the pristine design, not a netlist some stage mutated.
  const std::vector<std::string> keys =
      cache_dir.empty() ? std::vector<std::string>()
                        : flow_stage_keys(ctx, *this);
  if (!opts.resume_from.empty()) {
    start = require_stage(opts.resume_from);
    if (start > 0) {
      if (cache_dir.empty())
        throw StatusError(Status::invalid_argument(
            "resume_from requires an artifact cache directory"));
      const std::string prev = stages_[static_cast<std::size_t>(start - 1)].name();
      const std::string rel =
          keys[static_cast<std::size_t>(start - 1)] + "/" + prev;
      if (!load_flow_artifact(cache_dir + "/" + rel, ctx))
        throw StatusError(Status::not_found(
            "no cached artifact for stage '" + prev + "' at " + cache_dir +
            "/" + rel + " (run the flow with the same cache directory first)"));
      if (opts.cache) opts.cache->on_loaded(rel);
    }
  }
  if (start > stop)
    throw StatusError(Status::invalid_argument(
        "start stage '" + stages_[static_cast<std::size_t>(start)].name() +
        "' comes after stop stage '" +
        stages_[static_cast<std::size_t>(stop)].name() + "'"));

  // Auto-resume (idempotent resubmission): probe for the deepest cached
  // artifact of this content key and continue right after it. A corrupt
  // artifact is deleted and probing continues shallower — a damaged cache
  // must never take the job (or the server) down.
  if (opts.auto_resume && !cache_dir.empty() && opts.resume_from.empty() &&
      opts.start_at.empty()) {
    for (int i = stop; i >= 0; --i) {
      const std::string rel = keys[static_cast<std::size_t>(i)] + "/" +
                              stages_[static_cast<std::size_t>(i)].name();
      bool loaded = false;
      try {
        loaded = load_flow_artifact(cache_dir + "/" + rel, ctx);
      } catch (const StatusError&) {
        std::error_code ec;
        std::filesystem::remove_all(cache_dir + "/" + rel, ec);
      }
      if (loaded) {
        if (opts.cache) opts.cache->on_loaded(rel);
        start = i + 1;  // may be stop+1: everything below was cached
        break;
      }
    }
  }

  const bool collect = opts.trace != nullptr || opts.on_trace != nullptr;
  const auto emit = [&](StageTraceEntry e) {
    if (opts.on_trace) opts.on_trace(e);
    if (opts.trace) opts.trace->push_back(std::move(e));
  };

  // Trace entries for stages satisfied from the cache (resume skipped them).
  if (collect) {
    for (int i = 0; i < start; ++i) {
      StageTraceEntry e;
      e.design = ctx.design_name;
      e.stage = stages_[static_cast<std::size_t>(i)].name();
      e.index = i;
      e.cached = true;
      e.threads = util::num_threads();
      emit(std::move(e));
    }
  }

  if (opts.info) {
    opts.info->first_stage = start;
    opts.info->stages_cached = start;
    opts.info->last_stage = start - 1;
  }

  for (int i = start; i <= stop; ++i) {
    // Per-job guards: a wall-clock deadline or a cooperative cancel stops
    // the run at a stage boundary and early-commits the results so far
    // instead of throwing — partial progress is a valid product.
    if (opts.deadline && opts.deadline->expired()) {
      if (opts.info) opts.info->deadline_hit = true;
      break;
    }
    if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
      if (opts.info) opts.info->cancelled = true;
      break;
    }

    const Stage& stage = stages_[static_cast<std::size_t>(i)];

    // Deterministic fault injection for the overload/recovery tests: a
    // stall models a slow stage (deadline pressure), a fail models a
    // diverged/broken stage that must stay isolated to its job.
    FaultInjector& fi = FaultInjector::instance();
    if (fi.should_fire(FaultSite::kFlowStageStall))
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          fi.param(FaultSite::kFlowStageStall)));
    if (fi.should_fire(FaultSite::kFlowStageFail))
      throw StatusError(Status::internal("injected failure in stage '" +
                                         stage.name() + "'"));

    ctx.stage_metrics.clear();
    const util::ArenaStats arena0 = util::Arena::instance().stats();
    const util::PoolStats pool0 = util::pool_stats();
    const auto t0 = std::chrono::steady_clock::now();

    stage.run(ctx);

    if (opts.info) {
      opts.info->last_stage = i;
      opts.info->stages_run++;
    }

    if (collect) {
      const auto t1 = std::chrono::steady_clock::now();
      const util::ArenaStats arena1 = util::Arena::instance().stats();
      const util::PoolStats pool1 = util::pool_stats();
      StageTraceEntry e;
      e.design = ctx.design_name;
      e.stage = stage.name();
      e.index = i;
      e.cached = false;
      e.wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      e.threads = util::num_threads();
      e.arena.requests = arena1.requests - arena0.requests;
      e.arena.pool_hits = arena1.pool_hits - arena0.pool_hits;
      e.arena.heap_allocs = arena1.heap_allocs - arena0.heap_allocs;
      e.arena.live_bytes = arena1.live_bytes;
      e.arena.peak_bytes = arena1.peak_bytes;
      e.arena.pooled_bytes = arena1.pooled_bytes;
      e.pool.dispatches = pool1.dispatches - pool0.dispatches;
      e.pool.inline_runs = pool1.inline_runs - pool0.inline_runs;
      e.pool.chunks = pool1.chunks - pool0.chunks;
      e.metrics = ctx.stage_metrics;
      emit(std::move(e));
    }

    if (!cache_dir.empty()) {
      const std::string rel =
          keys[static_cast<std::size_t>(i)] + "/" + stage.name();
      save_flow_artifact(cache_dir + "/" + rel, ctx);
      if (opts.cache) {
        // The stage body ran with caching active, i.e. its artifact was not
        // available — a cache miss, the counterpart of on_loaded above.
        opts.cache->on_miss();
        opts.cache->on_saved(rel);
      }
    }
  }
  return ctx.res;
}

const Pipeline& pin3d_pipeline() {
  static const Pipeline pipeline(make_pin3d_stages());
  return pipeline;
}

const Stage& pin3d_stage(const std::string& name) {
  const Pipeline& p = pin3d_pipeline();
  const int i = p.index_of(name);
  if (i < 0)
    throw StatusError(Status::invalid_argument(
        "unknown stage '" + name + "' (stages: " + p.stage_names() + ")"));
  return p.stages()[static_cast<std::size_t>(i)];
}

FlowContext make_flow_context(const Netlist& design, const FlowConfig& cfg,
                              PlacementOptimizer optimizer) {
  FlowContext ctx;
  ctx.cfg = cfg;
  ctx.optimizer = std::move(optimizer);
  ctx.netlist = design;  // private working copy; cts/signoff mutate it
  return ctx;
}

std::vector<std::string> flow_stage_keys(const FlowContext& ctx,
                                         const Pipeline& pipeline,
                                         int body_version) {
  // Base: everything every stage implicitly depends on — the stage-body
  // version, the design itself, the placement seed and the stack height.
  // Stage key domains then fold in the configuration surface each stage
  // newly reads, forming a rolling hash chain:
  // keys[i] = H(stage_i domain, keys[i-1]).
  auto os = key_stream();
  os << "|version " << body_version << '|';
  write_design(os, ctx.netlist);
  os << "|tiers " << ctx.cfg.num_tiers << "|seed " << ctx.cfg.seed;
  std::uint64_t h = fnv1a64(os.str());

  std::vector<std::string> keys;
  keys.reserve(pipeline.stages().size());
  for (const Stage& s : pipeline.stages()) {
    h = fnv1a64(s.name() + s.key_domain()(ctx), h);
    keys.push_back(hex16(h));
  }
  return keys;
}

void attach_dco(FlowContext& ctx, const Predictor& pred, DcoConfig dco,
                DcoResult* out) {
  dco.router = ctx.cfg.router;
  dco.legalize_params = ctx.cfg.place_params;
  ctx.optimizer_tag =
      "dco:" + hex16(fnv1a64(dco_key(dco), predictor_hash(pred)));
  ctx.optimizer = [pred, dco, timing = ctx.cfg.timing, out](
                      const Netlist& nl, Placement3D& pl) {
    DcoResult r = run_dco(nl, pl, pred, timing, dco);
    pl = r.placement;
    if (out) *out = std::move(r);
  };
}

RouterConfig calibrated_router(const Netlist& design, const Placement3D& ref,
                               int grid_n, double pctile) {
  const GCellGrid grid(ref.outline, grid_n, grid_n);
  return calibrate_capacity(design, ref, grid, {}, pctile);
}

RouterConfig calibrated_router(const Netlist& design, const FlowConfig& cfg,
                               double pctile) {
  const Placement3D ref = place_pseudo3d(design, cfg.place_params, cfg.seed,
                                         /*legalized=*/true, cfg.num_tiers);
  return calibrated_router(design, ref, cfg.grid_nx, pctile);
}

}  // namespace dco3d
