// Stage-graph flow engine tests: the staged pipeline must be bit-identical
// to the pre-refactor monolithic run_pin3d_flow, resume from cached
// artifacts must reproduce the full run exactly, and the pipeline's
// stop/resume/trace controls must behave as documented (docs/flow.md).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <vector>

#include "core/dco.hpp"
#include "flow/artifact.hpp"
#include "flow/pin3d.hpp"
#include "flow/signoff.hpp"
#include "flow/stage.hpp"
#include "io/model_io.hpp"
#include "netlist/generators.hpp"
#include "place/placer3d.hpp"
#include "place/legalize.hpp"
#include "route/router.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace dco3d {
namespace {

/// Verbatim transcription of the monolithic run_pin3d_flow this PR replaced
/// (git history: src/flow/pin3d.cpp before the stage-graph refactor), built
/// from the same public API. The staged pipeline must match it bit-for-bit.
FlowResult reference_flow(const Netlist& design, const FlowConfig& cfg,
                          const PlacementOptimizer& optimizer = nullptr) {
  Netlist netlist = design;
  Placement3D placement =
      place_pseudo3d(netlist, cfg.place_params, cfg.seed, /*legalized=*/false);
  if (optimizer) optimizer(netlist, placement);

  FlowResult res;
  res.grid = GCellGrid(placement.outline, cfg.grid_nx, cfg.grid_ny);
  res.global_placement = placement;
  {
    Placement3D legal = placement;
    legalize_all(netlist, legal, cfg.place_params);
    res.after_place =
        measure_stage(netlist, legal, res.grid, cfg.timing, cfg.router);
  }

  res.cts = run_cts(netlist, placement, cfg.cts);
  std::vector<double> skew = res.cts.skew_ps;
  if (!skew.empty()) {
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

  legalize_all(netlist, placement, cfg.place_params);
  RouteResult route = global_route(netlist, placement, res.grid, cfg.router);

  SignoffConfig so = cfg.signoff;
  so.enable_useful_skew = so.enable_useful_skew || cfg.place_params.enable_ccd;
  so.enable_low_power_recovery =
      so.enable_low_power_recovery || cfg.place_params.low_power_placement;
  res.signoff_detail =
      run_signoff(netlist, placement, route, cfg.timing, skew, so);

  res.signoff = measure_stage(netlist, placement, res.grid, cfg.timing,
                              cfg.router, &skew, &res.final_route);
  res.placement = std::move(placement);
  return res;
}

void expect_metrics_eq(const StageMetrics& a, const StageMetrics& b) {
  EXPECT_EQ(a.overflow, b.overflow);
  EXPECT_EQ(a.ovf_gcell_pct, b.ovf_gcell_pct);
  EXPECT_EQ(a.h_overflow, b.h_overflow);
  EXPECT_EQ(a.v_overflow, b.v_overflow);
  EXPECT_EQ(a.wns_ps, b.wns_ps);
  EXPECT_EQ(a.tns_ps, b.tns_ps);
  EXPECT_EQ(a.power_mw, b.power_mw);
  EXPECT_EQ(a.wirelength_um, b.wirelength_um);
}

void expect_placement_eq(const Placement3D& a, const Placement3D& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.outline.xlo, b.outline.xlo);
  EXPECT_EQ(a.outline.xhi, b.outline.xhi);
  EXPECT_EQ(a.outline.ylo, b.outline.ylo);
  EXPECT_EQ(a.outline.yhi, b.outline.yhi);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.xy[i].x, b.xy[i].x) << "cell " << i;
    EXPECT_EQ(a.xy[i].y, b.xy[i].y) << "cell " << i;
    EXPECT_EQ(a.tier[i], b.tier[i]) << "cell " << i;
  }
}

void expect_timing_eq(const TimingResult& a, const TimingResult& b) {
  EXPECT_EQ(a.wns_ps, b.wns_ps);
  EXPECT_EQ(a.tns_ps, b.tns_ps);
  EXPECT_EQ(a.endpoints, b.endpoints);
  EXPECT_EQ(a.violating_endpoints, b.violating_endpoints);
  EXPECT_EQ(a.switching_mw, b.switching_mw);
  EXPECT_EQ(a.internal_mw, b.internal_mw);
  EXPECT_EQ(a.leakage_mw, b.leakage_mw);
  EXPECT_EQ(a.total_mw, b.total_mw);
  EXPECT_EQ(a.cell_slack, b.cell_slack);
  EXPECT_EQ(a.cell_arrival, b.cell_arrival);
  EXPECT_EQ(a.cell_out_slew, b.cell_out_slew);
  EXPECT_EQ(a.cell_in_slew, b.cell_in_slew);
  EXPECT_EQ(a.net_switch_mw, b.net_switch_mw);
}

void expect_route_eq(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.h_overflow, b.h_overflow);
  EXPECT_EQ(a.v_overflow, b.v_overflow);
  EXPECT_EQ(a.ovf_gcell_pct, b.ovf_gcell_pct);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.num_3d_vias, b.num_3d_vias);
  for (int die = 0; die < 2; ++die) {
    EXPECT_EQ(a.congestion[die], b.congestion[die]);
    EXPECT_EQ(a.usage[die], b.usage[die]);
  }
  EXPECT_EQ(a.net_routed_wl, b.net_routed_wl);
  EXPECT_EQ(a.net_overflow_crossings, b.net_overflow_crossings);
}

void expect_flow_eq(const FlowResult& a, const FlowResult& b) {
  expect_metrics_eq(a.after_place, b.after_place);
  expect_metrics_eq(a.signoff, b.signoff);
  EXPECT_EQ(a.cts.buffers_inserted, b.cts.buffers_inserted);
  EXPECT_EQ(a.cts.levels, b.cts.levels);
  EXPECT_EQ(a.cts.max_skew_ps, b.cts.max_skew_ps);
  EXPECT_EQ(a.cts.skew_ps, b.cts.skew_ps);
  EXPECT_EQ(a.signoff_detail.upsized, b.signoff_detail.upsized);
  EXPECT_EQ(a.signoff_detail.downsized, b.signoff_detail.downsized);
  EXPECT_EQ(a.signoff_detail.skewed, b.signoff_detail.skewed);
  expect_timing_eq(a.signoff_detail.timing, b.signoff_detail.timing);
  EXPECT_EQ(a.signoff_detail.net_length_scale,
            b.signoff_detail.net_length_scale);
  expect_placement_eq(a.placement, b.placement);
  expect_placement_eq(a.global_placement, b.global_placement);
  expect_route_eq(a.final_route, b.final_route);
}

FlowConfig small_cfg() {
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.timing.clock_period_ps = 250.0;
  cfg.seed = 7;
  return cfg;
}

/// Deterministic stand-in for the DCO hook: nudges the first cell so the
/// optimizer path (global_placement snapshot, grid timing) is exercised.
PlacementOptimizer nudge_hook() {
  return [](const Netlist&, Placement3D& pl) {
    if (!pl.xy.empty()) pl.xy[0].x += 0.01;
  };
}

class ThreadCount : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::set_num_threads(GetParam()); }
  void TearDown() override { util::set_num_threads(0); }
};

TEST_P(ThreadCount, StagedFlowMatchesMonolith) {
  const Netlist design = testing::tiny_design(260);
  const FlowConfig cfg = small_cfg();
  expect_flow_eq(run_pin3d_flow(design, cfg), reference_flow(design, cfg));
}

TEST_P(ThreadCount, StagedFlowMatchesMonolithWithHook) {
  const Netlist design = testing::tiny_design(260);
  const FlowConfig cfg = small_cfg();
  expect_flow_eq(run_pin3d_flow(design, cfg, nudge_hook()),
                 reference_flow(design, cfg, nudge_hook()));
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCount, ::testing::Values(1, 2, 8));

TEST(Pipeline, ResumeFromCacheReproducesFullRun) {
  const Netlist design = testing::tiny_design(220);
  const FlowConfig cfg = small_cfg();
  const std::string cache =
      (std::filesystem::temp_directory_path() / "dco3d_resume_cache").string();
  std::filesystem::remove_all(cache);

  PipelineOptions full;
  full.cache_dir = cache;
  FlowContext ctx1 = make_flow_context(design, cfg);
  const FlowResult want = pin3d_pipeline().run(ctx1, full);

  PipelineOptions resume;
  resume.cache_dir = cache;
  resume.resume_from = "route";
  FlowContext ctx2 = make_flow_context(design, cfg);
  const FlowResult got = pin3d_pipeline().run(ctx2, resume);
  expect_flow_eq(got, want);

  // Resuming from the first stage needs no artifact at all.
  PipelineOptions from_start;
  from_start.cache_dir = cache;
  from_start.resume_from = "place3d";
  FlowContext ctx3 = make_flow_context(design, cfg);
  expect_flow_eq(pin3d_pipeline().run(ctx3, from_start), want);

  std::filesystem::remove_all(cache);
}

/// Every field of a RouteResult, at any tier count.
void expect_route_fields_eq(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.num_tiers, b.num_tiers);
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.usage, b.usage);
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.h_overflow, b.h_overflow);
  EXPECT_EQ(a.v_overflow, b.v_overflow);
  EXPECT_EQ(a.tier_overflow, b.tier_overflow);
  EXPECT_EQ(a.vias_per_boundary, b.vias_per_boundary);
  EXPECT_EQ(a.ovf_gcell_pct, b.ovf_gcell_pct);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.num_3d_vias, b.num_3d_vias);
  EXPECT_EQ(a.net_routed_wl, b.net_routed_wl);
  EXPECT_EQ(a.net_overflow_crossings, b.net_overflow_crossings);
}

// final-metrics reports the route stage's result instead of routing again:
// signoff only resizes cells, which moves no pin and no macro, so a fresh
// route of the post-signoff netlist and placement must equal it exactly.
// Capacity is calibrated tight so rip-up-and-reroute runs.
TEST(Pipeline, FinalRouteEqualsFreshRouteOfSignoffState) {
  for (DesignKind kind : {DesignKind::kDma, DesignKind::kLdpc, DesignKind::kAes}) {
    for (int tiers : {2, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "kind=" << static_cast<int>(kind) << " tiers=" << tiers);
      const Netlist design = generate_design(spec_for(kind, 0.02));
      FlowConfig cfg = small_cfg();
      cfg.num_tiers = tiers;
      cfg.router = calibrated_router(design, cfg);

      FlowContext ctx = make_flow_context(design, cfg);
      const FlowResult r = pin3d_pipeline().run(ctx);
      ASSERT_GT(r.signoff_detail.upsized + r.signoff_detail.downsized, 0)
          << "signoff must have resized cells for this check to mean much";
      const RouteResult fresh =
          global_route(ctx.netlist, r.placement, r.grid, cfg.router);
      expect_route_fields_eq(r.final_route, fresh);
      EXPECT_EQ(r.signoff.overflow, fresh.total_overflow);
      EXPECT_EQ(r.signoff.wirelength_um, fresh.wirelength);
    }
  }
}

TEST(Pipeline, FinalMetricsWithoutRouteIsInvalidArgument) {
  const Netlist design = testing::tiny_design(120);
  FlowContext ctx = make_flow_context(design, small_cfg());
  ctx.placement = place_pseudo3d(design, ctx.cfg.place_params, ctx.cfg.seed);
  PipelineOptions opts;
  opts.start_at = "final-metrics";
  try {
    pin3d_pipeline().run(ctx, opts);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Pipeline, ResumeWithoutArtifactIsNotFound) {
  const Netlist design = testing::tiny_design(150);
  const std::string cache =
      (std::filesystem::temp_directory_path() / "dco3d_missing_cache").string();
  std::filesystem::remove_all(cache);
  PipelineOptions opts;
  opts.cache_dir = cache;
  opts.resume_from = "route";
  FlowContext ctx = make_flow_context(design, small_cfg());
  try {
    pin3d_pipeline().run(ctx, opts);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
  }
  std::filesystem::remove_all(cache);
}

TEST(Pipeline, StopAfterSkipsLaterStages) {
  const Netlist design = testing::tiny_design(180);
  PipelineOptions opts;
  opts.stop_after = "after-place-metrics";
  FlowContext ctx = make_flow_context(design, small_cfg());
  const FlowResult r = pin3d_pipeline().run(ctx, opts);
  EXPECT_GT(r.after_place.wirelength_um, 0.0);
  // CTS and signoff never ran.
  EXPECT_EQ(r.cts.buffers_inserted, 0u);
  EXPECT_EQ(r.signoff.wirelength_um, 0.0);
  EXPECT_FALSE(ctx.route_valid);
}

TEST(Pipeline, UnknownStageIsInvalidArgument) {
  const Netlist design = testing::tiny_design(120);
  FlowContext ctx = make_flow_context(design, small_cfg());
  PipelineOptions opts;
  opts.stop_after = "no-such-stage";
  try {
    pin3d_pipeline().run(ctx, opts);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("place3d"), std::string::npos)
        << "error should list the valid stages";
  }
}

TEST(Pipeline, TraceRecordsEveryStageInOrder) {
  const Netlist design = testing::tiny_design(160);
  std::vector<StageTraceEntry> trace;
  PipelineOptions opts;
  opts.trace = &trace;
  FlowContext ctx = make_flow_context(design, small_cfg());
  ctx.design_name = "tiny";
  pin3d_pipeline().run(ctx, opts);

  const std::vector<std::string> want = {
      "place3d", "dco",     "after-place-metrics", "cts",
      "legalize", "route",  "signoff",             "final-metrics"};
  ASSERT_EQ(trace.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(trace[i].stage, want[i]);
    EXPECT_EQ(trace[i].index, static_cast<int>(i));
    EXPECT_EQ(trace[i].design, "tiny");
    EXPECT_FALSE(trace[i].cached);
    EXPECT_GE(trace[i].wall_ms, 0.0);
    EXPECT_GE(trace[i].threads, 1);
  }
  // Stages that measure publish their headline numbers.
  const auto metric = [](const StageTraceEntry& e, const std::string& key) {
    for (const auto& [k, v] : e.metrics)
      if (k == key) return v;
    ADD_FAILURE() << "metric '" << key << "' missing from " << e.stage;
    return 0.0;
  };
  EXPECT_GT(metric(trace[2], "wirelength_um"), 0.0);
  EXPECT_GT(metric(trace[5], "wirelength_um"), 0.0);
}

// StageTraceEntry::to_json is a wire format (trace files, serve stage
// events): these bytes were recorded from the emitter before it was moved
// onto the shared JSON writer and must not drift. They cover escaping, the
// %.17g doubles, non-finite metrics (serialized as 0), -0, and full-range
// counters.
TEST(StageTrace, ToJsonBytesArePinned) {
  StageTraceEntry e;
  e.design = "ldpc \"x\"\\\t\x01";
  e.stage = "route";
  e.index = 5;
  e.wall_ms = 12.345678901234567;
  e.threads = 3;
  e.arena.requests = 10;
  e.arena.pool_hits = 7;
  e.arena.heap_allocs = 3;
  e.arena.live_bytes = 4096;
  e.arena.peak_bytes = 18446744073709551615ull;
  e.pool.dispatches = 2;
  e.pool.inline_runs = 1;
  e.pool.chunks = 9;
  e.metrics = {{"overflow", 115.0},
               {"wns_ps", -3.25},
               {"tiny", 1e-7},
               {"big", 1.5e21},
               {"third", 1.0 / 3.0},
               {"nan", std::nan("")},
               {"inf", std::numeric_limits<double>::infinity()},
               {"neg_zero", -0.0}};
  EXPECT_EQ(
      e.to_json(),
      R"({"schema":"dco3d-stage-trace-v1","design":"ldpc \"x\"\\\t\u0001",)"
      R"("stage":"route","index":5,"cached":false,"wall_ms":12.345678901234567,)"
      R"("threads":3,"arena":{"requests":10,"pool_hits":7,"heap_allocs":3,)"
      R"("live_bytes":4096,"peak_bytes":18446744073709551615,"pooled_bytes":0},)"
      R"("pool":{"dispatches":2,"inline_runs":1,"chunks":9},"metrics":{)"
      R"("overflow":115,"wns_ps":-3.25,"tiny":9.9999999999999995e-08,)"
      R"("big":1.5e+21,"third":0.33333333333333331,"nan":0,"inf":0,)"
      R"("neg_zero":-0}})");

  StageTraceEntry footer;  // no design, no metrics, cached
  footer.stage = "cache-footer";
  footer.index = 8;
  footer.cached = true;
  EXPECT_EQ(
      footer.to_json(),
      R"({"schema":"dco3d-stage-trace-v1","stage":"cache-footer","index":8,)"
      R"("cached":true,"wall_ms":0,"threads":1,"arena":{"requests":0,)"
      R"("pool_hits":0,"heap_allocs":0,"live_bytes":0,"peak_bytes":0,)"
      R"("pooled_bytes":0},"pool":{"dispatches":0,"inline_runs":0,"chunks":0},)"
      R"("metrics":{}})");
}

/// The whole-flow identity: the last key of the stage chain.
std::string chain_key(const FlowContext& ctx) {
  return flow_stage_keys(ctx, pin3d_pipeline()).back();
}

TEST(Pipeline, CacheKeyReactsToConfigAndDesign) {
  const Netlist d1 = testing::tiny_design(140);
  const Netlist d2 = testing::tiny_design(140, /*seed=*/11);
  FlowConfig cfg = small_cfg();
  FlowContext base = make_flow_context(d1, cfg);
  const std::string k1 = chain_key(base);
  EXPECT_EQ(k1.size(), 16u);
  EXPECT_EQ(k1, chain_key(base)) << "key must be deterministic";

  FlowContext other_design = make_flow_context(d2, cfg);
  EXPECT_NE(chain_key(other_design), k1);

  cfg.seed = 8;
  FlowContext other_seed = make_flow_context(d1, cfg);
  EXPECT_NE(chain_key(other_seed), k1);

  FlowContext other_opt = make_flow_context(d1, small_cfg());
  other_opt.optimizer_tag = "dco:model.ckpt";
  EXPECT_NE(chain_key(other_opt), k1);
}

TEST(Pipeline, ArtifactSavedUnderOneBodyVersionMissesUnderAnother) {
  const Netlist design = testing::tiny_design(140);
  const FlowConfig cfg = small_cfg();
  const std::string cache =
      (std::filesystem::temp_directory_path() / "dco3d_version_cache")
          .string();
  std::filesystem::remove_all(cache);

  PipelineOptions po;
  po.cache_dir = cache;
  po.stop_after = "dco";
  FlowContext run = make_flow_context(design, cfg);
  pin3d_pipeline().run(run, po);

  const Pipeline& pipe = pin3d_pipeline();
  const FlowContext fresh = make_flow_context(design, cfg);
  const std::vector<std::string> saved = flow_stage_keys(fresh, pipe);
  const std::vector<std::string> bumped =
      flow_stage_keys(fresh, pipe, kStageBodyVersion + 1);
  for (std::size_t i = 0; i < bumped.size(); ++i)
    EXPECT_NE(bumped[i], saved[i]) << pipe.stages()[i].name();
  for (std::size_t i = 0; i < 2; ++i) {  // place3d, dco: the saved stages
    const std::string& name = pipe.stages()[i].name();
    FlowContext probe = make_flow_context(design, cfg);
    EXPECT_TRUE(load_flow_artifact(cache + "/" + saved[i] + "/" + name, probe))
        << name;
    EXPECT_FALSE(
        load_flow_artifact(cache + "/" + bumped[i] + "/" + name, probe))
        << name;
  }
  std::filesystem::remove_all(cache);
}

// ---------------------------------------------------------------------------
// attach_dco: Algorithm 2 as the dco stage's hook.

/// Untrained predictor with a fixed init: exercises the real DCO loss graph.
Predictor fixed_predictor() {
  Predictor pred;
  Rng rng(99);
  pred.model = std::make_shared<nn::SiameseUNet>(nn::UNetConfig{}, rng);
  pred.feature_scale = nn::Tensor({kNumFeatureChannels}, 1.0f);
  return pred;
}

DcoConfig small_dco() {
  DcoConfig d;
  d.max_iter = 4;
  d.restarts = 0;
  d.eval_every = 2;
  d.grid_nx = d.grid_ny = 16;
  d.overlap_bins = 8;
  return d;
}

std::string dco_stage_key(const Netlist& design, const Predictor& pred,
                          const DcoConfig& dco) {
  FlowContext ctx = make_flow_context(design, small_cfg());
  attach_dco(ctx, pred, dco);
  const Pipeline& pipe = pin3d_pipeline();
  return flow_stage_keys(ctx, pipe)[static_cast<std::size_t>(
      pipe.index_of("dco"))];
}

TEST(DcoStage, KeyFollowsDcoConfigAndPredictorContent) {
  const Netlist design = testing::tiny_design(140);
  const Predictor pred = fixed_predictor();
  const DcoConfig base = small_dco();
  const std::string k = dco_stage_key(design, pred, base);
  EXPECT_EQ(k, dco_stage_key(design, pred, base));

  DcoConfig d = base;
  d.deadline_ms = 1000.0;
  EXPECT_NE(dco_stage_key(design, pred, d), k) << "deadline_ms";
  d = base;
  d.seed += 1;
  EXPECT_NE(dco_stage_key(design, pred, d), k) << "seed";
  d = base;
  d.max_iter += 1;
  EXPECT_NE(dco_stage_key(design, pred, d), k) << "max_iter";

  // Content, not identity: an equal model built separately keys the same;
  // one changed weight does not.
  Predictor other = fixed_predictor();
  EXPECT_EQ(dco_stage_key(design, other, base), k);
  other.model->parameters().front()->value[0] += 1e-3f;
  EXPECT_NE(dco_stage_key(design, other, base), k) << "weights";

  std::stringstream ckpt;
  save_predictor(ckpt, pred, pred.model->config());
  const Predictor loaded = load_predictor(ckpt);
  EXPECT_EQ(dco_stage_key(design, loaded, base), k) << "save/load round trip";
}

std::uint64_t placement_hash(const Placement3D& pl) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < pl.size(); ++i) {
    mix(&pl.xy[i].x, sizeof(double));
    mix(&pl.xy[i].y, sizeof(double));
    mix(&pl.tier[i], sizeof(int));
  }
  return h;
}

std::string hex_metrics(const StageMetrics& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%a %a %a %a %a %a %a %a", m.overflow,
                m.ovf_gcell_pct, m.h_overflow, m.v_overflow, m.wns_ps,
                m.tns_ps, m.power_mw, m.wirelength_um);
  return buf;
}

TEST(DcoStage, AttachDcoMatchesHandWrittenHook) {
  const Netlist design = testing::tiny_design(220);
  FlowConfig cfg = small_cfg();
  cfg.router = calibrated_router(design, cfg);
  cfg.place_params.displacement_threshold = 0;  // read by trial legalization
  const Predictor pred = fixed_predictor();
  const DcoConfig dco = small_dco();

  // Reference: a hand-written run_dco hook given the flow's own settings.
  DcoConfig hand_cfg = dco;
  hand_cfg.router = cfg.router;
  hand_cfg.legalize_params = cfg.place_params;
  const TimingConfig timing = cfg.timing;
  DcoResult want_dco;
  FlowContext hand = make_flow_context(
      design, cfg, [&](const Netlist& nl, Placement3D& pl) {
        want_dco = run_dco(nl, pl, pred, timing, hand_cfg);
        pl = want_dco.placement;
      });
  const FlowResult want = pin3d_pipeline().run(hand);

  FlowContext lib = make_flow_context(design, cfg);
  DcoResult out;
  attach_dco(lib, pred, dco, &out);
  const FlowResult got = pin3d_pipeline().run(lib);

  ASSERT_EQ(out.trace.size(), 4u) << "Algorithm 2 must have run";
  // Trial-route scores: they see the router and legalization settings.
  EXPECT_EQ(out.initial_score, want_dco.initial_score);
  EXPECT_EQ(out.best_loss, want_dco.best_loss);
  EXPECT_EQ(out.best_iter, want_dco.best_iter);
  EXPECT_EQ(placement_hash(got.global_placement),
            placement_hash(want.global_placement));
  EXPECT_EQ(placement_hash(got.placement), placement_hash(want.placement));
  EXPECT_EQ(hex_metrics(got.after_place), hex_metrics(want.after_place));
  EXPECT_EQ(hex_metrics(got.signoff), hex_metrics(want.signoff));
}

}  // namespace
}  // namespace dco3d
