// dco_ldpc: the paper's headline path. LDPC at scale 0.04, a small
// predictor trained in-process during set-up, then (timed) router
// calibration and the full 8-stage pin3d_pipeline() with a DCO hook that
// calls run_dco (grid 48, trial-route gating on).

#include <map>

#include "checks.hpp"
#include "core/dco.hpp"
#include "flow/stage.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dco3d;

namespace {

// Predictor of the set-up: 2 layouts (+2 perturbed each) x 4 epochs, with
// fixed seeds. With the library's default seeds the predictor steers DCO
// further, and the signoff overflow of a round varied by 24% (IQR) over 10
// workload seeds, too close to any usable bound; with these it varied by 7%.
constexpr int kSetupLayouts = 2;
constexpr int kSetupEpochs = 4;
constexpr std::uint64_t kSetupDatasetSeed = 765386;
constexpr std::uint64_t kSetupTrainSeed = 606017;
// Flows per round, one per DCO seed derived from the workload seed. The
// QoR figures are their mean: one DCO outcome varies more from seed to seed
// than a pair does.
constexpr int kFlowsPerRound = 2;

const char* const kStages[] = {"place3d", "dco",     "after-place-metrics",
                               "cts",     "legalize", "route",
                               "signoff", "final-metrics"};

/// What one timed flow leaves behind for the checks and the traced split.
struct FlowRun {
  double seconds = 0.0;
  FlowConfig cfg;
  DcoConfig dcfg;
  FlowResult res;
  Netlist final_netlist;     // working netlist after signoff
  Placement3D dco_in, dco_out;
  DcoResult dco;
  std::map<std::string, double> stage_ms;  // traced runs only
  double calibrate_ms = 0.0;
};

std::uint64_t dco_seed(std::uint64_t seed, int k) {
  return 1 + mix_seed(seed, 0xdc0 + static_cast<std::uint64_t>(k)) % 1000000;
}

FlowRun run_flow(const Netlist& design, const Predictor& pred,
                 std::uint64_t seed, Tracer& tr) {
  FlowRun fr;
  const auto t0 = Clock::now();
  Scoped flow_span(tr, "flow.dco_flow");
  fr.cfg = ldpc_flow_config();
  {
    Scoped s(tr, "flow.calibrate");
    fr.cfg.router = calibrate(design, fr.cfg);
    fr.calibrate_ms = s.stop();
  }
  fr.dcfg.grid_nx = fr.dcfg.grid_ny = fr.cfg.grid_nx;
  fr.dcfg.router = fr.cfg.router;
  fr.dcfg.select_by_route = true;
  fr.dcfg.seed = seed;
  const DcoConfig dcfg = fr.dcfg;
  const TimingConfig tcfg = fr.cfg.timing;
  PlacementOptimizer hook = [&fr, &pred, dcfg, tcfg](const Netlist& nl,
                                                     Placement3D& pl) {
    fr.dco_in = pl;
    fr.dco = run_dco(nl, pl, pred, tcfg, dcfg);
    pl = fr.dco.placement;
    fr.dco_out = pl;
  };
  FlowContext ctx = make_flow_context(design, fr.cfg, hook);
  ctx.design_name = "ldpc";
  ctx.optimizer_tag = "dco:perfbench";
  const Pipeline& pipe = pin3d_pipeline();
  if (!tr.enabled()) {
    fr.res = pipe.run(ctx);
  } else {
    // Traced: one call per stage, so every stage gets its own span.
    for (const char* stage : kStages) {
      Scoped s(tr, std::string("flow.stage.") + stage);
      PipelineOptions po;
      po.start_at = stage;
      po.stop_after = stage;
      fr.res = pipe.run(ctx, po);
      fr.stage_ms[stage] = s.stop();
    }
  }
  fr.final_netlist = std::move(ctx.netlist);
  fr.seconds = ms_since(t0) * 1e-3;
  return fr;
}

/// The output checks of one flow.
void check_flow(const Netlist& design, const FlowRun& fr, RunResult& rr) {
  const GCellGrid grid(fr.dco_in.outline, fr.dcfg.grid_nx, fr.dcfg.grid_ny);
  const TrialRoute in = independent_trial_route(
      design, fr.dco_in, grid, fr.dcfg.router, fr.dcfg.legalize_params);
  const TrialRoute out = independent_trial_route(
      design, fr.dco_out, grid, fr.dcfg.router, fr.dcfg.legalize_params);
  rr.check(check_dco_not_worse(in, out));
  rr.check(check_placement_sane(fr.dco_out, design.num_cells(), "dco output"));
  rr.check(check_placement_sane(fr.res.placement, fr.final_netlist.num_cells(),
                                "final placement"));
  rr.check(check_route_totals(fr.res.final_route));
}

/// Candidates scored by run_dco: the input placement, then every
/// eval_every-th iterate and the last one of each restart, plus the extra
/// evaluation on a patience stop (a restart that ended before max_iter).
int derived_candidates(const DcoResult& r, const DcoConfig& cfg) {
  int n = 1;
  const auto& t = r.trace;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const int it = t[i].iter;
    if (it % cfg.eval_every == 0 || it + 1 == cfg.max_iter) ++n;
    const bool restart_ends = i + 1 == t.size() || t[i + 1].iter == 0;
    if (restart_ends && it + 1 < cfg.max_iter) ++n;
  }
  return n;
}

}  // namespace

RunResult run_dco_ldpc(const Options& opt, Tracer& tr, Metrics& m) {
  RunResult rr;
  // --- Set-up: the design and a small predictor trained in-process from
  // fixed seeds (trained from the workload seed, one DCO outcome's overflow
  // varied by 22% across seeds; see README.md).
  Netlist design;
  Predictor pred;
  {
    Scoped s(tr, "setup");
    design = make_ldpc();
    const FlowConfig cfg = ldpc_flow_config();
    const RouterConfig router = calibrate(design, cfg);
    DatasetConfig dc = ldpc_dataset_config(router, kSetupLayouts);
    dc.seed = kSetupDatasetSeed;
    TrainConfig tc = ldpc_train_config(kSetupEpochs);
    tc.seed = kSetupTrainSeed;
    pred = train_predictor(build_dataset(design, dc), tc);
  }
  const double setup_s = seconds_since_spawn(opt);

  // --- Timed: whole rounds while the run's time allows (at least one). A
  // round is one flow per DCO seed.
  const UtilDelta util0;
  std::vector<double> secs, round_secs;
  std::vector<FlowRun> round0;  // kept for the checks, QoR and traced split
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (int round = 0;; ++round) {
    const auto r0 = Clock::now();
    for (int k = 0; k < kFlowsPerRound; ++k) {
      FlowRun fr = run_flow(design, pred, dco_seed(opt.seed, k), tr);
      secs.push_back(fr.seconds);
      ++rr.attempted;
      if (round == 0) round0.push_back(std::move(fr));
    }
    round_secs.push_back(ms_since(r0) * 1e-3);
    if (ms_since(t0) * 1e-3 + median(round_secs) > opt.seconds) break;
  }
  Metrics util_m;  // the timed section's util-layer deltas
  util0.report(util_m);
  const double cpu_s = process_cpu_s() - cpu0;

  {
    Scoped s(tr, "checks");
    for (const FlowRun& fr : round0) check_flow(design, fr, rr);
  }

  const FlowRun& first = round0.front();
  double overflow = 0.0, wl = 0.0;
  for (const FlowRun& fr : round0) {
    overflow += fr.res.signoff.overflow / kFlowsPerRound;
    wl += fr.res.signoff.wirelength_um / kFlowsPerRound;
  }
  m.set("setup_s", setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  rr.details.set("op_cpu_s", cpu_s / static_cast<double>(secs.size()), "s");
  m.set("op_s", median(secs), "s");
  m.set("qor", overflow, "qor");
  rr.details.set("signoff_overflow", overflow, "overflow");
  rr.details.set("signoff_wl_um", wl, "um");
  if (!opt.trace) return rr;

  // Traced: the first flow's stage spans and DCO counts, then the layer
  // replays on this design (the flow's own stage split stands).
  for (const char* stage : kStages)
    m.set(std::string("flow.stage.") + stage + "_ms", first.stage_ms.at(stage),
          "ms");
  const int iterations = static_cast<int>(first.dco.trace.size());
  const int candidates = derived_candidates(first.dco, first.dcfg);
  m.set("core.dco.iterations", iterations, "count");
  m.set("core.dco.candidates", candidates, "count");
  m.set("core.dco.cells_moved_tier",
        static_cast<double>(first.dco.cells_moved_tier), "count");
  for (const auto& [k, v] : util_m.items()) m.set(k, v.first, v.second);
  LayerInputs in;
  in.design = &design;
  in.cfg = first.cfg;
  in.predictor = &pred;
  in.time_stages = false;
  replay_layers(in, tr, m);

  // Estimates of the DCO loops: replayed sub-steps times the run's counts.
  const double grad_est =
      iterations * (m.get("core.spreader_fwd_ms") + m.get("grid.soft_maps_ms") +
                    m.get("core.loss.cong_ms") + m.get("core.loss.ovlp_ms") +
                    m.get("core.loss.cut_ms") + m.get("core.loss.disp_ms") +
                    m.get("nn.backward_ms") + m.get("nn.adam_gcn_ms"));
  const double trial_est =
      candidates * (m.get("netlist.copy_ms") + m.get("flow.cts_ms") +
                    m.get("place.legalize_ms") + m.get("route.global_route_ms"));
  rr.details.set("flow.calibrate_span_ms", first.calibrate_ms, "ms");
  rr.details.set("core.dco.grad_loop_est_ms", grad_est, "ms");
  rr.details.set("core.dco.trial_loop_est_ms", trial_est, "ms");
  rr.details.set("core.dco.explained_share",
                 (grad_est + trial_est) / first.stage_ms.at("dco"), "ratio");
  return rr;
}

}  // namespace perfbench
