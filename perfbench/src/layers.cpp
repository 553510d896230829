// Per-layer replays shared by the traced runs of every workload, so each
// per-layer timing is measured on each workload's own design.

#include <memory>

#include "core/dco.hpp"
#include "core/features.hpp"
#include "core/losses.hpp"
#include "core/spreader.hpp"
#include "flow/cts.hpp"
#include "flow/stage.hpp"
#include "grid/feature_maps.hpp"
#include "grid/soft_maps.hpp"
#include "nn/optimizer.hpp"
#include "nn/ops.hpp"
#include "nn/unet.hpp"
#include "place/legalize.hpp"
#include "place/placer3d.hpp"
#include "timing/sta.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dco3d;

namespace {

const char* const kStages[] = {"place3d", "dco",     "after-place-metrics",
                               "cts",     "legalize", "route",
                               "signoff", "final-metrics"};

DatasetConfig dataset_config(const FlowConfig& cfg) {
  DatasetConfig dc;
  dc.num_tiers = cfg.num_tiers;
  dc.grid_nx = dc.grid_ny = cfg.grid_nx;
  dc.net_h = dc.net_w = cfg.grid_nx;
  dc.router = cfg.router;
  return dc;
}

/// One UNet training step as train_predictor takes it (normalized
/// features, scaled labels), on one sample of the design.
void unet_step(const Predictor& pred, const DataSample& s, Tracer& tr,
               Metrics& m) {
  std::vector<nn::Var> f, l;
  for (std::size_t t = 0; t < s.features.size(); ++t) {
    f.push_back(nn::make_leaf(pred.normalize_features(s.features[t])));
    nn::Tensor lab = s.labels[t].clone();
    for (float& v : lab.data()) v /= pred.label_scale;
    l.push_back(nn::make_leaf(lab));
  }
  // The replayed steps update the predictor's weights: run this last.
  nn::Adam adam(pred.model->parameters(), TrainConfig{}.lr);
  std::vector<double> fwd, bwd, step;
  for (int i = 0; i < kReplays; ++i) {
    nn::Var loss;
    {
      Scoped sp(tr, "nn.unet.fwd");
      loss = nn::siamese_loss_n(pred.model->forward_n(f), l);
      fwd.push_back(sp.stop());
    }
    adam.zero_grad();
    {
      Scoped sp(tr, "nn.unet.bwd");
      nn::backward(loss);
      bwd.push_back(sp.stop());
    }
    {
      Scoped sp(tr, "nn.adam_step");
      adam.step();
      step.push_back(sp.stop());
    }
  }
  m.set("nn.unet.fwd_ms", median(fwd), "ms");
  m.set("nn.unet.bwd_ms", median(bwd), "ms");
  m.set("nn.adam_step_ms", median(step), "ms");
}

/// One DCO gradient iteration (Algorithm 2's inner loop body) with the
/// default DcoConfig, from `init`.
void dco_iteration(const Netlist& design, const Placement3D& init,
                   const GCellGrid& grid, const Predictor& pred,
                   const FlowConfig& fcfg, Tracer& tr, Metrics& m) {
  DcoConfig cfg;
  cfg.grid_nx = cfg.grid_ny = fcfg.grid_nx;
  cfg.router = fcfg.router;
  const nn::Var features =
      nn::make_leaf(build_gnn_features(design, init, fcfg.timing));
  auto edges = std::make_shared<
      const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      design.cell_graph_edges());
  nn::Tensor x0({static_cast<std::int64_t>(design.num_cells())});
  nn::Tensor y0(x0.shape());
  for (std::size_t ci = 0; ci < design.num_cells(); ++ci) {
    x0[static_cast<std::int64_t>(ci)] = static_cast<float>(init.xy[ci].x);
    y0[static_cast<std::int64_t>(ci)] = static_cast<float>(init.xy[ci].y);
  }
  Rng rng(cfg.seed);
  GnnSpreader spreader(design, init, cfg.spreader, rng);
  nn::Adam adam(spreader.parameters(), cfg.lr);

  SpreaderOutput out;
  SoftMaps maps;
  nn::Var l_cong, l_ovlp, l_cut, l_disp;
  auto ovlp = [&] {
    l_ovlp = overlap_loss(design, out.x, out.y, out.z, init.outline,
                          cfg.overlap_bins, cfg.overlap_bins,
                          cfg.overlap_target_util);
  };
  m.set("core.spreader_fwd_ms",
        replay(tr, "core.spreader_fwd", [&] { out = spreader.forward(features); }),
        "ms");
  m.set("grid.soft_maps_ms", replay(tr, "grid.soft_maps", [&] {
          maps = soft_feature_maps(design, grid, out.x, out.y, out.z);
        }), "ms");
  m.set("core.loss.cong_ms",
        replay(tr, "core.loss.cong", [&] { l_cong = congestion_loss(pred, maps); }),
        "ms");
  m.set("core.loss.ovlp_ms", replay(tr, "core.loss.ovlp", ovlp), "ms");
  m.set("core.loss.cut_ms",
        replay(tr, "core.loss.cut", [&] { l_cut = cutsize_loss(out.z, edges); }),
        "ms");
  m.set("core.loss.disp_ms", replay(tr, "core.loss.disp", [&] {
          l_disp = displacement_loss(out.x, out.y, x0, y0, init.outline);
        }), "ms");
  // backward releases the tape, so each replay rebuilds the graph untimed.
  std::vector<double> bwd, step;
  for (int i = 0; i < kReplays; ++i) {
    out = spreader.forward(features);
    maps = soft_feature_maps(design, grid, out.x, out.y, out.z);
    l_cong = congestion_loss(pred, maps);
    ovlp();
    l_cut = cutsize_loss(out.z, edges);
    l_disp = displacement_loss(out.x, out.y, x0, y0, init.outline);
    const nn::Var total =
        nn::add(nn::add(nn::mul_scalar(l_disp, cfg.alpha_disp),
                        nn::mul_scalar(l_ovlp, cfg.beta_ovlp)),
                nn::add(nn::mul_scalar(l_cut, cfg.gamma_cut),
                        nn::mul_scalar(l_cong, cfg.delta_cong)));
    adam.zero_grad();
    {
      Scoped s(tr, "nn.backward");
      nn::backward(total);
      bwd.push_back(s.stop());
    }
    {
      Scoped s(tr, "nn.adam_gcn");
      adam.step();
      step.push_back(s.stop());
    }
  }
  m.set("nn.backward_ms", median(bwd), "ms");
  m.set("nn.adam_gcn_ms", median(step), "ms");
}

/// One trial evaluation as run_dco makes it (netlist copy, CTS, legalize,
/// route), then STA on its result.
void trial_chain(const Netlist& design, const Placement3D& gp,
                 const GCellGrid& grid, const FlowConfig& cfg, Tracer& tr,
                 Metrics& m) {
  const PlacementParams legalize_params = DcoConfig{}.legalize_params;
  std::vector<double> c, t, l, r;
  Netlist work;
  Placement3D legal;
  for (int i = 0; i < kReplays; ++i) {
    legal = gp;
    {
      Scoped s(tr, "netlist.copy");
      work = design;
      c.push_back(s.stop());
    }
    {
      Scoped s(tr, "flow.cts");
      run_cts(work, legal);
      t.push_back(s.stop());
    }
    {
      Scoped s(tr, "place.legalize");
      legalize_all(work, legal, legalize_params);
      l.push_back(s.stop());
    }
    {
      Scoped s(tr, "route.global_route");
      (void)global_route(work, legal, grid, cfg.router);
      r.push_back(s.stop());
    }
  }
  m.set("netlist.copy_ms", median(c), "ms");
  m.set("flow.cts_ms", median(t), "ms");
  m.set("place.legalize_ms", median(l), "ms");
  m.set("route.global_route_ms", median(r), "ms");
  m.set("timing.sta_ms",
        replay(tr, "timing.sta", [&] { (void)run_sta(work, legal, cfg.timing); }),
        "ms");
}

/// A baseline flow (no DCO hook), one pipeline call per stage.
void baseline_stages(const Netlist& design, const FlowConfig& cfg, Tracer& tr,
                     Metrics& m) {
  Scoped root(tr, "flow.baseline");
  FlowContext ctx = make_flow_context(design, cfg);
  const Pipeline& pipe = pin3d_pipeline();
  for (const char* stage : kStages) {
    Scoped s(tr, std::string("flow.stage.") + stage);
    PipelineOptions po;
    po.start_at = stage;
    po.stop_after = stage;
    (void)pipe.run(ctx, po);
    m.set(std::string("flow.stage.") + stage + "_ms", s.stop(), "ms");
  }
}

}  // namespace

Predictor small_predictor(const Netlist& design, const FlowConfig& cfg) {
  DatasetConfig dc = dataset_config(cfg);
  dc.layouts = 2;
  TrainConfig tc = ldpc_train_config(2);
  return train_predictor(build_dataset(design, dc), tc);
}

void replay_layers(const LayerInputs& in, Tracer& tr, Metrics& m) {
  Scoped root(tr, "replay.layers");
  const Netlist& design = *in.design;
  const FlowConfig& cfg = in.cfg;
  m.set("flow.calibrate_ms",
        replay(tr, "flow.calibrate", [&] { (void)calibrate(design, cfg); }), "ms");
  Placement3D gp;
  m.set("place.pseudo3d_ms", replay(tr, "place.pseudo3d", [&] {
          gp = place_pseudo3d(design, cfg.place_params, cfg.seed,
                              /*legalized=*/false, cfg.num_tiers);
        }), "ms");
  const GCellGrid grid(gp.outline, cfg.grid_nx, cfg.grid_ny);
  m.set("grid.feature_maps_ms", replay(tr, "grid.feature_maps", [&] {
          (void)compute_feature_maps(design, gp, grid);
        }), "ms");
  const DatasetConfig dc = dataset_config(cfg);
  DataSample sample;
  m.set("flow.dataset.sample_ms", replay(tr, "flow.dataset.sample", [&] {
          sample = make_sample(design, cfg.place_params, dc, dc.seed * 977);
        }), "ms");
  dco_iteration(design, gp, grid, *in.predictor, cfg, tr, m);
  unet_step(*in.predictor, sample, tr, m);
  trial_chain(design, gp, grid, cfg, tr, m);
  if (in.time_stages) baseline_stages(design, cfg, tr, m);
}

}  // namespace perfbench
