// Full DCO-3D demonstration on the LDPC benchmark (the paper's Fig. 6/7
// showcase design): build a layout dataset, train the Siamese congestion
// predictor (Alg. 1), then run the Pin-3D flow with and without the
// differentiable congestion optimizer (Alg. 2) and compare end-of-flow PPA.
//
//   ./examples/full_flow_ldpc [scale] [layouts] [epochs]

#include <cstdio>
#include <cstdlib>

#include "core/dco.hpp"
#include "core/trainer.hpp"
#include "flow/pin3d.hpp"
#include "flow/stage.hpp"
#include "netlist/generators.hpp"

using namespace dco3d;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.04;
  const int layouts = argc > 2 ? std::atoi(argv[2]) : 16;
  const int epochs = argc > 3 ? std::atoi(argv[3]) : 8;

  const DesignSpec spec = spec_for(DesignKind::kLdpc, scale);
  const Netlist design = generate_design(spec);
  std::printf("== LDPC: %zu cells, %zu nets ==\n", design.num_cells(),
              design.num_nets());

  // --- Stage A: dataset construction (§III-A, Table I sampling). ---
  DatasetConfig dcfg;
  dcfg.layouts = layouts;
  std::printf("building %d layouts for training...\n", layouts);
  const std::vector<DataSample> dataset = build_dataset(design, dcfg);

  // --- Stage B: train the Siamese UNet (Alg. 1). ---
  TrainConfig tcfg;
  tcfg.epochs = epochs;
  std::printf("training Siamese UNet (%d epochs)...\n", epochs);
  const Predictor predictor = train_predictor(dataset, tcfg);
  for (const EpochStats& e : predictor.curve)
    std::printf("  epoch %2d  train %.4f  test %.4f\n", e.epoch, e.train_loss,
                e.test_loss);

  // --- Stage C: Pin-3D baseline vs DCO-3D. ---
  FlowConfig fcfg;
  fcfg.timing.clock_period_ps = spec.clock_period_ps;
  fcfg.seed = 42;

  std::printf("\nrunning Pin-3D baseline flow...\n");
  const FlowResult base = run_pin3d_flow(design, fcfg);

  std::printf("running DCO-3D flow...\n");
  DcoConfig dco_cfg;
  dco_cfg.grid_nx = dcfg.net_w;
  dco_cfg.grid_ny = dcfg.net_h;
  FlowContext ctx = make_flow_context(design, fcfg);
  DcoResult r;
  attach_dco(ctx, predictor, dco_cfg, &r);
  const FlowResult ours = pin3d_pipeline().run(ctx);
  std::printf("  DCO: %zu iters, best @%d (loss %.4f), %zu cells moved tier\n",
              r.trace.size(), r.best_iter, r.best_loss, r.cells_moved_tier);

  std::printf("\n%-16s %9s %8s %8s %8s %10s %12s %9s %12s\n", "flow", "overflow",
              "ovf%", "H ovf", "V ovf", "wns(ps)", "tns(ps)", "power(mW)",
              "WL(um)");
  std::printf("-- after 3D placement --\n");
  std::printf("%s\n", base.after_place.row("Pin3D").c_str());
  std::printf("%s\n", ours.after_place.row("DCO-3D (ours)").c_str());
  std::printf("-- after signoff --\n");
  std::printf("%s\n", base.signoff.row("Pin3D").c_str());
  std::printf("%s\n", ours.signoff.row("DCO-3D (ours)").c_str());

  const double ovf_gain =
      100.0 * (base.after_place.overflow - ours.after_place.overflow) /
      std::max(base.after_place.overflow, 1.0);
  std::printf("\noverflow improvement after placement: %.1f%%\n", ovf_gain);
  return 0;
}
