#pragma once
// Shared utilities for the table/figure reproduction harnesses.
//
// All harnesses run at a reduced scale (see DESIGN.md §"Scaling
// substitutions"): design sizes, map resolution, dataset size, and training
// epochs are configurable via argv so the full Table III regenerates in
// minutes on a laptop while preserving the paper's comparisons.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/dco.hpp"
#include "core/trainer.hpp"
#include "flow/pin3d.hpp"
#include "flow/stage.hpp"
#include "netlist/generators.hpp"
#include "search/searcher.hpp"

namespace dco3d::bench {

/// Common knobs for every harness.
struct BenchConfig {
  double scale = 0.04;   // fraction of the paper's design sizes
  int map_hw = 48;       // CNN input + DCO grid resolution (paper: 224)
  int layouts = 8;       // dataset layouts per design (paper: 300)
  int epochs = 6;        // predictor training epochs
  int bo_init = 4;       // BO warm-up evaluations
  int bo_iters = 8;      // BO optimization steps

  static BenchConfig from_args(int argc, char** argv) {
    BenchConfig cfg;
    if (argc > 1) cfg.scale = std::atof(argv[1]);
    if (argc > 2) cfg.layouts = std::atoi(argv[2]);
    if (argc > 3) cfg.epochs = std::atoi(argv[3]);
    return cfg;
  }
};

/// Flow configuration matched to a design spec and bench config, with
/// router capacities calibrated once on the stock Pin-3D placement (the
/// same capacity model must be shared by every flow variant of a design —
/// see calibrated_router).
inline FlowConfig make_flow_config(const DesignSpec& spec, const BenchConfig& b,
                                   const Netlist& design) {
  FlowConfig cfg;
  cfg.timing.clock_period_ps = spec.clock_period_ps;
  cfg.grid_nx = cfg.grid_ny = b.map_hw;
  cfg.seed = 42;  // one shared seed across all flows (Table III caption)

  cfg.router = calibrated_router(
      design, place_pseudo3d(design, cfg.place_params, cfg.seed), cfg.grid_nx,
      kCalibrationPctile);
  return cfg;
}

/// Train a congestion predictor for one design (stages A+B of the flow).
/// Labels are generated with the same calibrated router the flows use.
inline Predictor train_for_design(const Netlist& design, const DesignSpec& spec,
                                  const BenchConfig& b, const RouterConfig& router) {
  DatasetConfig dcfg;
  dcfg.layouts = b.layouts;
  dcfg.grid_nx = dcfg.grid_ny = b.map_hw;
  dcfg.net_h = dcfg.net_w = b.map_hw;
  dcfg.router = router;
  dcfg.seed = spec.seed;
  TrainConfig tcfg;
  tcfg.epochs = b.epochs;
  tcfg.unet.base_channels = 8;
  tcfg.unet.depth = 2;
  const auto dataset = build_dataset(design, dcfg);
  return train_predictor(dataset, tcfg);
}

/// Run the DCO-3D flow (Pin-3D + Alg. 2 hook) for one design. The optimizer
/// is applied in up to three chained passes (features and graph re-derived
/// from the previous pass's result) while it keeps finding improvements.
inline FlowResult run_dco_flow(const Netlist& design, const Predictor& predictor,
                               const FlowConfig& fcfg, const BenchConfig& b) {
  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = b.map_hw;
  dcfg.router = fcfg.router;
  dcfg.legalize_params = fcfg.place_params;
  const TimingConfig tcfg = fcfg.timing;
  return run_pin3d_flow(design, fcfg, [&](const Netlist& nl, Placement3D& pl) {
    for (int pass = 0; pass < 2; ++pass) {
      DcoConfig pass_cfg = dcfg;
      pass_cfg.seed = dcfg.seed + static_cast<std::uint64_t>(pass) * 101;
      const DcoResult r = run_dco(nl, pl, predictor, tcfg, pass_cfg);
      pl = r.placement;
      if (!r.improved) break;
    }
  });
}

/// Percent improvement of `ours` over `base` (positive = better/lower).
inline double pct_gain(double base, double ours) {
  if (base == 0.0) return 0.0;
  return 100.0 * (base - ours) / std::abs(base);
}

inline void print_table_header() {
  std::printf("%-16s %9s %8s %8s %8s %10s %12s %10s %12s\n", "flow", "overflow",
              "ovf%", "H ovf", "V ovf", "wns(ps)", "tns(ps)", "power(mW)",
              "WL(um)");
}

}  // namespace dco3d::bench
