#include "workloads.hpp"

#include "flow/stage.hpp"
#include "place/placer3d.hpp"

namespace perfbench {

using namespace dco3d;

Netlist make_ldpc() {
  DesignSpec spec = spec_for(DesignKind::kLdpc, kLdpcScale);
  spec.clock_period_ps = kLdpcClockPs;
  return generate_design(spec);
}

FlowConfig ldpc_flow_config() {
  FlowConfig cfg;
  cfg.timing.clock_period_ps = kLdpcClockPs;
  cfg.grid_nx = cfg.grid_ny = kLdpcGrid;
  cfg.num_tiers = 2;
  return cfg;
}

RouterConfig calibrate(const Netlist& design, const FlowConfig& cfg) {
  const Placement3D ref = place_pseudo3d(design, cfg.place_params, cfg.seed,
                                         /*legalized=*/true, cfg.num_tiers);
  return calibrated_router(design, ref, cfg.grid_nx, kCalibPercentile);
}

DatasetConfig ldpc_dataset_config(const RouterConfig& router, int layouts) {
  DatasetConfig dc;  // the library's default sampling seed
  dc.num_tiers = 2;
  dc.layouts = layouts;
  dc.grid_nx = dc.grid_ny = kLdpcGrid;
  dc.net_h = dc.net_w = kLdpcGrid;
  dc.router = router;
  return dc;
}

TrainConfig ldpc_train_config(int epochs) {
  TrainConfig tc;  // the library's default training seed
  tc.epochs = epochs;
  tc.unet.base_channels = 8;
  tc.unet.depth = 2;
  return tc;
}

}  // namespace perfbench
