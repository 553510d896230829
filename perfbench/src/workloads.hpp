#pragma once
// The benchmark's workloads and the inputs they generate from the seed.
// The make-up of every input is documented in perfbench/README.md.

#include <cstdint>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "flow/dataset.hpp"
#include "flow/pin3d.hpp"
#include "netlist/generators.hpp"

namespace perfbench {

// --- Inputs ---------------------------------------------------------------

inline constexpr double kLdpcScale = 0.04;
inline constexpr int kLdpcGrid = 48;
inline constexpr double kLdpcClockPs = 200.0;
inline constexpr double kCalibPercentile = 0.70;

/// LDPC at scale 0.04 with the generator's own seed: a fixed design, so
/// the QoR figures compare like with like across seeds.
dco3d::Netlist make_ldpc();

/// FlowConfig of the LDPC workloads (grid 48, 2 tiers, 200 ps clock, the
/// flow's default placement seed).
dco3d::FlowConfig ldpc_flow_config();

/// Router calibration as every user-facing entry point does it: a
/// legalized pseudo-3D reference placement, then capacities at the 70th
/// usage percentile on the config's grid.
dco3d::RouterConfig calibrate(const dco3d::Netlist& design,
                              const dco3d::FlowConfig& cfg);

/// Dataset and trainer configuration of `dco3d train` on LDPC (grid 48,
/// UNet base 8, depth 2, the library's default seeds), with the layout and
/// epoch counts given.
dco3d::DatasetConfig ldpc_dataset_config(const dco3d::RouterConfig& router,
                                         int layouts);
dco3d::TrainConfig ldpc_train_config(int epochs);

/// A small predictor for the design (2 layouts, 2 epochs, UNet base 8
/// depth 2 at the config's grid), for workloads that train none of their own.
dco3d::Predictor small_predictor(const dco3d::Netlist& design,
                                 const dco3d::FlowConfig& cfg);

// --- Per-layer replays ----------------------------------------------------

/// What the layer replays run on: the workload's own design and flow
/// config (grid, 2 tiers, calibrated router, timing, placement seed), and a
/// predictor for the design.
struct LayerInputs {
  const dco3d::Netlist* design = nullptr;
  dco3d::FlowConfig cfg;
  const dco3d::Predictor* predictor = nullptr;
  /// Also time a baseline flow (no DCO), one pipeline call per stage, for
  /// the flow.stage.* metrics; off where the workload's own flow gives them.
  bool time_stages = true;
};

/// Time kReplays calls of each layer's public function on a pseudo-3D
/// placement of the design: calibration, placement, feature maps, one
/// dataset sample, one UNet training step, one DCO gradient iteration, one
/// trial evaluation (netlist copy, CTS, legalize, route) and STA. Sets the
/// per-layer timings of BENCHMARK.json (medians) in `m`.
void replay_layers(const LayerInputs& in, Tracer& tr, Metrics& m);

// --- Workloads ------------------------------------------------------------
// Each fills `m` with the end-to-end metrics (untraced) or the per-layer
// metrics (traced) of BENCHMARK.json, puts its own further figures in the
// result's details, and reports what it attempted and whether the outputs
// passed the checks.

RunResult run_dco_ldpc(const Options& opt, Tracer& tr, Metrics& m);
RunResult run_train_ldpc(const Options& opt, Tracer& tr, Metrics& m);
RunResult run_serve_mix(const Options& opt, Tracer& tr, Metrics& m);

}  // namespace perfbench
