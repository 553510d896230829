// Quickstart: generate a benchmark design, run the Pin-3D baseline flow, and
// print the Table III-style metrics for both evaluation stages.
//
//   ./examples/quickstart [design] [scale]
//     design: dma|aes|ecg|ldpc|vga|rocket|memlogic|macroheavy (default ldpc)
//     scale:  fraction of the paper's design size (default 0.05)

#include <cstdio>
#include <cstring>
#include <string>

#include "flow/pin3d.hpp"
#include "flow/stage.hpp"
#include "netlist/generators.hpp"
#include "place/placer3d.hpp"

using namespace dco3d;

int main(int argc, char** argv) {
  Status kind_err;
  const DesignKind kind =
      argc > 1 ? parse_serve_kind(argv[1], kind_err) : DesignKind::kLdpc;
  if (!kind_err.ok()) {
    std::fprintf(stderr, "%s\n", kind_err.to_string().c_str());
    return 2;
  }
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.05;

  const DesignSpec spec = spec_for(kind, scale);
  std::printf("== DCO-3D quickstart: %s (scale %.3f) ==\n", spec.name.c_str(), scale);
  const Netlist design = generate_design(spec);
  std::printf("cells=%zu nets=%zu ios=%zu movable_area=%.1f um^2\n",
              design.num_cells(), design.num_nets(), design.num_ios(),
              design.total_movable_area());

  FlowConfig cfg;
  cfg.timing.clock_period_ps = spec.clock_period_ps;
  cfg.seed = 42;
  // Calibrate routing capacities on the default placement (see DESIGN.md).
  cfg.router = calibrated_router(
      design, place_pseudo3d(design, cfg.place_params, cfg.seed), cfg.grid_nx,
      kCalibrationPctile);

  const FlowResult r = run_pin3d_flow(design, cfg);

  std::printf("\n%-16s %9s %8s %8s %8s %10s %12s %9s %12s\n", "stage", "overflow",
              "ovf%", "H ovf", "V ovf", "wns(ps)", "tns(ps)", "power(mW)",
              "WL(um)");
  std::printf("%s\n", r.after_place.row("after placement").c_str());
  std::printf("%s\n", r.signoff.row("signoff").c_str());
  std::printf("\nCTS: %zu buffers, %zu levels, max skew %.1f ps\n",
              r.cts.buffers_inserted, r.cts.levels, r.cts.max_skew_ps);
  std::printf("signoff: %zu upsized, %zu downsized cells\n",
              r.signoff_detail.upsized, r.signoff_detail.downsized);
  return 0;
}
