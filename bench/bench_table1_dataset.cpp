// Table I reproduction: the 3D placement-parameter space used to construct
// the training dataset (§III-A). Prints the 16 knobs with their types and
// ranges, samples the space, verifies coverage, and demonstrates the layout
// diversity the sampling produces (spread of overflow / WL / cut across
// sampled layouts of one design).
//
//   ./bench_table1_dataset [scale] [samples]

#include <array>

#include "bench_common.hpp"
#include "place/legalize.hpp"
#include "place/spreading.hpp"

using namespace dco3d;
using namespace dco3d::bench;

int main(int argc, char** argv) {
  const BenchConfig bcfg = BenchConfig::from_args(argc, argv);
  const int n_samples = argc > 2 ? std::atoi(argv[2]) : 300;  // paper: 300

  std::printf("== Table I: placement parameters for dataset construction ==\n\n");
  std::printf("%-38s %-6s\n", "Placement Parameter", "type");
  for (const ParamInfo& p : param_table())
    std::printf("%-38s %-6s\n", p.name, p.type);

  // Coverage check over the sampled space.
  Rng rng(7);
  std::array<double, 16> lo{}, hi{};
  lo.fill(1e18);
  hi.fill(-1e18);
  for (int i = 0; i < n_samples; ++i) {
    const auto enc = PlacementParams::sample(rng).encode();
    for (std::size_t k = 0; k < 16; ++k) {
      lo[k] = std::min(lo[k], enc[k]);
      hi[k] = std::max(hi[k], enc[k]);
    }
  }
  std::printf("\nsampled %d configurations; encoded-range coverage per knob:\n",
              n_samples);
  for (std::size_t k = 0; k < 16; ++k)
    std::printf("  %-38s [%.2f, %.2f]\n", param_table()[k].name, lo[k], hi[k]);

  // Layout diversity: build a handful of placements and report the spread of
  // the congestion/WL/cut metrics the sampling is designed to diversify.
  const DesignSpec spec = spec_for(DesignKind::kDma, bcfg.scale);
  const Netlist design = generate_design(spec);
  std::printf("\nlayout diversity on %s (%zu cells), %d sampled layouts:\n",
              spec.name.c_str(), design.num_cells(), bcfg.layouts);
  std::printf("%4s %10s %10s %8s %8s  %s\n", "#", "overflow", "WL(um)", "cut",
              "peak_d", "parameters");
  Rng lrng(spec.seed);
  double ovf_min = 1e18, ovf_max = -1e18;
  RouterConfig rcfg;
  bool calibrated = false;
  for (int i = 0; i < bcfg.layouts; ++i) {
    const PlacementParams p =
        i == 0 ? PlacementParams{} : PlacementParams::sample(lrng);
    const Placement3D pl = place_pseudo3d(design, p, 42);
    const GCellGrid grid(pl.outline, bcfg.map_hw, bcfg.map_hw);
    if (!calibrated) {
      rcfg = calibrated_router(design, pl, bcfg.map_hw, kCalibrationPctile);
      calibrated = true;
    }
    const RouteResult r = global_route(design, pl, grid, rcfg);
    const std::size_t cut = count_cut_nets(design, pl);
    SpreadConfig scfg;
    scfg.bins_x = scfg.bins_y = 8;  // coarse bins: cells >> fine-bin capacity
    const double peak = peak_bin_utilization(design, pl, scfg);
    std::printf("%4d %10.0f %10.0f %8zu %8.2f  %s\n", i, r.total_overflow,
                r.wirelength, cut, peak, p.summary().c_str());
    ovf_min = std::min(ovf_min, r.total_overflow);
    ovf_max = std::max(ovf_max, r.total_overflow);
  }
  std::printf("\noverflow spread across layouts: %.0f .. %.0f (%.1fx)\n", ovf_min,
              ovf_max, ovf_max / std::max(ovf_min, 1.0));
  return 0;
}
