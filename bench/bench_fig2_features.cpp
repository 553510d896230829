// Fig. 2 reproduction: the seven input feature maps of a 3D global placement
// and the post-route congestion ground truth for both dies, rendered as
// per-map statistics plus ASCII heat maps.
//
//   ./bench_fig2_features [scale]

#include "bench_common.hpp"
#include "flow/cts.hpp"
#include "place/legalize.hpp"
#include "util/stats.hpp"

using namespace dco3d;
using namespace dco3d::bench;

int main(int argc, char** argv) {
  const BenchConfig bcfg = BenchConfig::from_args(argc, argv);
  const DesignSpec spec = spec_for(DesignKind::kAes, bcfg.scale);
  Netlist design = generate_design(spec);
  std::printf("== Fig. 2: feature maps & ground truth (%s, %zu cells) ==\n",
              spec.name.c_str(), design.num_cells());

  PlacementParams params;
  Placement3D pl = place_pseudo3d(design, params, 42, /*legalized=*/false);
  const GCellGrid grid(pl.outline, bcfg.map_hw, bcfg.map_hw);
  const FeatureMaps fm = compute_feature_maps(design, pl, grid);

  static constexpr const char* kNames[] = {
      "cell density", "pin density", "2D RUDY", "3D RUDY",
      "2D PinRUDY",   "3D PinRUDY",  "macro blockage"};

  const auto hw = static_cast<std::size_t>(grid.num_tiles());
  std::printf("\n%-16s %6s %12s %12s %12s %12s\n", "feature", "die", "min",
              "mean", "max", "nonzero%");
  for (int die = 0; die < 2; ++die) {
    for (int ch = 0; ch < kNumFeatureChannels; ++ch) {
      auto m = fm.die[die].data().subspan(static_cast<std::size_t>(ch) * hw, hw);
      std::printf("%-16s %6s %12.4f %12.4f %12.4f %11.1f%%\n", kNames[ch],
                  die ? "top" : "bot", min_of(m), mean(m), max_of(m),
                  100.0 * fraction_above(m, 1e-9));
    }
  }

  // Ground truth: finish the flow (CTS + legalize + route) as in §III-A.
  run_cts(design, pl);
  legalize_all(design, pl, params);
  const RouterConfig rcfg =
      calibrated_router(design, pl, bcfg.map_hw, kCalibrationPctile);
  const RouteResult route = global_route(design, pl, grid, rcfg);

  std::printf("\npost-route ground-truth congestion:\n");
  for (int die = 0; die < 2; ++die) {
    std::printf("  die %s: total tile overflow %.1f, max %.2f\n",
                die ? "top" : "bot",
                static_cast<double>([&] {
                  double s = 0;
                  for (float v : route.congestion[die]) s += v;
                  return s;
                }()),
                max_of(route.congestion[die]));
  }

  // Visual comparison for the top die: 2D RUDY vs ground-truth congestion.
  auto rudy_top = fm.die[1].data().subspan(static_cast<std::size_t>(kRudy2D) * hw, hw);
  std::printf("\n2D RUDY (top die):\n%s",
              ascii_heatmap(rudy_top, static_cast<std::size_t>(grid.ny()),
                            static_cast<std::size_t>(grid.nx()))
                  .c_str());
  std::printf("\nground-truth congestion (top die):\n%s",
              ascii_heatmap(route.congestion[1], static_cast<std::size_t>(grid.ny()),
                            static_cast<std::size_t>(grid.nx()))
                  .c_str());
  std::printf("\ncell density (top die):\n%s",
              ascii_heatmap(fm.die[1].data().subspan(
                                static_cast<std::size_t>(kCellDensity) * hw, hw),
                            static_cast<std::size_t>(grid.ny()),
                            static_cast<std::size_t>(grid.nx()))
                  .c_str());
  return 0;
}
