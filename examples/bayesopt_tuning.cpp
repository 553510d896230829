// Bayesian-optimization example: tune the Table-I placement knobs of one
// design against post-placement routing overflow — the "Pin-3D + BO"
// baseline [19] as a standalone tool.
//
//   ./examples/bayesopt_tuning [design] [scale] [iterations]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "flow/stage.hpp"
#include "netlist/generators.hpp"
#include "place/placer3d.hpp"
#include "route/router.hpp"
#include "search/searcher.hpp"

using namespace dco3d;

int main(int argc, char** argv) {
  Status kind_err;
  const DesignKind kind =
      argc > 1 ? parse_serve_kind(argv[1], kind_err) : DesignKind::kDma;
  if (!kind_err.ok()) {
    std::fprintf(stderr, "%s\n", kind_err.to_string().c_str());
    return 2;
  }
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.04;
  const int iterations = argc > 3 ? std::atoi(argv[3]) : 10;

  const DesignSpec spec = spec_for(kind, scale);
  const Netlist design = generate_design(spec);
  std::printf("== BO tuning of placement parameters on %s (%zu cells) ==\n",
              spec.name.c_str(), design.num_cells());

  // Fixed capacity model calibrated on the default configuration.
  PlacementParams default_params;
  const Placement3D ref = place_pseudo3d(design, default_params, 42);
  const RouterConfig router =
      calibrated_router(design, ref, 48, kCalibrationPctile);

  // Objective: total routing overflow of the legalized placement.
  auto objective = [&](const PlacementParams& p) {
    const Placement3D pl = place_pseudo3d(design, p, 42);
    const GCellGrid g(pl.outline, 48, 48);
    return global_route(design, pl, g, router).total_overflow;
  };

  Rng rng(11);
  BoConfig cfg;
  cfg.init_samples = 5;
  cfg.iterations = iterations;
  const BoResult res = bayes_optimize(objective, cfg, rng);

  std::printf("\n%4s %12s  %s\n", "#", "overflow", "parameters");
  double best_so_far = 1e18;
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    best_so_far = std::min(best_so_far, res.trace[i].objective);
    std::printf("%4zu %12.0f  %s%s\n", i, res.trace[i].objective,
                res.trace[i].params.summary().c_str(),
                res.trace[i].objective == best_so_far ? "  <- best" : "");
  }
  std::printf("\ndefault-config overflow: %.0f\n", res.trace[0].objective);
  std::printf("best overflow found:     %.0f (%.1f%% better)\n",
              res.best_objective,
              100.0 * (res.trace[0].objective - res.best_objective) /
                  std::max(res.trace[0].objective, 1.0));
  std::printf("best parameters: %s\n", res.best_params.summary().c_str());
  return 0;
}
