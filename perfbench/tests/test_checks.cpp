// Each output check of the benchmark must pass on a correct output and fail
// on a corrupted one. Real outputs come from a small design (DMA at scale
// 0.02, grid 16) so the whole file runs in a few seconds.
//
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
//   (or: python3 perfbench/run.py --test)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "flow/dataset.hpp"
#include "flow/stage.hpp"
#include "grid/feature_maps.hpp"
#include "place/placer3d.hpp"

using namespace dco3d;
using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, const std::string& detail) {
  std::printf("%s  %s%s%s\n", ok ? "ok  " : "FAIL", what,
              detail.empty() ? "" : "  -- ", detail.c_str());
  if (!ok) ++g_failures;
}
// A check "passes" when it returns no reason, and "rejects" a corrupted
// output when its reason names what was corrupted (`why`).
#define EXPECT_PASSES(expr) \
  do { const std::string r_ = (expr); expect(r_.empty(), "passes: " #expr, r_); } while (0)
#define EXPECT_REJECTS(expr, why) \
  do {                                                                  \
    const std::string r_ = (expr);                                      \
    expect(r_.find(why) != std::string::npos, "rejects: " #expr, r_);  \
  } while (0)

Netlist small_design() {
  DesignSpec spec = spec_for(DesignKind::kDma, 0.02);
  return generate_design(spec);
}

void test_dco_checks(const Netlist& design, const RouterConfig& router) {
  const PlacementParams params;
  const Placement3D gp = place_pseudo3d(design, params, 1, /*legalized=*/false);
  const GCellGrid grid(gp.outline, 16, 16);
  const TrialRoute entering =
      independent_trial_route(design, gp, grid, router, params);
  EXPECT_PASSES(check_dco_not_worse(entering, entering));

  // A worse placement substituted for the DCO output: every movable cell
  // pulled halfway to the die centre on the bottom tier.
  Placement3D worse = gp;
  const Point c = gp.outline.center();
  for (std::size_t i = 0; i < worse.size(); ++i) {
    if (!design.is_movable(static_cast<CellId>(i))) continue;
    worse.xy[i] = {0.5 * (worse.xy[i].x + c.x), 0.5 * (worse.xy[i].y + c.y)};
    worse.tier[i] = 0;
  }
  const TrialRoute leaving =
      independent_trial_route(design, worse, grid, router, params);
  EXPECT_REJECTS(check_dco_not_worse(entering, leaving), "routes worse");

  EXPECT_PASSES(check_placement_sane(gp, design.num_cells(), "gp"));
  Placement3D bad_tier = gp;
  bad_tier.tier[3] = gp.num_tiers;
  EXPECT_REJECTS(check_placement_sane(bad_tier, design.num_cells(), "tier"),
                 "outside [0, 2)");
  Placement3D nan_xy = gp;
  nan_xy.xy[5].x = std::numeric_limits<double>::quiet_NaN();
  EXPECT_REJECTS(check_placement_sane(nan_xy, design.num_cells(), "nan"),
                 "non-finite");
  Placement3D outside = gp;
  outside.xy[7].y = gp.outline.yhi + gp.outline.height();
  EXPECT_REJECTS(check_placement_sane(outside, design.num_cells(), "outside"),
                 "outside the outline");
}

void test_route_checks(const Netlist& design, const RouterConfig& router) {
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.router = router;
  FlowContext ctx = make_flow_context(design, cfg);
  const FlowResult res = pin3d_pipeline().run(ctx);
  EXPECT_PASSES(check_route_totals(res.final_route));

  RouteResult wl = res.final_route;
  std::size_t n = 0;
  while (n < wl.net_routed_wl.size() && wl.net_routed_wl[n] == 0.0) ++n;
  wl.net_routed_wl[n] += res.grid.tile_width();  // one net's routed WL altered
  EXPECT_REJECTS(check_route_totals(wl), "per-net routed WL");

  RouteResult ovf = res.final_route;
  ovf.congestion[0][0] += 1.0f;  // one tile's overflow altered
  EXPECT_REJECTS(check_route_totals(ovf), "per-tile congestion");
}

void test_train_checks(const Netlist& design, const RouterConfig& router) {
  std::vector<EpochStats> curve = {{0, 1.0, 0.9}, {1, 0.8, 0.7}};
  EXPECT_PASSES(check_losses_finite(curve));
  EXPECT_PASSES(check_test_loss_drops(curve));
  std::vector<EpochStats> nan_curve = curve;
  nan_curve[1].train_loss = std::numeric_limits<double>::quiet_NaN();
  EXPECT_REJECTS(check_losses_finite(nan_curve), "non-finite");
  std::vector<EpochStats> rising = curve;
  rising[1].test_loss = 0.95;
  EXPECT_REJECTS(check_test_loss_drops(rising), "not below");

  DatasetConfig dc;
  dc.layouts = 3;  // 6 samples, so the 20% test split holds one
  dc.perturbed_per_layout = 1;
  dc.grid_nx = dc.grid_ny = dc.net_h = dc.net_w = 16;
  dc.router = router;
  const std::vector<DataSample> data = build_dataset(design, dc);
  TrainConfig tc;
  tc.epochs = 2;
  tc.unet.base_channels = 4;
  tc.unet.depth = 1;
  const Predictor pred = train_predictor(data, tc);
  std::vector<const DataSample*> train, test;
  split_dataset(data, tc.test_fraction, train, test);
  nn::UNetConfig saved = tc.unet;
  saved.in_channels = kNumFeatureChannels;
  saved.out_channels = 1;
  const std::string ckpt = save_checkpoint(pred, saved);
  EXPECT_PASSES(check_checkpoint_roundtrip(pred, ckpt, test));

  // Flip one mantissa bit of the first weight of the first tensor.
  std::string flipped = ckpt;
  const std::size_t line = flipped.find("\ntensor ");
  const std::size_t b = flipped.find('\n', line + 1) + 1;
  const std::size_t e = flipped.find_first_of(" \n", b);
  float w = std::strtof(flipped.substr(b, e - b).c_str(), nullptr);
  std::uint32_t bits;
  std::memcpy(&bits, &w, sizeof bits);
  bits ^= 1u << 22;
  std::memcpy(&w, &bits, sizeof bits);
  std::ostringstream os;
  os.precision(std::numeric_limits<float>::max_digits10);
  os << w;
  flipped.replace(b, e - b, os.str());
  EXPECT_REJECTS(check_checkpoint_roundtrip(pred, flipped, test),
                 "predictions differ");
}

JobReport done(const std::string& line) {
  JobReport r;
  std::string err;
  expect(parse_done_event(line, r, err), "parses a done event", err);
  return r;
}

void test_serve_checks() {
  const JobReport fresh = done(
      R"({"event":"done","job":"j1","state":"done","retriable":false,"wall_ms":12.5,"last_stage":7,"stages_run":8,"stages_cached":0,"deadline_hit":false,"key":"00000000deadbeef","overflow":81.25,"wns_ps":-3.5,"wirelength_um":1234.5})");
  const JobReport warm = done(
      R"({"event":"done","job":"j2","state":"done","retriable":false,"wall_ms":1.5,"last_stage":7,"stages_run":0,"stages_cached":8,"deadline_hit":false,"key":"00000000deadbeef","overflow":81.25,"wns_ps":-3.5,"wirelength_um":1234.5})");
  EXPECT_PASSES(check_job_done(fresh));
  EXPECT_PASSES(check_warm_matches(fresh, warm, 8));

  JobReport failed = fresh;
  failed.state = "failed";
  EXPECT_REJECTS(check_job_done(failed), "not done");
  JobReport partial = warm;
  partial.stages_cached = 7;
  partial.stages_run = 1;
  EXPECT_REJECTS(check_warm_matches(fresh, partial, 8), "replayed 7");
  JobReport other_key = warm;
  other_key.key = "00000000deadbeee";
  EXPECT_REJECTS(check_warm_matches(fresh, other_key, 8), "has key");
  JobReport other_metrics = warm;
  other_metrics.overflow = 81.0;
  EXPECT_REJECTS(check_warm_matches(fresh, other_metrics, 8),
                 "other metrics");

  StageMetrics direct;
  direct.overflow = 81.25;
  direct.wns_ps = -3.5;
  direct.wirelength_um = 1234.5;
  EXPECT_PASSES(check_direct_matches(fresh, direct));
  StageMetrics off = direct;
  off.wirelength_um = std::nextafter(1234.5, 2000.0);
  EXPECT_REJECTS(check_direct_matches(fresh, off), "direct run");

  const JobReport search = done(
      R"({"event":"done","job":"j3","state":"done","retriable":false,"wall_ms":40,"last_stage":-1,"stages_run":0,"stages_cached":0,"deadline_hit":false,"type":"search","objective":5.25,"rounds":1,"cheap_evals":4,"full_evals":3})");
  EXPECT_PASSES(check_search_objective(search, {7.0, 5.25, 6.0}));
  EXPECT_REJECTS(check_search_objective(search, {7.0, 5.0, 6.0}),
                 "not the best");
  EXPECT_REJECTS(check_search_objective(search, {}), "no full-fidelity");
}

/// The metric tables the program prints from list exactly the metrics of
/// BENCHMARK.json (read from the working directory, the checkout's root),
/// with the same units, in the same order.
void test_manifest_tables() {
  std::ifstream is("BENCHMARK.json");
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  expect(!json.empty(), "reads BENCHMARK.json", "run from the checkout's root");
  auto section = [&](const char* key) {
    const std::size_t b = json.find(std::string("\"") + key + "\"");
    const std::size_t e = json.find(']', b);
    return b == std::string::npos ? std::string() : json.substr(b, e - b);
  };
  auto compare = [&](const char* key, const std::vector<MetricSpec>& specs) {
    const std::string sec = section(key);
    std::vector<std::string> listed;
    for (std::size_t p = sec.find("\"name\": \""); p != std::string::npos;
         p = sec.find("\"name\": \"", p + 1)) {
      const std::size_t nb = p + 9, ne = sec.find('"', nb);
      const std::size_t ub = sec.find("\"unit\": \"", ne) + 9;
      listed.push_back(sec.substr(nb, ne - nb) + " [" +
                       sec.substr(ub, sec.find('"', ub) - ub) + "]");
    }
    std::vector<std::string> printed;
    for (const MetricSpec& m : specs)
      printed.push_back(std::string(m.name) + " [" + m.unit + "]");
    std::string diff;
    for (std::size_t i = 0; i < std::max(listed.size(), printed.size()); ++i) {
      const std::string a = i < listed.size() ? listed[i] : "-";
      const std::string b = i < printed.size() ? printed[i] : "-";
      if (a != b && diff.empty()) diff = "manifest " + a + " vs program " + b;
    }
    expect(diff.empty(), key, diff);
  };
  compare("end_to_end", end_to_end_metrics());
  compare("per_layer", per_layer_metrics());
}

}  // namespace

int main() {
  const Netlist design = small_design();
  const Placement3D ref = place_pseudo3d(design, PlacementParams{}, 1, true);
  const RouterConfig router = calibrated_router(design, ref, 16, 0.70);
  test_dco_checks(design, router);
  test_route_checks(design, router);
  test_train_checks(design, router);
  test_serve_checks();
  test_manifest_tables();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures ? 1 : 0;
}
