#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "flow/cts.hpp"
#include "io/model_io.hpp"
#include "place/legalize.hpp"
#include "util/jsonl.hpp"

namespace perfbench {

using namespace dco3d;

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

bool close_rel(double a, double b, double rel, double abs_floor) {
  return std::abs(a - b) <= std::max(abs_floor, rel * std::max(std::abs(a), std::abs(b)));
}

}  // namespace

TrialRoute independent_trial_route(const Netlist& netlist,
                                   const Placement3D& placement,
                                   const GCellGrid& grid,
                                   const RouterConfig& router,
                                   const PlacementParams& legalize) {
  Netlist work = netlist;
  Placement3D legal = placement;
  run_cts(work, legal);
  legalize_all(work, legal, legalize);
  const RouteResult r = global_route(work, legal, grid, router);
  return {r.total_overflow, r.wirelength};
}

std::string check_dco_not_worse(const TrialRoute& entering,
                                const TrialRoute& leaving) {
  if (!std::isfinite(leaving.score()))
    return "dco: leaving placement has a non-finite trial-route score";
  if (leaving.score() > entering.score() + 1e-6)
    return fmt("dco: placement leaving the stage routes worse than the one "
               "entering it (trial score %.6f > %.6f)",
               leaving.score(), entering.score());
  return "";
}

std::string check_placement_sane(const Placement3D& pl, std::size_t num_cells,
                                 const std::string& what) {
  if (pl.xy.size() != num_cells || pl.tier.size() != num_cells)
    return what + ": placement size does not match the netlist";
  const double tol = 1e-6 * std::max(pl.outline.width(), pl.outline.height());
  for (std::size_t i = 0; i < num_cells; ++i) {
    const int t = pl.tier[i];
    if (t < 0 || t >= pl.num_tiers)
      return what + ": cell " + std::to_string(i) + " on tier " +
             std::to_string(t) + " outside [0, " +
             std::to_string(pl.num_tiers) + ")";
    const Point& p = pl.xy[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y))
      return what + ": cell " + std::to_string(i) + " has a non-finite coordinate";
    if (p.x < pl.outline.xlo - tol || p.x > pl.outline.xhi + tol ||
        p.y < pl.outline.ylo - tol || p.y > pl.outline.yhi + tol)
      return what + ": cell " + std::to_string(i) + " lies outside the outline";
  }
  return "";
}

std::string check_route_totals(const RouteResult& r) {
  double net_wl = 0.0;
  for (double w : r.net_routed_wl) net_wl += w;
  if (!close_rel(net_wl, r.wirelength, 1e-9, 1e-6))
    return fmt("route: per-net routed WL sums to %.6f but wirelength is %.6f",
               net_wl, r.wirelength);
  double tiles = 0.0;
  for (const auto& die : r.congestion)
    for (float v : die) tiles += v;
  // Tile maps are float32 and split each edge's overflow between its two
  // tiles, so they agree with the double total to float precision.
  if (!close_rel(tiles, r.total_overflow, 1e-5, 1e-3))
    return fmt("route: per-tile congestion sums to %.6f but total_overflow "
               "is %.6f",
               tiles, r.total_overflow);
  return "";
}

std::string check_losses_finite(const std::vector<EpochStats>& curve) {
  if (curve.empty()) return "train: no epochs recorded";
  for (const EpochStats& e : curve)
    if (!std::isfinite(e.train_loss) || !std::isfinite(e.test_loss))
      return "train: non-finite loss at epoch " + std::to_string(e.epoch);
  return "";
}

std::string check_test_loss_drops(const std::vector<EpochStats>& curve) {
  if (curve.size() < 2) return "train: fewer than two epochs recorded";
  if (!(curve.back().test_loss < curve.front().test_loss))
    return fmt("train: last test loss %.6f is not below the first %.6f",
               curve.back().test_loss, curve.front().test_loss);
  return "";
}

std::string save_checkpoint(const Predictor& predictor,
                            const nn::UNetConfig& cfg) {
  std::ostringstream os;
  save_predictor(os, predictor, cfg);
  return os.str();
}

std::string check_checkpoint_roundtrip(
    const Predictor& predictor, const std::string& checkpoint,
    const std::vector<const DataSample*>& held_out) {
  if (held_out.empty()) return "checkpoint: no held-out samples to compare";
  Predictor loaded;
  try {
    std::istringstream is(checkpoint);
    loaded = load_predictor(is);
  } catch (const std::exception& e) {
    return std::string("checkpoint: reload failed: ") + e.what();
  }
  for (std::size_t s = 0; s < held_out.size(); ++s) {
    const std::vector<nn::Tensor> a = predictor.predict(*held_out[s]);
    const std::vector<nn::Tensor> b = loaded.predict(*held_out[s]);
    if (a.size() != b.size())
      return "checkpoint: reloaded model predicts a different tier count";
    for (std::size_t t = 0; t < a.size(); ++t) {
      if (a[t].numel() != b[t].numel() ||
          std::memcmp(a[t].data().data(), b[t].data().data(),
                      static_cast<std::size_t>(a[t].numel()) * sizeof(float)) != 0)
        return "checkpoint: reloaded predictions differ on held-out sample " +
               std::to_string(s) + " tier " + std::to_string(t);
    }
  }
  return "";
}

bool parse_done_event(const std::string& line, JobReport& out,
                      std::string& err) {
  util::JsonObject o;
  const Status st = util::parse_json_object(line, o);
  if (!st.ok()) {
    err = "malformed done event: " + st.message();
    return false;
  }
  if (util::json_str(o, "event") != "done") {
    err = "not a done event: " + line;
    return false;
  }
  out.id = util::json_str(o, "job");
  out.state = util::json_str(o, "state");
  out.key = util::json_str(o, "key");
  out.stages_run = static_cast<int>(util::json_num(o, "stages_run"));
  out.stages_cached = static_cast<int>(util::json_num(o, "stages_cached"));
  out.wall_ms = util::json_num(o, "wall_ms");
  out.has_metrics = util::json_has(o, "overflow");
  out.overflow = util::json_num(o, "overflow");
  out.wns_ps = util::json_num(o, "wns_ps");
  out.wirelength_um = util::json_num(o, "wirelength_um");
  out.has_objective = util::json_has(o, "objective");
  out.objective = util::json_num(o, "objective");
  out.rounds = static_cast<int>(util::json_num(o, "rounds"));
  out.cheap_evals = static_cast<int>(util::json_num(o, "cheap_evals"));
  out.full_evals = static_cast<int>(util::json_num(o, "full_evals"));
  return true;
}

std::string check_job_done(const JobReport& job) {
  if (job.state != "done")
    return "serve: job " + job.id + " ended '" + job.state + "', not done";
  return "";
}

std::string check_warm_matches(const JobReport& fresh, const JobReport& warm,
                               int num_stages) {
  if (warm.stages_cached != num_stages || warm.stages_run != 0)
    return "serve: warm resubmit " + warm.id + " ran " +
           std::to_string(warm.stages_run) + " stages and replayed " +
           std::to_string(warm.stages_cached) + " (want 0 and " +
           std::to_string(num_stages) + ")";
  if (warm.key != fresh.key)
    return "serve: warm resubmit " + warm.id + " has key " + warm.key +
           " but its fresh run " + fresh.id + " had " + fresh.key;
  if (!warm.has_metrics || warm.overflow != fresh.overflow ||
      warm.wns_ps != fresh.wns_ps || warm.wirelength_um != fresh.wirelength_um)
    return "serve: warm resubmit " + warm.id +
           " reports other metrics than its fresh run " + fresh.id;
  return "";
}

std::string check_direct_matches(const JobReport& fresh,
                                 const StageMetrics& direct) {
  // The protocol prints doubles with max_digits10, so they round-trip
  // exactly; any difference is a real one.
  if (!fresh.has_metrics || fresh.overflow != direct.overflow ||
      fresh.wns_ps != direct.wns_ps ||
      fresh.wirelength_um != direct.wirelength_um) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "serve: job %s reports overflow/wns/wl %.17g/%.17g/%.17g but "
                  "a direct run gives %.17g/%.17g/%.17g",
                  fresh.id.c_str(), fresh.overflow, fresh.wns_ps,
                  fresh.wirelength_um, direct.overflow, direct.wns_ps,
                  direct.wirelength_um);
    return buf;
  }
  return "";
}

std::string check_search_objective(const JobReport& search,
                                   const std::vector<double>& full_objectives) {
  if (!search.has_objective)
    return "search: job " + search.id + " reports no objective";
  if (full_objectives.empty())
    return "search: job " + search.id + " streamed no full-fidelity evaluation";
  double best = full_objectives.front();
  for (double v : full_objectives) best = std::min(best, v);
  if (search.objective != best)
    return fmt("search: objective %.17g is not the best full-fidelity "
               "evaluation streamed (%.17g)",
               search.objective, best);
  return "";
}

}  // namespace perfbench
