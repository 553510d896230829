#pragma once
// Output checks of the benchmark. Each check compares a program output with
// an independent computation or with a property the method must have, and
// returns an empty string when the output passes or a one-line reason when
// it does not. They are plain functions of the outputs so the tests in
// perfbench/tests can feed them corrupted outputs.

#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "flow/pin3d.hpp"
#include "grid/gcell_grid.hpp"
#include "netlist/netlist.hpp"
#include "place/params.hpp"
#include "route/router.hpp"

namespace perfbench {

// --- dco_ldpc -------------------------------------------------------------

/// Result of the independent trial route: CTS on a copy, legalize, then
/// global_route with the DCO router config (the replay of the downstream
/// flow that DESIGN.md hardening note 3 speaks of).
struct TrialRoute {
  double overflow = 0.0;
  double wirelength = 0.0;
  /// Overflow with wirelength as a tie-breaker, the way run_dco ranks
  /// candidates.
  double score() const { return overflow + 1e-5 * wirelength; }
};

TrialRoute independent_trial_route(const dco3d::Netlist& netlist,
                                   const dco3d::Placement3D& placement,
                                   const dco3d::GCellGrid& grid,
                                   const dco3d::RouterConfig& router,
                                   const dco3d::PlacementParams& legalize);

/// The placement leaving the dco stage is no worse than the one entering it.
std::string check_dco_not_worse(const TrialRoute& entering,
                                const TrialRoute& leaving);

/// Tiers in [0, K), coordinates finite and inside the outline.
std::string check_placement_sane(const dco3d::Placement3D& placement,
                                 std::size_t num_cells, const std::string& what);

/// Per-net routed WL sums to the total wirelength, and the per-tile
/// congestion maps sum to the total overflow (within float tolerance).
std::string check_route_totals(const dco3d::RouteResult& route);

// --- train_ldpc -----------------------------------------------------------

std::string check_losses_finite(const std::vector<dco3d::EpochStats>& curve);
/// The last epoch's held-out loss is below the first epoch's.
std::string check_test_loss_drops(const std::vector<dco3d::EpochStats>& curve);

/// Serialize the predictor with save_predictor.
std::string save_checkpoint(const dco3d::Predictor& predictor,
                            const dco3d::nn::UNetConfig& cfg);
/// Load `checkpoint` with load_predictor and compare its predictions on the
/// held-out samples bit for bit with `predictor`'s.
std::string check_checkpoint_roundtrip(
    const dco3d::Predictor& predictor, const std::string& checkpoint,
    const std::vector<const dco3d::DataSample*>& held_out);

// --- serve_mix ------------------------------------------------------------

/// The final ("done") event of a served job, as a client sees it.
struct JobReport {
  std::string id;
  std::string state;
  std::string key;
  int stages_run = 0;
  int stages_cached = 0;
  double wall_ms = 0.0;
  bool has_metrics = false;
  double overflow = 0.0, wns_ps = 0.0, wirelength_um = 0.0;
  bool has_objective = false;
  double objective = 0.0;
  int rounds = 0, cheap_evals = 0, full_evals = 0;
};

/// Parse a "done" event line; returns false (with `err`) when malformed.
bool parse_done_event(const std::string& line, JobReport& out, std::string& err);

std::string check_job_done(const JobReport& job);
/// A warm resubmit reports every stage cached and the fresh run's key and
/// metrics.
std::string check_warm_matches(const JobReport& fresh, const JobReport& warm,
                               int num_stages);
/// A fresh served job's metrics equal a direct in-process run's.
std::string check_direct_matches(const JobReport& fresh,
                                 const dco3d::StageMetrics& direct_signoff);
/// The search objective equals the best of the full-fidelity evaluations it
/// streamed.
std::string check_search_objective(const JobReport& search,
                                   const std::vector<double>& full_objectives);

}  // namespace perfbench
