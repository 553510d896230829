#pragma once
// The shared evaluation contract between the knob searcher (src/search) and
// the flow engine (src/flow). An Evaluator maps a PlacementParams point to a
// scalar objective at one of two fidelities:
//
//   * kCheap — the flow runs only through the congestion-prediction stage
//     ("after-place-metrics" by default, i.e. place3d → dco → legalized
//     congestion/timing estimate), the view the trained predictor scores;
//   * kFull  — the whole Pin-3D pipeline through signoff/final-metrics.
//
// Both fidelities return a common EvalResult carrying the objective, the
// fidelity tag, stage provenance (how deep the flow ran, how much came from
// the artifact cache) and the run status, so the searcher can screen with
// cheap evaluations and promote only the top fraction to full flows
// (docs/search.md).

#include <atomic>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/guard.hpp"
#include "flow/pin3d.hpp"
#include "netlist/netlist.hpp"
#include "place/params.hpp"
#include "util/status.hpp"

namespace dco3d {

class ArtifactCache;

enum class Fidelity { kCheap, kFull };

/// "cheap" / "full" — the tags used in search trace records.
const char* fidelity_name(Fidelity f);

/// What one evaluation produced. A failed or early-committed run reports a
/// non-OK status and an infinite objective; the searcher excludes it from
/// the surrogate's observations.
struct EvalResult {
  double objective = std::numeric_limits<double>::infinity();
  Fidelity fidelity = Fidelity::kFull;
  Status status;            // OK, or why the evaluation is unusable
  std::string stop_stage;   // deepest pipeline stage satisfied (provenance)
  int stages_run = 0;       // stage bodies executed
  int stages_cached = 0;    // stages replayed from the artifact cache
  double wall_ms = 0.0;
};

/// Abstract evaluation backend. evaluate_many is the batched entry point the
/// searcher uses for each round; the default runs the points sequentially
/// (safe for arbitrary callables), FlowEvaluator overrides it to run them
/// concurrently through the batch runner's pool lanes.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  virtual EvalResult evaluate(const PlacementParams& params,
                              Fidelity fidelity) = 0;

  virtual std::vector<EvalResult> evaluate_many(
      const std::vector<PlacementParams>& points, Fidelity fidelity);

  /// Whether kCheap is a distinct (cheaper) fidelity here. When false the
  /// searcher silently disables cheap-fidelity screening.
  virtual bool supports_cheap() const { return false; }
};

/// Wraps plain objective callables — the compatibility shim that lets the
/// legacy bayes_optimize API and synthetic-objective tests run through the
/// searcher. Evaluations are sequential (the callable may not be
/// thread-safe) and report no stage provenance.
class FunctionEvaluator : public Evaluator {
 public:
  explicit FunctionEvaluator(
      std::function<double(const PlacementParams&)> full,
      std::function<double(const PlacementParams&)> cheap = nullptr)
      : full_(std::move(full)), cheap_(std::move(cheap)) {}

  EvalResult evaluate(const PlacementParams& params,
                      Fidelity fidelity) override;
  bool supports_cheap() const override { return cheap_ != nullptr; }

 private:
  std::function<double(const PlacementParams&)> full_;
  std::function<double(const PlacementParams&)> cheap_;
};

struct FlowEvaluatorConfig {
  // Stage the cheap fidelity stops after. Must be at or beyond
  // "after-place-metrics" (the objective is read from that stage's result).
  std::string cheap_stop = "after-place-metrics";
  // Shared artifact cache: evaluations persist per-stage artifacts under
  // prefix keys, so a cheap evaluation promoted to full replays its cheap
  // stages nearly free (flow_stage_keys in flow/stage.hpp).
  ArtifactCache* cache = nullptr;
  const Deadline* deadline = nullptr;          // per-evaluation guard
  const std::atomic<bool>* cancel = nullptr;   // cooperative cancellation
};

/// The real evaluator: pushes candidates through the Pin-3D stage pipeline
/// via the batch runner (one pool lane per candidate — design-level
/// concurrency, bit-identical per-candidate results). The objective is
/// congestion-first: overflow + max(0, -wns_ps), read from the
/// after-place-metrics stage (cheap) or signoff (full), so both fidelities
/// rank candidates on the same functional.
class FlowEvaluator : public Evaluator {
 public:
  FlowEvaluator(std::string design_name, Netlist design, FlowConfig base,
                FlowEvaluatorConfig cfg = {});

  EvalResult evaluate(const PlacementParams& params,
                      Fidelity fidelity) override;
  std::vector<EvalResult> evaluate_many(
      const std::vector<PlacementParams>& points, Fidelity fidelity) override;
  bool supports_cheap() const override { return true; }

  const std::string& design_name() const { return design_name_; }

 private:
  std::string design_name_;
  Netlist design_;
  FlowConfig base_;
  FlowEvaluatorConfig cfg_;
};

/// The searcher's scalar objective over stage metrics: routing overflow plus
/// the magnitude of any setup violation (ps). Exposed for tests and for the
/// sequential-baseline comparison in bench_report.
double search_objective(const StageMetrics& m);

}  // namespace dco3d
