#pragma once
// Stage-graph flow engine. The Pin-3D flow (Fig. 1) is expressed as named
// stages over a shared FlowContext instead of one monolithic function, which
// buys three things:
//
//   * composition — the CLI subcommands (place/route/optimize/flow) and the
//     batch runner assemble pipelines from the same stage objects instead of
//     re-implementing design loading and flow glue;
//   * observability — the Pipeline wraps every stage with a StageTrace entry
//     (wall time, arena/thread-pool counter deltas, stage metrics);
//   * resumability — with a cache directory, the Pipeline persists the full
//     flow state after each stage (content-addressed by design + config) and
//     can resume from any stage boundary with bit-identical results.
//
// Ownership rules (who mutates what) are documented in docs/flow.md. In
// short: FlowContext owns a private working copy of the netlist; the cts and
// signoff stages mutate it (buffer insertion, cell sizing); placement is
// refined in place by dco/legalize; the original design is never touched.

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "core/guard.hpp"
#include "flow/pin3d.hpp"
#include "flow/trace.hpp"

namespace dco3d {

class ArtifactCache;
struct DcoConfig;
struct DcoResult;
struct Predictor;

/// Shared state threaded through a pipeline. Create with make_flow_context,
/// or fill the fields directly for standalone stage runs (the CLI loads
/// placements from files into `placement` before running a route-only
/// pipeline, for example).
struct FlowContext {
  FlowConfig cfg;
  PlacementOptimizer optimizer;  // DCO hook; empty = pass-through dco stage
  std::string design_name;       // labels trace entries and batch rows
  // Cache-key component describing the optimizer hook (a std::function can't
  // be hashed). attach_dco sets both; a caller wiring its own hook must set
  // the tag to something that identifies the hook's behaviour, or not cache.
  // "none" = no hook.
  std::string optimizer_tag = "none";

  // Working state.
  Netlist netlist;            // private copy; cts/signoff mutate it
  Placement3D placement;      // current placement (refined stage by stage)
  std::vector<double> skew;   // per-cell clock skew (cts), normalized
  RouteResult route;          // product of the route stage, input to signoff
  bool route_valid = false;
  bool grid_valid = false;    // res.grid initialized

  // Results accumulated across stages (returned by Pipeline::run).
  FlowResult res;

  // Scratch: metrics the current stage publishes into its trace entry.
  std::vector<std::pair<std::string, double>> stage_metrics;
  void publish(const std::string& key, double value) {
    stage_metrics.emplace_back(key, value);
  }
};

/// A named flow step. Bodies must be deterministic functions of the context
/// (the determinism/bit-identity contract of the whole engine rests on it).
///
/// The key domain declares which slice of the configuration the stage body
/// newly reads (serialized as a string). flow_stage_keys folds the domains
/// into rolling per-stage cache keys, so two contexts that agree on
/// everything a prefix of stages reads share that prefix's artifacts even
/// when downstream knobs differ (the fidelity-aware cache of docs/search.md).
class Stage {
 public:
  using KeyDomain = std::function<std::string(const FlowContext&)>;

  Stage(std::string name, std::function<void(FlowContext&)> body,
        KeyDomain key_domain)
      : name_(std::move(name)),
        body_(std::move(body)),
        key_domain_(std::move(key_domain)) {}

  const std::string& name() const { return name_; }
  void run(FlowContext& ctx) const { body_(ctx); }
  const KeyDomain& key_domain() const { return key_domain_; }

 private:
  std::string name_;
  std::function<void(FlowContext&)> body_;
  KeyDomain key_domain_;
};

/// What actually happened during a Pipeline::run — which stages were served
/// from the cache, where the run stopped, and why (the serve scheduler's job
/// records are built from this).
struct PipelineRunInfo {
  int last_stage = -1;    // index of the last stage satisfied (run or cached)
  int first_stage = 0;    // first stage actually executed (cached before it)
  int stages_run = 0;     // stage bodies executed
  int stages_cached = 0;  // stages satisfied from the artifact cache
  bool deadline_hit = false;  // stopped early by opts.deadline (early commit)
  bool cancelled = false;     // stopped early by opts.cancel (early commit)
};

struct PipelineOptions {
  // Start at this stage, restoring the preceding stage's cached artifact
  // (requires cache_dir; kNotFound if the artifact is missing). Empty = run
  // from the first stage.
  std::string resume_from;
  // Start at this stage trusting the caller-prepared FlowContext (no cache
  // load). Used by CLI wrappers that load placements from files. Mutually
  // exclusive with resume_from.
  std::string start_at;
  // Stop after this stage (inclusive). Empty = run to the end.
  std::string stop_after;
  // Artifact cache root; empty disables persistence. Layout:
  //   <cache_dir>/<content-key>/<stage-name>/{state.txt,netlist.design,...}
  std::string cache_dir;
  // Collect per-stage trace entries (appended; caller owns the vector).
  std::vector<StageTraceEntry>* trace = nullptr;
  // With a cache directory: probe for the deepest cached artifact of this
  // context's content key (at or before the stop stage) and resume right
  // after it. Corrupt artifacts are discarded and probing continues
  // shallower. This is the idempotent-resubmission path of the serve
  // scheduler: a repeated prefix skips straight to the divergent stage.
  bool auto_resume = false;
  // LRU byte-budget bookkeeping for the cache directory (shared by serve /
  // flow / batch). When set and cache_dir is empty, cache->dir() is used.
  ArtifactCache* cache = nullptr;
  // Per-run wall-clock deadline, checked before each stage: on expiry the
  // pipeline early-commits — it returns normally with the results of the
  // stages completed so far instead of throwing (info reports deadline_hit).
  const Deadline* deadline = nullptr;
  // Cooperative cancellation, checked with the deadline: set to true by
  // another thread to make the run early-commit at the next stage boundary.
  const std::atomic<bool>* cancel = nullptr;
  // Invoked after every executed stage with its trace entry — the serve
  // scheduler streams these to waiting clients as progress events.
  std::function<void(const StageTraceEntry&)> on_trace;
  // Filled with what actually happened (optional).
  PipelineRunInfo* info = nullptr;
};

/// An ordered stage list with resume/stop/cache/trace execution semantics.
class Pipeline {
 public:
  explicit Pipeline(std::vector<Stage> stages) : stages_(std::move(stages)) {}

  const std::vector<Stage>& stages() const { return stages_; }
  /// Index of a stage by name; -1 when absent.
  int index_of(const std::string& name) const;
  /// Comma-separated stage names (for error messages and docs).
  std::string stage_names() const;

  /// Run stages [start..stop] on the context, returning the accumulated
  /// FlowResult. Throws StatusError kInvalidArgument for unknown stage names
  /// and kNotFound for a missing resume artifact.
  FlowResult run(FlowContext& ctx, const PipelineOptions& opts = {}) const;

 private:
  std::vector<Stage> stages_;
};

/// The standard Pin-3D pipeline: place3d, dco, after-place-metrics, cts,
/// legalize, route, signoff, final-metrics. run_pin3d_flow composes this.
const Pipeline& pin3d_pipeline();

/// One stage of the standard pipeline by name (kInvalidArgument if unknown).
/// CLI wrappers compose custom pipelines from these, e.g. {place3d, legalize}
/// for the `place` subcommand.
const Stage& pin3d_stage(const std::string& name);

/// Initialize a context: copies the design into the working netlist and
/// stores config + hook. Placement/grid/skew start empty.
FlowContext make_flow_context(const Netlist& design, const FlowConfig& cfg,
                              PlacementOptimizer optimizer = nullptr);

/// Version of the stage bodies, folded into every artifact key. Bump it in
/// any change that alters what a stage computes, so a cache directory written
/// by an older build misses instead of replaying stale results as current.
inline constexpr int kStageBodyVersion = 1;

/// Per-stage rolling prefix keys, one per pipeline stage, each 16 hex chars.
/// keys[i] hashes the stage-body version, the serialized design, seed and
/// tier count plus the key domains of stages 0..i — i.e. exactly the
/// configuration surface the flow has consumed up to and including stage i.
/// Two contexts share keys[i] (and therefore stage i's cached artifact) iff
/// they agree on everything stages 0..i read, regardless of downstream
/// knobs. The last key covers every config group and is the whole-flow
/// identity (serve job keys). Must be computed from the pristine pre-run
/// context (stage bodies mutate the working netlist). `body_version` exists
/// for tests of the versioning; the pipeline always uses kStageBodyVersion.
std::vector<std::string> flow_stage_keys(
    const FlowContext& ctx, const Pipeline& pipeline,
    int body_version = kStageBodyVersion);

/// Algorithm 2 as the `dco` stage's hook. Sets ctx.optimizer to a hook that
/// holds its own copy of `pred` and runs run_dco with the flow's settings
/// (dco.router = ctx.cfg.router, dco.legalize_params = ctx.cfg.place_params,
/// timing = ctx.cfg.timing, all read now: call it once ctx.cfg is final),
/// and ctx.optimizer_tag to "dco:" + an FNV-1a hash of the predictor's
/// content (architecture, parameters, label and feature scales) and of every
/// DcoConfig field, so the dco stage's cache key follows both. `out`
/// (optional, must outlive the run) receives the full DcoResult.
void attach_dco(FlowContext& ctx, const Predictor& pred, DcoConfig dco,
                DcoResult* out = nullptr);

/// Usage percentile at which router calibration sets the track capacities.
inline constexpr double kCalibrationPctile = 0.70;

/// Shared router-calibration glue: grid over the reference placement's
/// outline, capacities at the usage percentile. One calibration must be
/// reused across flow variants of the same design so comparisons share a
/// capacity model.
RouterConfig calibrated_router(const Netlist& design, const Placement3D& ref,
                               int grid_n, double pctile);

/// Calibration for a flow run with `cfg`: the reference is the legalized
/// placement the flow's own place3d stage starts from (cfg.place_params,
/// cfg.seed, cfg.num_tiers) on cfg.grid_nx, so the capacity model every
/// consumer of cfg.router sees — DCO trial routes, signoff, a predictor's
/// training labels — is the same one.
RouterConfig calibrated_router(const Netlist& design, const FlowConfig& cfg,
                               double pctile = kCalibrationPctile);

}  // namespace dco3d
