#include "search/evaluator.hpp"

#include <utility>

#include "flow/batch.hpp"
#include "flow/cache.hpp"
#include "flow/stage.hpp"

namespace dco3d {

const char* fidelity_name(Fidelity f) {
  return f == Fidelity::kCheap ? "cheap" : "full";
}

double search_objective(const StageMetrics& m) {
  return m.overflow + std::max(0.0, -m.wns_ps);
}

std::vector<EvalResult> Evaluator::evaluate_many(
    const std::vector<PlacementParams>& points, Fidelity fidelity) {
  std::vector<EvalResult> out;
  out.reserve(points.size());
  for (const PlacementParams& p : points) out.push_back(evaluate(p, fidelity));
  return out;
}

EvalResult FunctionEvaluator::evaluate(const PlacementParams& params,
                                       Fidelity fidelity) {
  EvalResult r;
  r.fidelity = fidelity;
  const auto& fn =
      (fidelity == Fidelity::kCheap && cheap_) ? cheap_ : full_;
  r.objective = fn(params);
  return r;
}

FlowEvaluator::FlowEvaluator(std::string design_name, Netlist design,
                             FlowConfig base, FlowEvaluatorConfig cfg)
    : design_name_(std::move(design_name)),
      design_(std::move(design)),
      base_(std::move(base)),
      cfg_(std::move(cfg)) {}

EvalResult FlowEvaluator::evaluate(const PlacementParams& params,
                                   Fidelity fidelity) {
  return evaluate_many({params}, fidelity).front();
}

std::vector<EvalResult> FlowEvaluator::evaluate_many(
    const std::vector<PlacementParams>& points, Fidelity fidelity) {
  std::vector<PipelineJob> jobs;
  jobs.reserve(points.size());
  for (const PlacementParams& p : points) {
    PipelineJob job;
    job.name = design_name_;
    FlowConfig cfg = base_;
    cfg.place_params = p;
    job.make_context = [this, cfg]() {
      FlowContext ctx = make_flow_context(design_, cfg);
      ctx.design_name = design_name_;
      return ctx;
    };
    if (fidelity == Fidelity::kCheap) job.opts.stop_after = cfg_.cheap_stop;
    if (cfg_.cache) {
      job.opts.cache = cfg_.cache;
      job.opts.auto_resume = true;
    }
    job.opts.deadline = cfg_.deadline;
    job.opts.cancel = cfg_.cancel;
    jobs.push_back(std::move(job));
  }

  const std::vector<BatchEntry> entries = run_pipeline_jobs(jobs);

  const Pipeline& pipe = pin3d_pipeline();
  const int cheap_index = pipe.index_of(cfg_.cheap_stop);
  const int full_index = static_cast<int>(pipe.stages().size()) - 1;
  const int need = fidelity == Fidelity::kCheap ? cheap_index : full_index;

  std::vector<EvalResult> out;
  out.reserve(entries.size());
  for (const BatchEntry& e : entries) {
    EvalResult r;
    r.fidelity = fidelity;
    r.status = e.status;
    r.stages_run = e.info.stages_run;
    r.stages_cached = e.info.stages_cached;
    r.wall_ms = e.wall_ms;
    if (e.info.last_stage >= 0)
      r.stop_stage =
          pipe.stages()[static_cast<std::size_t>(e.info.last_stage)].name();
    if (r.status.ok() && e.info.last_stage < need) {
      // The pipeline early-committed (deadline/cancel) before the stage the
      // objective is read from — an unusable point, not a failure.
      r.status = e.info.cancelled
                     ? Status::cancelled("evaluation cancelled mid-flow")
                     : Status::deadline_exceeded(
                           "evaluation early-committed before '" +
                           (need >= 0
                                ? pipe.stages()[static_cast<std::size_t>(need)]
                                      .name()
                                : std::string("?")) +
                           "'");
    }
    if (r.status.ok()) {
      r.objective = search_objective(fidelity == Fidelity::kCheap
                                         ? e.result.after_place
                                         : e.result.signoff);
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace dco3d
