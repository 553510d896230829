#pragma once
// Batch multi-design flow runner: push N designs through the stage-graph
// pipeline concurrently on the shared util/parallel thread pool. Each job
// runs on one pool lane; the flow's own parallel kernels nest inside that
// lane and therefore serialize per design, so a batch saturates the machine
// with design-level parallelism while every per-design result stays
// bit-identical to a sequential single-design run (the pool's determinism
// contract). Job failures are isolated: a throwing flow records its Status
// in the entry and the other designs complete normally.

#include <string>
#include <vector>

#include "flow/cache.hpp"
#include "flow/stage.hpp"
#include "netlist/generators.hpp"
#include "util/status.hpp"

namespace dco3d {

struct BatchJob {
  std::string name;             // row label; also tags trace entries
  Netlist design;
  FlowConfig cfg;
};

struct BatchEntry {
  std::string name;
  Status status;                 // OK, or why the job failed
  FlowResult result;             // valid when status.ok()
  double wall_ms = 0.0;
  std::size_t cells = 0, nets = 0;
  std::vector<StageTraceEntry> trace;  // per-stage trace of this job
  PipelineRunInfo info;          // what the pipeline actually did
};

struct BatchOptions {
  std::string stop_after;  // run the pipeline only up to this stage
  bool collect_trace = false;
  // Shared byte-budgeted artifact cache (LRU eviction; see flow/cache.hpp).
  // Jobs persist stage artifacts into it and auto-resume from cached
  // prefixes, so re-running a batch with an overlapping job set skips
  // straight to the divergent stages.
  ArtifactCache* cache = nullptr;
};

/// Run every job through the standard Pin-3D pipeline, jobs in parallel
/// (pool lanes), stages within a job sequential. Entries come back in job
/// order regardless of completion order.
std::vector<BatchEntry> run_many(const std::vector<BatchJob>& jobs,
                                 const BatchOptions& opts = {});

/// Fully-general concurrent pipeline job: the caller supplies the context
/// factory and the complete PipelineOptions. run_many is a thin wrapper over
/// this; the multi-fidelity searcher (src/search) is the other customer —
/// its candidate evaluations run through here, one pool lane per candidate.
struct PipelineJob {
  std::string name;                          // labels the entry and traces
  std::function<FlowContext()> make_context;  // fresh context per run
  PipelineOptions opts;  // trace/info pointers are overridden per entry
  bool collect_trace = false;
};

/// Run caller-assembled pipeline jobs concurrently on the shared pool, one
/// lane per job, with the same isolation and ordering guarantees as
/// run_many. Each entry's trace/info fields are populated regardless of the
/// pointers in job.opts (which are redirected to the entry).
std::vector<BatchEntry> run_pipeline_jobs(const std::vector<PipelineJob>& jobs);

/// Deterministic per-design seed for job `index` under a batch base seed:
/// splitmix64 of (base, index), so adding/removing designs never shifts the
/// seeds of the others.
std::uint64_t batch_seed(std::uint64_t base_seed, std::size_t index);

/// Build one job per design kind: generate the netlist at `scale`, derive
/// the seed with batch_seed, and auto-calibrate the router config from a
/// reference placement (the same glue the `flow` subcommand uses).
std::vector<BatchJob> make_generator_jobs(const std::vector<DesignKind>& kinds,
                                          double scale, const FlowConfig& base,
                                          std::uint64_t base_seed,
                                          double calibration_pctile =
                                              kCalibrationPctile);

/// Merged summary: one row per entry with the Table-III style columns of
/// both measured stages, plus wall time and failure statuses.
std::string batch_summary_table(const std::vector<BatchEntry>& entries);

}  // namespace dco3d
