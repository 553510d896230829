#include "flow/batch.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "util/parallel.hpp"

namespace dco3d {

std::uint64_t batch_seed(std::uint64_t base_seed, std::size_t index) {
  // splitmix64 over (base + golden-ratio stride * index): well-mixed,
  // collision-free per index, and stable when the job list grows.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return z == 0 ? 1 : z;  // seed 0 is reserved as "unset" by some generators
}

std::vector<BatchJob> make_generator_jobs(const std::vector<DesignKind>& kinds,
                                          double scale, const FlowConfig& base,
                                          std::uint64_t base_seed,
                                          double calibration_pctile) {
  std::vector<BatchJob> jobs;
  jobs.reserve(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    DesignSpec spec = spec_for(kinds[i], scale);
    BatchJob job;
    job.name = spec.name;
    job.design = generate_design(spec);
    job.cfg = base;
    job.cfg.seed = batch_seed(base_seed, i);
    job.cfg.router =
        calibrated_router(job.design, job.cfg, calibration_pctile);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchEntry> run_pipeline_jobs(
    const std::vector<PipelineJob>& jobs) {
  std::vector<BatchEntry> entries(jobs.size());
  // One pool chunk per job: flows nest their own parallel kernels inline on
  // the worker lane, so jobs are the unit of concurrency. Entries are
  // written disjointly per chunk — no synchronization needed.
  util::parallel_for(
      0, static_cast<std::int64_t>(jobs.size()), 1,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t j = b; j < e; ++j) {
          const PipelineJob& job = jobs[static_cast<std::size_t>(j)];
          BatchEntry& entry = entries[static_cast<std::size_t>(j)];
          entry.name = job.name;
          const auto t0 = std::chrono::steady_clock::now();
          try {
            FlowContext ctx = job.make_context();
            entry.cells = ctx.netlist.num_cells();
            entry.nets = ctx.netlist.num_nets();
            PipelineOptions po = job.opts;
            po.trace = job.collect_trace ? &entry.trace : nullptr;
            po.info = &entry.info;
            entry.result = pin3d_pipeline().run(ctx, po);
          } catch (const StatusError& err) {
            entry.status = err.status();
          } catch (const std::exception& err) {
            entry.status = Status::internal(err.what());
          }
          entry.wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        }
      });
  return entries;
}

std::vector<BatchEntry> run_many(const std::vector<BatchJob>& jobs,
                                 const BatchOptions& opts) {
  std::vector<PipelineJob> pjobs;
  pjobs.reserve(jobs.size());
  for (const BatchJob& job : jobs) {
    PipelineJob pj;
    pj.name = job.name;
    pj.make_context = [&job]() {
      FlowContext ctx = make_flow_context(job.design, job.cfg);
      ctx.design_name = job.name;
      return ctx;
    };
    pj.opts.stop_after = opts.stop_after;
    if (opts.cache) {
      pj.opts.cache = opts.cache;
      pj.opts.auto_resume = true;
    }
    pj.collect_trace = opts.collect_trace;
    pjobs.push_back(std::move(pj));
  }
  return run_pipeline_jobs(pjobs);
}

std::string batch_summary_table(const std::vector<BatchEntry>& entries) {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line,
                "%-10s %8s %8s | %9s %8s %9s %10s | %9s %8s %9s %10s | %9s\n",
                "design", "cells", "nets", "ap.ovf", "ap.wns", "ap.power",
                "ap.WL", "so.ovf", "so.wns", "so.power", "so.WL", "wall(ms)");
  os << line;
  for (const BatchEntry& e : entries) {
    if (!e.status.ok()) {
      std::snprintf(line, sizeof line, "%-10s %8zu %8zu | FAILED: %s\n",
                    e.name.c_str(), e.cells, e.nets,
                    e.status.to_string().c_str());
      os << line;
      continue;
    }
    const StageMetrics& a = e.result.after_place;
    const StageMetrics& s = e.result.signoff;
    std::snprintf(line, sizeof line,
                  "%-10s %8zu %8zu | %9.0f %8.2f %9.3f %10.1f | %9.0f %8.2f "
                  "%9.3f %10.1f | %9.1f\n",
                  e.name.c_str(), e.cells, e.nets, a.overflow, a.wns_ps,
                  a.power_mw, a.wirelength_um, s.overflow, s.wns_ps,
                  s.power_mw, s.wirelength_um, e.wall_ms);
    os << line;
  }
  return os.str();
}

}  // namespace dco3d
