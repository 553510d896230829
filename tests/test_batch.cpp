// Batch runner tests: concurrent multi-design runs must produce per-design
// results identical to sequential run_pin3d_flow calls, seeds must be stable,
// and one failing job must not take down its neighbours.

#include <gtest/gtest.h>

#include "flow/batch.hpp"
#include "flow/pin3d.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace dco3d {
namespace {

FlowConfig small_cfg(std::uint64_t seed) {
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.timing.clock_period_ps = 250.0;
  cfg.seed = seed;
  return cfg;
}

std::vector<BatchJob> tiny_jobs(std::size_t n) {
  std::vector<BatchJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].name = "tiny" + std::to_string(i);
    jobs[i].design =
        testing::tiny_design(150 + 30 * static_cast<int>(i),
                             /*seed=*/static_cast<int>(5 + i));
    jobs[i].cfg = small_cfg(batch_seed(1, i));
  }
  return jobs;
}

void expect_metrics_eq(const StageMetrics& a, const StageMetrics& b) {
  EXPECT_EQ(a.overflow, b.overflow);
  EXPECT_EQ(a.wns_ps, b.wns_ps);
  EXPECT_EQ(a.tns_ps, b.tns_ps);
  EXPECT_EQ(a.power_mw, b.power_mw);
  EXPECT_EQ(a.wirelength_um, b.wirelength_um);
}

TEST(Batch, ConcurrentResultsMatchSequentialRuns) {
  const std::vector<BatchJob> jobs = tiny_jobs(4);

  util::set_num_threads(4);
  const std::vector<BatchEntry> entries = run_many(jobs);
  util::set_num_threads(0);

  util::set_num_threads(1);
  ASSERT_EQ(entries.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(entries[i].status.ok()) << entries[i].status.to_string();
    EXPECT_EQ(entries[i].name, jobs[i].name);
    EXPECT_EQ(entries[i].cells, jobs[i].design.num_cells());
    const FlowResult want = run_pin3d_flow(jobs[i].design, jobs[i].cfg);
    expect_metrics_eq(entries[i].result.after_place, want.after_place);
    expect_metrics_eq(entries[i].result.signoff, want.signoff);
    EXPECT_EQ(entries[i].result.placement.xy, want.placement.xy);
    EXPECT_EQ(entries[i].result.placement.tier, want.placement.tier);
  }
  util::set_num_threads(0);
}

TEST(Batch, RepeatRunsAreIdentical) {
  const std::vector<BatchJob> jobs = tiny_jobs(3);
  util::set_num_threads(3);
  const std::vector<BatchEntry> a = run_many(jobs);
  const std::vector<BatchEntry> b = run_many(jobs);
  util::set_num_threads(0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_metrics_eq(a[i].result.signoff, b[i].result.signoff);
    EXPECT_EQ(a[i].result.placement.xy, b[i].result.placement.xy);
  }
}

TEST(Batch, SeedsAreStableAndDistinct) {
  EXPECT_EQ(batch_seed(1, 0), batch_seed(1, 0));
  EXPECT_NE(batch_seed(1, 0), batch_seed(1, 1));
  EXPECT_NE(batch_seed(1, 0), batch_seed(2, 0));
  EXPECT_NE(batch_seed(1, 0), 0u) << "seed 0 is reserved";
}

TEST(Batch, FailingJobIsIsolated) {
  std::vector<BatchJob> jobs = tiny_jobs(3);
  jobs[1].cfg.num_tiers = 1;  // invalid input: place3d refuses it

  util::set_num_threads(3);
  const std::vector<BatchEntry> entries = run_many(jobs);
  util::set_num_threads(0);

  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].status.ok());
  EXPECT_EQ(entries[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(entries[2].status.ok());
  EXPECT_GT(entries[0].result.signoff.wirelength_um, 0.0);
  EXPECT_GT(entries[2].result.signoff.wirelength_um, 0.0);
}

TEST(Batch, StopAfterAndTraceApplyPerJob) {
  const std::vector<BatchJob> jobs = tiny_jobs(2);
  BatchOptions opts;
  opts.stop_after = "after-place-metrics";
  opts.collect_trace = true;
  const std::vector<BatchEntry> entries = run_many(jobs, opts);
  for (const BatchEntry& e : entries) {
    ASSERT_TRUE(e.status.ok());
    EXPECT_GT(e.result.after_place.wirelength_um, 0.0);
    EXPECT_EQ(e.result.signoff.wirelength_um, 0.0);
    ASSERT_EQ(e.trace.size(), 3u);  // place3d, dco, after-place-metrics
    EXPECT_EQ(e.trace.back().stage, "after-place-metrics");
    EXPECT_EQ(e.trace.front().design, e.name);
  }
}

TEST(Batch, SummaryTableListsEveryJob) {
  std::vector<BatchJob> jobs = tiny_jobs(2);
  jobs[1].cfg.num_tiers = 1;
  const std::vector<BatchEntry> entries = run_many(jobs);
  const std::string table = batch_summary_table(entries);
  EXPECT_NE(table.find("tiny0"), std::string::npos);
  EXPECT_NE(table.find("tiny1"), std::string::npos);
  EXPECT_NE(table.find("FAILED"), std::string::npos);
  EXPECT_NE(table.find("num_tiers must be >= 2"), std::string::npos);
}

}  // namespace
}  // namespace dco3d
