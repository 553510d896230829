// Multi-fidelity search tests (docs/search.md): exact B=1 equivalence with
// the legacy sequential bayes_optimize, bit-identical trajectories across
// thread counts, cheap-fidelity screening/promotion logic, shared-prefix
// artifact-cache replay for promoted candidates, the serve-mode "search" job
// round-trip (streaming + cancel mid-round), and the headline acceptance
// property: batched cheap-screened search matches the sequential baseline's
// objective in at most half the full-flow evaluations.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "flow/cache.hpp"
#include "flow/server.hpp"
#include "flow/stage.hpp"
#include "place/placer3d.hpp"
#include "search/evaluator.hpp"
#include "search/gp.hpp"
#include "search/searcher.hpp"
#include "search/serve_search.hpp"
#include "test_helpers.hpp"
#include "util/jsonl.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace dco3d {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

/// Quadratic bowl over two encoded knobs (same shape as the test_opt
/// synthetic objective): optimum at target_routing_density = 0.3,
/// max_density = 0.7.
double bowl(const PlacementParams& p) {
  const double a = p.target_routing_density - 0.3;
  const double b = p.max_density - 0.7;
  return a * a + b * b;
}

// ---------------------------------------------------------------------------
// B=1 equivalence: bayes_optimize (now a thin wrapper over the searcher)
// must reproduce the original sequential implementation bit for bit. The
// reference below is a verbatim transcription of the pre-refactor algorithm;
// any divergence in rng consumption order, candidate generation, EI
// tie-breaking, or best-update strictness shows up as a trace mismatch.

BoResult reference_bayes_optimize(
    const std::function<double(const PlacementParams&)>& objective,
    const BoConfig& cfg, Rng& rng) {
  BoResult res;
  res.best_objective = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;

  auto evaluate = [&](const PlacementParams& p) {
    const double y = objective(p);
    const auto enc = p.encode();
    xs.emplace_back(enc.begin(), enc.end());
    ys.push_back(y);
    res.trace.push_back({p, y});
    if (y < res.best_objective) {
      res.best_objective = y;
      res.best_params = p;
    }
  };

  evaluate(PlacementParams{});
  for (int i = 1; i < cfg.init_samples; ++i)
    evaluate(PlacementParams::sample(rng));

  for (int it = 0; it < cfg.iterations; ++it) {
    GaussianProcess gp;
    gp.fit(xs, ys);
    double best_ei = -1.0;
    PlacementParams best_cand;
    for (int c = 0; c < cfg.candidates; ++c) {
      PlacementParams cand;
      if (rng.bernoulli(0.5)) {
        cand = PlacementParams::sample(rng);
      } else {
        auto enc = res.best_params.encode();
        for (double& v : enc)
          v = std::clamp(v + rng.normal(0.0, 0.15), 0.0, 1.0);
        cand = PlacementParams::decode(enc);
      }
      const auto enc = cand.encode();
      const auto pred = gp.predict({enc.begin(), enc.end()});
      const double ei = expected_improvement(pred, res.best_objective, cfg.xi);
      if (ei > best_ei) {
        best_ei = ei;
        best_cand = cand;
      }
    }
    evaluate(best_cand);
  }
  return res;
}

TEST(Search, BOneMatchesLegacySequentialReference) {
  BoConfig cfg;
  cfg.init_samples = 5;
  cfg.iterations = 8;
  cfg.candidates = 64;
  Rng r_ref(17), r_new(17);
  const BoResult ref = reference_bayes_optimize(bowl, cfg, r_ref);
  const BoResult now = bayes_optimize(bowl, cfg, r_new);

  ASSERT_EQ(ref.trace.size(), now.trace.size());
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    EXPECT_EQ(ref.trace[i].params.encode(), now.trace[i].params.encode())
        << "trace point " << i;
    EXPECT_DOUBLE_EQ(ref.trace[i].objective, now.trace[i].objective)
        << "trace point " << i;
  }
  EXPECT_DOUBLE_EQ(ref.best_objective, now.best_objective);
  EXPECT_EQ(ref.best_params.encode(), now.best_params.encode());
}

// ---------------------------------------------------------------------------
// Determinism: the GP scoring of the EI candidate pool runs on
// util::parallel_for, and it is the only parallel step in the proposal path
// — the whole search trajectory must be bit-identical at any thread count.

struct Trajectory {
  std::vector<std::array<double, 16>> encodes;
  std::vector<double> objectives;
  double best = 0.0;
};

Trajectory run_batched_search(int threads) {
  util::set_num_threads(threads);
  FunctionEvaluator eval(bowl, bowl);
  SearchConfig sc;
  sc.init_samples = 5;
  sc.rounds = 4;
  sc.batch = 4;
  sc.candidates = 128;
  sc.promote_fraction = 0.5;
  sc.cheap_screen = true;
  Rng rng(23);
  const SearchResult res = multi_fidelity_search(eval, sc, rng);
  Trajectory t;
  t.best = res.best_objective;
  for (const SearchRoundRecord& r : res.trace)
    for (const SearchEvalRecord& e : r.evals) {
      t.encodes.push_back(e.params.encode());
      t.objectives.push_back(e.objective);
    }
  return t;
}

TEST(Search, BitIdenticalTrajectoriesAcrossThreadCounts) {
  const Trajectory base = run_batched_search(1);
  for (const int threads : {2, 8}) {
    const Trajectory t = run_batched_search(threads);
    ASSERT_EQ(base.encodes.size(), t.encodes.size()) << threads << " threads";
    for (std::size_t i = 0; i < base.encodes.size(); ++i) {
      EXPECT_EQ(base.encodes[i], t.encodes[i])
          << "eval " << i << " at " << threads << " threads";
      EXPECT_DOUBLE_EQ(base.objectives[i], t.objectives[i])
          << "eval " << i << " at " << threads << " threads";
    }
    EXPECT_DOUBLE_EQ(base.best, t.best) << threads << " threads";
  }
  util::set_num_threads(0);  // restore the ambient pool size
}

// ---------------------------------------------------------------------------
// Cheap-fidelity screening: every proposal is evaluated cheap first; the top
// promote_fraction (by cheap objective, at least one) re-runs at full
// fidelity, flagged in the per-eval records.

TEST(Search, CheapScreeningPromotesTopFraction) {
  FunctionEvaluator eval(bowl, bowl);  // cheap is a perfect proxy here
  SearchConfig sc;
  sc.init_samples = 4;
  sc.rounds = 3;
  sc.batch = 4;
  sc.candidates = 64;
  sc.promote_fraction = 0.5;
  sc.cheap_screen = true;
  Rng rng(31);
  const SearchResult res = multi_fidelity_search(eval, sc, rng);

  ASSERT_EQ(res.trace.size(), static_cast<std::size_t>(sc.rounds) + 1);
  for (const SearchRoundRecord& r : res.trace) {
    if (r.round == 0) continue;  // warm-up has its own eval split
    EXPECT_EQ(r.cheap_evals, sc.batch);
    EXPECT_EQ(r.promoted, 2);  // ceil(0.5 * 4)
    EXPECT_EQ(r.full_evals, 2);

    // The promoted points are exactly the 2 best cheap objectives.
    std::vector<double> cheap, promoted_cheap;
    for (const SearchEvalRecord& e : r.evals)
      if (e.fidelity == Fidelity::kCheap) {
        cheap.push_back(e.objective);
        if (e.promoted) promoted_cheap.push_back(e.objective);
      }
    ASSERT_EQ(cheap.size(), 4u);
    ASSERT_EQ(promoted_cheap.size(), 2u);
    std::sort(cheap.begin(), cheap.end());
    std::sort(promoted_cheap.begin(), promoted_cheap.end());
    EXPECT_DOUBLE_EQ(promoted_cheap[0], cheap[0]);
    EXPECT_DOUBLE_EQ(promoted_cheap[1], cheap[1]);
  }
  EXPECT_GT(res.cheap_evals, res.full_evals);
}

// ---------------------------------------------------------------------------
// Shared-prefix cache keys: stages only re-key on configuration they
// actually read, so contexts differing in a downstream knob share every
// upstream artifact; and a cheap evaluation promoted to full replays its
// cheap stages from the cache instead of re-running them.

TEST(Search, StageKeysShareUpstreamPrefixAcrossDownstreamKnobs) {
  const Netlist design = testing::tiny_design(150);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  FlowContext a = make_flow_context(design, cfg);
  cfg.cts.buffer_delay_ps = 11.0;  // read by cts and later stages only
  FlowContext b = make_flow_context(design, cfg);

  const Pipeline& pipe = pin3d_pipeline();
  const std::vector<std::string> ka = flow_stage_keys(a, pipe);
  const std::vector<std::string> kb = flow_stage_keys(b, pipe);
  ASSERT_EQ(ka.size(), kb.size());
  const int cts = pipe.index_of("cts");
  ASSERT_GT(cts, 0);
  for (int i = 0; i < static_cast<int>(ka.size()); ++i) {
    if (i < cts)
      EXPECT_EQ(ka[i], kb[i]) << pipe.stages()[i].name();
    else
      EXPECT_NE(ka[i], kb[i]) << pipe.stages()[i].name();
  }
}

TEST(Search, DcoStageKeyCoversRouterAndTiming) {
  // A DCO hook reads cfg.router (trial routes) and cfg.timing, so contexts
  // that differ only there share place3d's artifact but not the dco stage's.
  const Netlist design = testing::tiny_design(150);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  const FlowContext base = make_flow_context(design, cfg);
  FlowConfig router_cfg = cfg;
  router_cfg.router.h_capacity += 1.0;
  FlowConfig timing_cfg = cfg;
  timing_cfg.timing.clock_period_ps += 50.0;

  const Pipeline& pipe = pin3d_pipeline();
  const int dco = pipe.index_of("dco");
  ASSERT_GT(dco, 0);
  const std::vector<std::string> k0 = flow_stage_keys(base, pipe);
  for (const FlowConfig& other : {router_cfg, timing_cfg}) {
    const std::vector<std::string> k =
        flow_stage_keys(make_flow_context(design, other), pipe);
    EXPECT_EQ(k[static_cast<std::size_t>(dco - 1)],
              k0[static_cast<std::size_t>(dco - 1)]);
    EXPECT_NE(k[static_cast<std::size_t>(dco)],
              k0[static_cast<std::size_t>(dco)]);
  }
}

TEST(Search, OutOfRangeConfigIsRefusedBeforeAnyEvaluation) {
  int evals = 0;
  FunctionEvaluator eval([&evals](const PlacementParams& p) {
    ++evals;
    return bowl(p);
  });
  SearchConfig ok;
  ok.init_samples = 2;
  ok.rounds = 0;
  std::vector<SearchConfig> bad(6, ok);
  bad[0].rounds = -1;
  bad[1].init_samples = 0;
  bad[2].batch = 0;
  bad[3].candidates = 0;
  bad[4].promote_fraction = 0.0;
  bad[5].promote_fraction = 1.5;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "config " << i);
    Rng rng(1);
    try {
      multi_fidelity_search(eval, bad[i], rng);
      ADD_FAILURE() << "expected kInvalidArgument";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_EQ(evals, 0);
  Rng rng(1);
  multi_fidelity_search(eval, ok, rng);
  EXPECT_EQ(evals, 2);
}

TEST(Search, PromotedCandidateReplaysCheapStagesFromCache) {
  const Netlist design = testing::tiny_design(150);
  FlowConfig base;
  base.grid_nx = base.grid_ny = 8;
  base.router = calibrated_router(design, base);
  ArtifactCache cache(fresh_dir("dco3d_search_promote_cache"), 1ull << 30);
  FlowEvaluatorConfig ec;
  ec.cache = &cache;
  FlowEvaluator eval("tiny", design, base, ec);

  SearchConfig sc;
  sc.init_samples = 3;
  sc.rounds = 1;
  sc.batch = 2;
  sc.candidates = 16;
  sc.promote_fraction = 0.5;
  sc.cheap_screen = true;
  sc.cache = &cache;
  Rng rng(3);
  const SearchResult res = multi_fidelity_search(eval, sc, rng);

  // Every promoted full evaluation resumed past its cached cheap prefix:
  // fewer stage bodies ran than the full 8-stage pipeline, the difference
  // coming from the cache.
  int promoted_fulls = 0;
  std::uint64_t hits = 0;
  for (const SearchRoundRecord& r : res.trace) {
    hits += r.cache_hits;
    for (const SearchEvalRecord& e : r.evals)
      if (e.fidelity == Fidelity::kFull && e.promoted) {
        ++promoted_fulls;
        EXPECT_GE(e.stages_cached, 3) << "round " << r.round;
        EXPECT_LT(e.stages_run, 8) << "round " << r.round;
      }
  }
  EXPECT_GE(promoted_fulls, 2);  // warm-up + round promotions
  EXPECT_GE(hits, 1u);
  EXPECT_TRUE(std::isfinite(res.best_objective));
}

// ---------------------------------------------------------------------------
// Acceptance: batch=4 with cheap screening must reach an objective at least
// as good as the sequential full-fidelity baseline using at most half the
// full-flow evaluations. Fully deterministic (fixed seeds, real flows).

TEST(Search, BatchedCheapSearchMatchesBaselineAtHalfTheFullEvals) {
  const Netlist design = testing::tiny_design(240, 5);
  FlowConfig base;
  base.grid_nx = base.grid_ny = 8;
  base.router = calibrated_router(design, base);
  FlowEvaluator eval("tiny", design, base);

  // Sequential baseline: the legacy BO loop, every evaluation a full flow.
  BoConfig bo;
  bo.init_samples = 6;
  bo.iterations = 10;
  bo.candidates = 64;
  int baseline_fulls = 0;
  auto full_objective = [&](const PlacementParams& p) {
    ++baseline_fulls;
    return eval.evaluate(p, Fidelity::kFull).objective;
  };
  Rng r_base(3);
  const BoResult baseline = bayes_optimize(full_objective, bo, r_base);
  ASSERT_EQ(baseline_fulls, bo.init_samples + bo.iterations);

  // Batched multi-fidelity search under half that full-flow budget.
  SearchConfig sc;
  sc.init_samples = 6;
  sc.rounds = 4;
  sc.batch = 4;
  sc.candidates = 64;
  sc.promote_fraction = 0.25;
  sc.cheap_screen = true;
  Rng r_search(3);
  const SearchResult res = multi_fidelity_search(eval, sc, r_search);

  EXPECT_LE(res.full_evals * 2, baseline_fulls)
      << "search used more than half the baseline's full flows";
  EXPECT_LE(res.best_objective, baseline.best_objective)
      << "search failed to match the sequential baseline's objective";
}

// The search trace lines are a wire format: these bytes were recorded from
// the emitter before it was moved onto the shared JSON writer and must not
// drift (a failed evaluation's infinite objective serializes as 0).
TEST(Search, TraceLinesAreByteStable) {
  SearchEvalRecord cheap;
  cheap.round = 2;
  cheap.candidate = 0;
  cheap.fidelity = Fidelity::kCheap;
  cheap.objective = 159.1147;
  cheap.promoted = true;
  cheap.stages_run = 3;
  SearchEvalRecord failed;
  failed.round = 2;
  failed.candidate = 1;
  failed.fidelity = Fidelity::kFull;
  failed.stages_run = 5;
  failed.stages_cached = 3;
  SearchRoundRecord round;
  round.round = 2;
  round.candidates = 32;
  round.cheap_evals = 1;
  round.full_evals = 1;
  round.promoted = 1;
  round.round_best = 0.1;
  round.best_objective = 2.5e-5;
  round.cache_hits = 4;
  round.cache_misses = 7;
  round.wall_ms = 228.21370000001;
  round.evals = {cheap, failed};

  const std::vector<std::string> lines = search_trace_lines("DMA", round);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            R"({"schema":"dco3d-search-trace-v1","event":"eval","design":"DMA",)"
            R"("round":2,"candidate":0,"fidelity":"cheap","objective":159.1147,)"
            R"("usable":true,"promoted":true,"stages_run":3,"stages_cached":0})");
  EXPECT_EQ(lines[1],
            R"({"schema":"dco3d-search-trace-v1","event":"eval","design":"DMA",)"
            R"("round":2,"candidate":1,"fidelity":"full","objective":0,)"
            R"("usable":false,"promoted":false,"stages_run":5,"stages_cached":3})");
  EXPECT_EQ(lines[2],
            R"({"schema":"dco3d-search-trace-v1","event":"round","design":"DMA",)"
            R"("round":2,"candidates":32,"cheap_evals":1,"full_evals":1,)"
            R"("promoted":1,"round_best":0.10000000000000001,)"
            R"("best_objective":2.5000000000000001e-05,"cache_hits":4,)"
            R"("cache_misses":7,"wall_ms":228.21370000000999,"threads":)" +
                std::to_string(util::num_threads()) + "}");
}

// ---------------------------------------------------------------------------
// Serve integration: the "search" job type end-to-end over the real
// protocol — streamed round events, final objective in the done event, type
// validation, and cancel mid-round committing the partial best.

class ServeSearchTest : public ::testing::Test {
 protected:
  ServerConfig search_cfg(const std::string& cache_name) {
    ServerConfig cfg;
    cfg.port = 0;  // ephemeral
    cfg.workers = 1;
    cfg.queue_depth = 4;
    cfg.cache_dir = cache_name.empty() ? "" : fresh_dir(cache_name);
    cfg.runners["search"] = make_search_job_runner();
    return cfg;
  }

  util::JsonObject rpc(int port, const std::string& req) {
    util::Fd conn = util::connect_local(port);
    EXPECT_TRUE(util::send_line(conn.get(), req));
    util::LineReader reader(conn.get());
    std::string line;
    EXPECT_TRUE(reader.read_line(line)) << "no response to: " << req;
    util::JsonObject obj;
    EXPECT_TRUE(util::parse_json_object(line, obj).ok()) << line;
    return obj;
  }
};

TEST_F(ServeSearchTest, SearchJobStreamsRoundsAndReportsObjective) {
  Server server(search_cfg("dco3d_serve_search_cache"));
  server.start();

  util::Fd conn = util::connect_local(server.port());
  const std::string req =
      R"({"cmd":"submit","type":"search","kind":"dma","scale":0.01,"grid":8,)"
      R"("rounds":2,"batch":2,"init":3,"candidates":16,"wait":true})";
  ASSERT_TRUE(util::send_line(conn.get(), req));

  util::LineReader reader(conn.get());
  std::string line, job_id;
  int round_events = 0, eval_events = 0;
  util::JsonObject done;
  bool saw_done = false;
  while (reader.read_line(line)) {
    util::JsonValue v;
    ASSERT_TRUE(util::parse_json(line, v).ok()) << line;
    const util::JsonObject& obj = v.obj;
    const std::string event = util::json_str(obj, "event", "");
    if (event == "eval" || event == "round") {
      // The envelope names the job; the nested trace is one search-trace
      // record of the same event kind.
      EXPECT_EQ(util::json_str(obj, "job", ""), job_id) << line;
      const util::JsonValue* trace = v.find("trace");
      ASSERT_TRUE(trace && trace->is(util::JsonValue::Kind::kObject)) << line;
      const util::JsonObject& t = trace->obj;
      EXPECT_EQ(util::json_str(t, "schema", ""), kSearchTraceSchema);
      EXPECT_EQ(util::json_str(t, "event", ""), event);
      EXPECT_EQ(util::json_str(t, "design", ""), "DMA");
      if (event == "round") {
        EXPECT_EQ(util::json_num(t, "round", -1.0), round_events) << line;
        EXPECT_GE(util::json_num(t, "wall_ms", -1.0), 0.0);
        ++round_events;
      } else {
        const std::string fid = util::json_str(t, "fidelity", "");
        EXPECT_TRUE(fid == "cheap" || fid == "full") << line;
        EXPECT_EQ(util::json_num(t, "round", -1.0), round_events) << line;
        EXPECT_TRUE(util::json_has(t, "usable"));
        ++eval_events;
      }
      continue;
    }
    if (event == "done") {
      done = obj;
      saw_done = true;
      break;
    }
    ASSERT_TRUE(util::json_bool(obj, "ok", false)) << line;
    job_id = util::json_str(obj, "job", "");  // the ack
  }
  ASSERT_TRUE(saw_done);
  EXPECT_EQ(round_events, 3);  // warm-up + 2 search rounds
  EXPECT_GT(eval_events, 0);
  EXPECT_EQ(util::json_str(done, "state", ""), "done");
  EXPECT_EQ(util::json_str(done, "type", ""), "search");
  EXPECT_EQ(util::json_num(done, "rounds", -1.0), 2.0);
  EXPECT_TRUE(util::json_has(done, "objective")) << "no objective in done";
  EXPECT_GT(util::json_num(done, "cheap_evals", 0.0), 0.0);
  EXPECT_GT(util::json_num(done, "full_evals", 0.0), 0.0);

  server.request_drain();
  server.wait();
}

TEST_F(ServeSearchTest, UnknownJobTypeIsRejectedAsInvalid) {
  Server server(search_cfg(""));
  server.start();
  const util::JsonObject resp = rpc(
      server.port(),
      R"({"cmd":"submit","type":"bogus","kind":"dma","scale":0.01,"grid":8})");
  EXPECT_FALSE(util::json_bool(resp, "ok", true));
  EXPECT_EQ(util::json_str(resp, "status", ""), "invalid_argument");
  server.request_drain();
  server.wait();
}

TEST_F(ServeSearchTest, CancelMidRoundCommitsPartialBest) {
  Server server(search_cfg(""));
  server.start();

  // A deliberately long search; cancel once the first round has streamed.
  util::Fd conn = util::connect_local(server.port());
  const std::string req =
      R"({"cmd":"submit","type":"search","kind":"dma","scale":0.01,"grid":8,)"
      R"("rounds":200,"batch":2,"init":3,"candidates":16,"wait":true})";
  ASSERT_TRUE(util::send_line(conn.get(), req));

  util::LineReader reader(conn.get());
  std::string line, job_id;
  bool cancelled_sent = false;
  util::JsonObject done;
  bool saw_done = false;
  while (reader.read_line(line)) {
    if (job_id.empty()) {
      util::JsonObject ack;
      ASSERT_TRUE(util::parse_json_object(line, ack).ok()) << line;
      ASSERT_TRUE(util::json_bool(ack, "ok", false)) << line;
      job_id = util::json_str(ack, "job", "");
      ASSERT_FALSE(job_id.empty());
      continue;
    }
    util::JsonValue v;
    ASSERT_TRUE(util::parse_json(line, v).ok()) << line;
    const std::string event = util::json_str(v.obj, "event", "");
    if (!cancelled_sent && event == "round") {
      const util::JsonObject resp = rpc(
          server.port(), R"({"cmd":"cancel","job":")" + job_id + R"("})");
      EXPECT_TRUE(util::json_bool(resp, "ok", false));
      cancelled_sent = true;
      continue;
    }
    if (event == "done") {
      done = v.obj;
      saw_done = true;
      break;
    }
  }
  ASSERT_TRUE(cancelled_sent);
  ASSERT_TRUE(saw_done);
  EXPECT_EQ(util::json_str(done, "state", ""), "cancelled");

  const JobSnapshot snap = server.job(job_id);
  EXPECT_EQ(snap.state, JobState::kCancelled);
  EXPECT_TRUE(snap.outcome.cancelled);
  // The warm-up completed before the cancel, so a finite best was committed.
  EXPECT_TRUE(snap.outcome.has_objective);
  EXPECT_LT(snap.outcome.rounds, 200);

  server.request_drain();
  server.wait();
}

}  // namespace
}  // namespace dco3d
