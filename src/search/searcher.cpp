#include "search/searcher.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <utility>

#include "flow/cache.hpp"
#include "search/gp.hpp"
#include "util/jsonl.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace dco3d {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

SearchResult multi_fidelity_search(Evaluator& evaluator,
                                   const SearchConfig& cfg, Rng& rng) {
  if (cfg.rounds < 0 || cfg.init_samples < 1 || cfg.batch < 1 ||
      cfg.candidates < 1 ||
      !(cfg.promote_fraction > 0.0 && cfg.promote_fraction <= 1.0))
    throw StatusError(Status::invalid_argument(
        "search: need rounds >= 0, init >= 1, batch >= 1, candidates >= 1, "
        "0 < promote <= 1"));
  SearchResult res;
  const bool cheap = cfg.cheap_screen && evaluator.supports_cheap();

  // Usable full-fidelity observations — the GP's training set.
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;

  const auto cache_stats = [&]() {
    return cfg.cache ? cfg.cache->stats() : ArtifactCacheStats{};
  };

  // Run one round: `full_first` points go straight to full fidelity (the
  // warm-up default), `batch_points` go through cheap screening when it is
  // on. Updates best/observations and appends the round record.
  const auto run_round = [&](int round,
                             const std::vector<PlacementParams>& full_first,
                             const std::vector<PlacementParams>& batch_points,
                             int pool_size) {
    SearchRoundRecord rec;
    rec.round = round;
    rec.candidates = pool_size;
    const auto t0 = Clock::now();
    const ArtifactCacheStats cs0 = cache_stats();

    const auto absorb_full = [&](const PlacementParams& p, const EvalResult& r,
                                 bool promoted) {
      SearchEvalRecord er;
      er.round = round;
      er.candidate = static_cast<int>(rec.evals.size());
      er.fidelity = Fidelity::kFull;
      er.objective = r.objective;
      er.promoted = promoted;
      er.stages_run = r.stages_run;
      er.stages_cached = r.stages_cached;
      er.params = p;
      rec.evals.push_back(std::move(er));
      rec.full_evals++;
      res.full_evals++;
      if (r.status.ok() && std::isfinite(r.objective)) {
        const auto enc = p.encode();
        xs.emplace_back(enc.begin(), enc.end());
        ys.push_back(r.objective);
        rec.round_best = std::min(rec.round_best, r.objective);
        if (r.objective < res.best_objective) {
          res.best_objective = r.objective;
          res.best_params = p;
        }
      }
    };

    if (!full_first.empty()) {
      const auto results = evaluator.evaluate_many(full_first, Fidelity::kFull);
      for (std::size_t i = 0; i < full_first.size(); ++i)
        absorb_full(full_first[i], results[i], false);
    }

    if (!batch_points.empty()) {
      if (!cheap) {
        const auto results =
            evaluator.evaluate_many(batch_points, Fidelity::kFull);
        for (std::size_t i = 0; i < batch_points.size(); ++i)
          absorb_full(batch_points[i], results[i], false);
      } else {
        const auto screened =
            evaluator.evaluate_many(batch_points, Fidelity::kCheap);
        const std::size_t base = rec.evals.size();
        for (std::size_t i = 0; i < batch_points.size(); ++i) {
          SearchEvalRecord er;
          er.round = round;
          er.candidate = static_cast<int>(rec.evals.size());
          er.fidelity = Fidelity::kCheap;
          er.objective = screened[i].objective;
          er.stages_run = screened[i].stages_run;
          er.stages_cached = screened[i].stages_cached;
          er.params = batch_points[i];
          rec.evals.push_back(std::move(er));
          rec.cheap_evals++;
          res.cheap_evals++;
        }
        // Rank by cheap objective (stable on index: failed evaluations are
        // +inf and sink to the back) and promote the top fraction — always
        // at least one — to full fidelity.
        std::vector<std::size_t> order(batch_points.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    if (screened[a].objective != screened[b].objective)
                      return screened[a].objective < screened[b].objective;
                    return a < b;
                  });
        const auto want = static_cast<std::size_t>(std::ceil(
            cfg.promote_fraction * static_cast<double>(batch_points.size())));
        const std::size_t k =
            std::min(batch_points.size(), std::max<std::size_t>(1, want));
        std::vector<PlacementParams> promoted;
        promoted.reserve(k);
        for (std::size_t j = 0; j < k; ++j) {
          rec.evals[base + order[j]].promoted = true;
          promoted.push_back(batch_points[order[j]]);
        }
        rec.promoted = static_cast<int>(k);
        const auto results = evaluator.evaluate_many(promoted, Fidelity::kFull);
        for (std::size_t j = 0; j < promoted.size(); ++j)
          absorb_full(promoted[j], results[j], true);
      }
    }

    const ArtifactCacheStats cs1 = cache_stats();
    rec.cache_hits = cs1.loads - cs0.loads;
    rec.cache_misses = cs1.misses - cs0.misses;
    rec.wall_ms = ms_since(t0);
    rec.best_objective = res.best_objective;
    res.trace.push_back(std::move(rec));
    if (cfg.on_round) cfg.on_round(res.trace.back());
  };

  // Warm-up (round 0): the default Table-I configuration is always the
  // first full-fidelity evaluation (the sequential baseline's contract),
  // followed by init_samples-1 random draws — cheap-screened when on. The
  // rng consumption here is identical to the legacy sequential loop.
  {
    std::vector<PlacementParams> samples;
    for (int i = 1; i < cfg.init_samples; ++i)
      samples.push_back(PlacementParams::sample(rng));
    run_round(0, {PlacementParams{}}, samples, 0);
  }

  const int n = std::max(1, cfg.candidates);
  const int batch = std::max(1, cfg.batch);

  for (int it = 0; it < cfg.rounds; ++it) {
    // Guards at round boundaries: early-commit the best-so-far.
    if (cfg.deadline && cfg.deadline->expired()) {
      res.deadline_hit = true;
      break;
    }
    if (cfg.cancel && cfg.cancel->load(std::memory_order_relaxed)) {
      res.cancelled = true;
      break;
    }

    GaussianProcess gp;
    if (!xs.empty()) gp.fit(xs, ys);

    // Candidate generation is sequential — it is the only consumer of the
    // caller's rng, so the trajectory is a pure function of the seed. Half
    // the pool are fresh random draws, half perturbations of the incumbent
    // (the legacy acquisition, verbatim).
    std::vector<PlacementParams> pool;
    pool.reserve(static_cast<std::size_t>(n));
    std::vector<std::vector<double>> encs(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
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
      encs[static_cast<std::size_t>(c)] = {enc.begin(), enc.end()};
      pool.push_back(cand);
    }

    // EI scoring runs on the pool under the fixed-chunk contract: every
    // slot is an independent pure function of the fitted (const) GP, so
    // the result vector is bit-identical at any thread count.
    std::vector<double> ei(static_cast<std::size_t>(n));
    const auto score = [&](const GaussianProcess& g) {
      util::parallel_for(0, n, 32, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t c = b; c < e; ++c)
          ei[static_cast<std::size_t>(c)] = expected_improvement(
              g.predict(encs[static_cast<std::size_t>(c)]),
              res.best_objective, cfg.xi);
      });
    };
    score(gp);

    // Greedy q-EI: pick the EI argmax (first maximum wins — the B=1 case is
    // byte-for-byte the legacy selection), then believe it at its predicted
    // mean, refit, rescore, and pick again. Duplicate encodings are skipped
    // so a round never evaluates the same point twice concurrently.
    std::vector<char> excluded(static_cast<std::size_t>(n), 0);
    std::vector<PlacementParams> selected;
    GaussianProcess cur = gp;
    std::vector<std::vector<double>> fxs = xs;
    std::vector<double> fys = ys;
    for (int b = 0; b < batch; ++b) {
      int best_c = -1;
      double best_ei = -1.0;
      for (int c = 0; c < n; ++c) {
        if (excluded[static_cast<std::size_t>(c)]) continue;
        if (ei[static_cast<std::size_t>(c)] > best_ei) {
          best_ei = ei[static_cast<std::size_t>(c)];
          best_c = c;
        }
      }
      if (best_c < 0) break;  // pool exhausted (all duplicates)
      const auto& picked_enc = encs[static_cast<std::size_t>(best_c)];
      for (int c = 0; c < n; ++c)
        if (encs[static_cast<std::size_t>(c)] == picked_enc)
          excluded[static_cast<std::size_t>(c)] = 1;
      selected.push_back(pool[static_cast<std::size_t>(best_c)]);
      if (b + 1 < batch) {
        fxs.push_back(picked_enc);
        fys.push_back(cur.predict(picked_enc).mean);
        cur.fit(fxs, fys);
        score(cur);
      }
    }

    run_round(it + 1, {}, selected, n);
    res.rounds_completed++;
  }

  return res;
}

// The legacy sequential API, re-expressed as the B=1 / full-fidelity special
// case of the searcher. Bit-identical to the pre-refactor implementation:
// same rng consumption, same first-maximum EI selection, same trace order.
BoResult bayes_optimize(
    const std::function<double(const PlacementParams&)>& objective,
    const BoConfig& cfg, Rng& rng) {
  FunctionEvaluator evaluator(objective);
  SearchConfig sc;
  sc.init_samples = cfg.init_samples;
  sc.rounds = cfg.iterations;
  sc.batch = 1;
  sc.candidates = cfg.candidates;
  sc.xi = cfg.xi;
  const SearchResult sr = multi_fidelity_search(evaluator, sc, rng);

  BoResult out;
  out.best_params = sr.best_params;
  out.best_objective = sr.best_objective;
  for (const SearchRoundRecord& round : sr.trace)
    for (const SearchEvalRecord& e : round.evals)
      out.trace.push_back({e.params, e.objective});
  return out;
}

std::vector<std::string> search_trace_lines(const std::string& design,
                                            const SearchRoundRecord& round) {
  std::vector<std::string> lines;
  lines.reserve(round.evals.size() + 1);
  for (const SearchEvalRecord& e : round.evals) {
    util::JsonWriter w;
    w.field("schema", kSearchTraceSchema);
    w.field("event", "eval");
    if (!design.empty()) w.field("design", design);
    w.field("round", e.round);
    w.field("candidate", e.candidate);
    w.field("fidelity", fidelity_name(e.fidelity));
    w.field("objective", e.objective);  // non-finite (failed) serializes as 0
    w.field("usable", std::isfinite(e.objective));
    w.field("promoted", e.promoted);
    w.field("stages_run", e.stages_run);
    w.field("stages_cached", e.stages_cached);
    lines.push_back(w.done());
  }
  util::JsonWriter w;
  w.field("schema", kSearchTraceSchema);
  w.field("event", "round");
  if (!design.empty()) w.field("design", design);
  w.field("round", round.round);
  w.field("candidates", round.candidates);
  w.field("cheap_evals", round.cheap_evals);
  w.field("full_evals", round.full_evals);
  w.field("promoted", round.promoted);
  w.field("round_best", round.round_best);
  w.field("best_objective", round.best_objective);
  w.field("cache_hits", round.cache_hits);
  w.field("cache_misses", round.cache_misses);
  w.field("wall_ms", round.wall_ms);
  w.field("threads", util::num_threads());
  lines.push_back(w.done());
  return lines;
}

void append_search_trace_file(const std::string& path,
                              const std::string& design,
                              const std::vector<SearchRoundRecord>& rounds) {
  std::ofstream os(path, std::ios::app);
  if (!os)
    throw StatusError(Status::io_error("search trace: cannot open " + path));
  for (const SearchRoundRecord& r : rounds)
    for (const std::string& line : search_trace_lines(design, r))
      os << line << '\n';
  os.flush();
  if (!os)
    throw StatusError(Status::io_error("search trace: write failed on " + path));
}

}  // namespace dco3d
