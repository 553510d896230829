#pragma once
// Batched multi-fidelity surrogate search over the Table-I placement-knob
// space — the generalization of the sequential "Pin-3D + BO" baseline the
// repo started from (bayes_optimize below). Each round:
//
//   1. fit a GP surrogate to all usable full-fidelity observations;
//   2. generate `candidates` random/perturbed points (sequentially, from the
//      caller's Rng — the deterministic part) and score their expected
//      improvement on util::parallel_for under the fixed-chunk determinism
//      contract (each slot is an independent pure function of the fitted GP,
//      so results are bit-identical at any thread count);
//   3. select B winners q-EI style: greedy EI maximization with a
//      Kriging-believer refit between picks (each pick is appended to a
//      fantasy observation set at its GP-predicted mean, so the next pick
//      avoids clustering);
//   4. evaluate the B winners concurrently through the batch runner —
//      cheap fidelity first when screening is on, with only the top
//      `promote_fraction` re-evaluated as full flows.
//
// With batch=1 and screening off this reduces *exactly* (bit-identically) to
// the old sequential bayes_optimize, which is now a thin wrapper over this
// searcher (declared below). See docs/search.md.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "place/params.hpp"
#include "search/evaluator.hpp"
#include "util/rng.hpp"

namespace dco3d {

class ArtifactCache;

// --- Sequential BO: the "Pin-3D + BO" baseline [19] -----------------------
//
// GP surrogate + expected-improvement acquisition maximized by random
// candidate sampling in the encoded [0,1]^16 space (mixed bool/enum/int/float
// knobs round-trip through PlacementParams::encode/decode).

struct BoConfig {
  int init_samples = 6;   // random warm-up evaluations
  int iterations = 10;    // BO steps after warm-up
  int candidates = 512;   // EI candidates per step
  double xi = 0.01;       // exploration margin
};

struct BoTracePoint {
  PlacementParams params;
  double objective = 0.0;
};

struct BoResult {
  PlacementParams best_params;
  double best_objective = 0.0;
  std::vector<BoTracePoint> trace;  // in evaluation order
};

/// Minimize `objective` (e.g. routing overflow after placement) over the
/// placement-parameter space. Deterministic given rng state. This is the
/// B=1 / full-fidelity special case of multi_fidelity_search, bit-identical
/// to the original sequential implementation (tests/test_search.cpp goldens
/// the equivalence).
BoResult bayes_optimize(const std::function<double(const PlacementParams&)>& objective,
                        const BoConfig& cfg, Rng& rng);

// --- Batched multi-fidelity search -----------------------------------------

struct SearchConfig {
  int init_samples = 6;    // warm-up evaluations (first is always default)
  int rounds = 10;         // search rounds after warm-up
  int batch = 1;           // candidates evaluated per round (B)
  int candidates = 512;    // EI candidate pool per round
  double xi = 0.01;        // exploration margin
  // Fraction of each evaluated batch promoted from cheap to full fidelity
  // (at least one point is always promoted). Only meaningful with
  // cheap_screen and an evaluator that supports_cheap().
  double promote_fraction = 1.0;
  bool cheap_screen = false;
  // Guards, checked at round boundaries (and passed through to flow
  // evaluations by FlowEvaluator): the search early-commits its best-so-far.
  const Deadline* deadline = nullptr;
  const std::atomic<bool>* cancel = nullptr;
  // When set, per-round cache hit/miss deltas are recorded in the trace.
  ArtifactCache* cache = nullptr;
  // Streaming hook: invoked after every completed round (including the
  // warm-up round 0) — the serve-mode search job streams these to clients.
  std::function<void(const struct SearchRoundRecord&)> on_round;
};

/// One evaluation inside a round, in evaluation order.
struct SearchEvalRecord {
  int round = 0;
  int candidate = 0;          // index within the round's evaluations
  Fidelity fidelity = Fidelity::kFull;
  double objective = std::numeric_limits<double>::infinity();
  bool promoted = false;      // this cheap point was promoted to full
  int stages_run = 0;
  int stages_cached = 0;
  PlacementParams params;
};

/// Per-round summary (one JSON line each in the search trace).
struct SearchRoundRecord {
  int round = 0;              // 0 = warm-up
  int candidates = 0;         // EI pool size scored (0 for warm-up)
  int cheap_evals = 0;
  int full_evals = 0;
  int promoted = 0;
  double round_best = std::numeric_limits<double>::infinity();
  double best_objective = std::numeric_limits<double>::infinity();
  std::uint64_t cache_hits = 0;    // ArtifactCache load delta this round
  std::uint64_t cache_misses = 0;  // ArtifactCache miss delta this round
  double wall_ms = 0.0;
  std::vector<SearchEvalRecord> evals;
};

struct SearchResult {
  PlacementParams best_params;
  double best_objective = std::numeric_limits<double>::infinity();
  int cheap_evals = 0;
  int full_evals = 0;
  int rounds_completed = 0;   // search rounds finished (excludes warm-up)
  bool deadline_hit = false;
  bool cancelled = false;
  std::vector<SearchRoundRecord> trace;
};

/// Minimize the evaluator's objective. Deterministic given the rng state:
/// bit-identical trajectories at any thread count, and with batch=1 /
/// cheap_screen=false identical to the legacy bayes_optimize sequence.
/// Throws StatusError kInvalidArgument, before any evaluation, unless
/// rounds >= 0, init_samples >= 1, batch >= 1, candidates >= 1 and
/// 0 < promote_fraction <= 1.
SearchResult multi_fidelity_search(Evaluator& evaluator,
                                   const SearchConfig& cfg, Rng& rng);

// --- Search trace (JSON lines) ---------------------------------------------
//
// Schema "dco3d-search-trace-v1": per-eval records (event "eval": round,
// candidate, fidelity, objective, promoted, stage provenance) followed by a
// per-round summary (event "round": pool size, eval counts, best-so-far,
// cache hit/miss deltas). Validated by tools/check_trace_schema.

inline constexpr const char* kSearchTraceSchema = "dco3d-search-trace-v1";

/// Serialize one round as JSON lines (evals first, round summary last).
std::vector<std::string> search_trace_lines(const std::string& design,
                                            const SearchRoundRecord& round);

/// Append rounds to a JSON-lines file (created if absent). Throws
/// StatusError (kIoError) on stream failure.
void append_search_trace_file(const std::string& path,
                              const std::string& design,
                              const std::vector<SearchRoundRecord>& rounds);

}  // namespace dco3d
