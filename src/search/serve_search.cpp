#include "search/serve_search.hpp"

#include <algorithm>
#include <cmath>

#include "search/evaluator.hpp"
#include "search/searcher.hpp"
#include "util/rng.hpp"

namespace dco3d {

ServeJobRunner make_search_job_runner() {
  return [](const ServeRunContext& ctx, ServeRunOutcome& outcome) -> Status {
    try {
      Status kind_err;
      const DesignKind kind = parse_serve_kind(ctx.spec.kind, kind_err);
      if (!kind_err.ok()) return kind_err;

      // Same design-construction glue as the flow job path, so a search job
      // and the flow jobs it would spawn share cache keys.
      DesignSpec spec = spec_for(kind, ctx.spec.scale);
      spec.seed = ctx.spec.seed == 0 ? 1 : ctx.spec.seed;
      spec.clock_period_ps = ctx.spec.clock_ps;
      const Netlist design = generate_design(spec);

      FlowConfig base;
      base.grid_nx = base.grid_ny = ctx.spec.grid;
      base.num_tiers = ctx.spec.tiers;
      base.seed = spec.seed;
      base.router = calibrated_router(design, base);

      FlowEvaluatorConfig ec;
      ec.cache = ctx.cache;
      ec.deadline = ctx.deadline;
      ec.cancel = ctx.cancel;
      FlowEvaluator evaluator(spec.name, design, base, ec);

      // The server checked these knobs at submit (finite, and in range of
      // the integer types cast to), so the casts below are defined.
      SearchConfig sc;
      sc.rounds =
          static_cast<int>(util::json_num(ctx.request, "rounds", 4.0));
      sc.batch = static_cast<int>(util::json_num(ctx.request, "batch", 4.0));
      sc.init_samples =
          static_cast<int>(util::json_num(ctx.request, "init", 6.0));
      sc.candidates =
          static_cast<int>(util::json_num(ctx.request, "candidates", 256.0));
      sc.promote_fraction = util::json_num(ctx.request, "promote", 0.25);
      sc.xi = util::json_num(ctx.request, "xi", 0.01);
      sc.cheap_screen = util::json_bool(ctx.request, "cheap", true);
      sc.deadline = ctx.deadline;
      sc.cancel = ctx.cancel;
      sc.cache = ctx.cache;
      if (sc.rounds < 0 || sc.init_samples < 1 || sc.batch < 1 ||
          sc.candidates < 1 || sc.promote_fraction <= 0.0 ||
          sc.promote_fraction > 1.0)
        return Status::invalid_argument(
            "search: need rounds >= 0, init >= 1, batch >= 1, candidates >= "
            "1, 0 < promote <= 1");
      const std::string design_name = spec.name;
      if (ctx.emit) {
        sc.on_round = [&ctx, design_name](const SearchRoundRecord& r) {
          const std::vector<std::string> lines =
              search_trace_lines(design_name, r);
          for (std::size_t i = 0; i < lines.size(); ++i)
            ctx.emit(i + 1 == lines.size() ? "round" : "eval", lines[i]);
        };
      }

      Rng rng(static_cast<std::uint64_t>(
          util::json_num(ctx.request, "search_seed", 1.0)));
      const SearchResult res = multi_fidelity_search(evaluator, sc, rng);

      outcome.has_objective = std::isfinite(res.best_objective);
      outcome.objective = res.best_objective;
      outcome.rounds = res.rounds_completed;
      outcome.cheap_evals = res.cheap_evals;
      outcome.full_evals = res.full_evals;
      outcome.deadline_hit = res.deadline_hit;
      outcome.cancelled = res.cancelled;
      return Status();
    } catch (const StatusError& err) {
      return err.status();
    } catch (const std::exception& err) {
      return Status::internal(err.what());
    }
  };
}

}  // namespace dco3d
