#include "search/serve_search.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "search/evaluator.hpp"
#include "search/searcher.hpp"
#include "util/rng.hpp"

namespace dco3d {

ServeJobRunner make_search_job_runner() {
  return [](const ServeRunContext& ctx, ServeRunOutcome& outcome) -> Status {
    try {
      ServeJobSetup setup = build_serve_job(ctx.spec);
      FlowEvaluatorConfig ec;
      ec.cache = ctx.cache;
      ec.deadline = ctx.deadline;
      ec.cancel = ctx.cancel;
      FlowEvaluator evaluator(setup.name, std::move(setup.design), setup.cfg,
                              ec);

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
      const std::string design_name = setup.name;
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
