// Gaussian process and Bayesian optimization tests.

#include <gtest/gtest.h>

#include <cmath>

#include "search/gp.hpp"
#include "search/searcher.hpp"
#include "util/rng.hpp"

namespace dco3d {
namespace {

TEST(Gp, InterpolatesTrainingPoints) {
  GaussianProcess gp;
  std::vector<std::vector<double>> x{{0.0}, {0.5}, {1.0}};
  std::vector<double> y{1.0, -1.0, 2.0};
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto p = gp.predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 0.05);
    EXPECT_LT(p.var, 0.1);
  }
}

TEST(Gp, UncertaintyGrowsAwayFromData) {
  GaussianProcess gp;
  gp.fit({{0.0}, {0.1}}, {0.0, 0.1});
  const auto near = gp.predict({0.05});
  const auto far = gp.predict({3.0});
  EXPECT_LT(near.var, far.var);
}

TEST(Gp, UnfittedReturnsPrior) {
  GaussianProcess gp;
  const auto p = gp.predict({0.3, 0.7});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_GT(p.var, 0.0);
}

TEST(Gp, SmoothInterpolationBetweenPoints) {
  GaussianProcess gp(GaussianProcess::Hyper{0.4, 1.0, 1e-6});
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) {
    const double t = i / 10.0;
    x.push_back({t});
    y.push_back(std::sin(2 * t));
  }
  gp.fit(x, y);
  const auto p = gp.predict({0.55});
  EXPECT_NEAR(p.mean, std::sin(1.1), 0.05);
}

TEST(ExpectedImprovement, ZeroWhenCertainAndWorse) {
  GaussianProcess::Prediction p;
  p.mean = 5.0;
  p.var = 1e-16;
  EXPECT_DOUBLE_EQ(expected_improvement(p, /*best=*/1.0), 0.0);
}

TEST(ExpectedImprovement, PositiveWhenLikelyBetter) {
  GaussianProcess::Prediction p;
  p.mean = 0.0;
  p.var = 1.0;
  EXPECT_GT(expected_improvement(p, /*best=*/1.0), 0.5);
}

TEST(ExpectedImprovement, MonotoneInMean) {
  GaussianProcess::Prediction good, bad;
  good.mean = 0.0;
  bad.mean = 2.0;
  good.var = bad.var = 0.5;
  EXPECT_GT(expected_improvement(good, 1.0), expected_improvement(bad, 1.0));
}

TEST(BayesOpt, ImprovesSyntheticObjective) {
  // Quadratic bowl over two of the encoded knobs: optimum at
  // target_routing_density = 0.3, max_density = 0.7.
  auto objective = [](const PlacementParams& p) {
    const double a = p.target_routing_density - 0.3;
    const double b = p.max_density - 0.7;
    return a * a + b * b;
  };
  Rng rng(5);
  BoConfig cfg;
  cfg.init_samples = 5;
  cfg.iterations = 15;
  const BoResult res = bayes_optimize(objective, cfg, rng);
  ASSERT_EQ(res.trace.size(), static_cast<std::size_t>(cfg.init_samples + cfg.iterations));
  // Better than the default starting point and close to the optimum.
  EXPECT_LT(res.best_objective, objective(PlacementParams{}));
  EXPECT_LT(res.best_objective, 0.08);
}

TEST(BayesOpt, TraceBestIsConsistent) {
  auto objective = [](const PlacementParams& p) {
    return p.max_density;  // minimized at 0
  };
  Rng rng(7);
  BoConfig cfg;
  cfg.init_samples = 4;
  cfg.iterations = 6;
  const BoResult res = bayes_optimize(objective, cfg, rng);
  double best = 1e18;
  for (const auto& pt : res.trace) best = std::min(best, pt.objective);
  EXPECT_DOUBLE_EQ(best, res.best_objective);
  EXPECT_DOUBLE_EQ(objective(res.best_params), res.best_objective);
}

TEST(BayesOpt, DeterministicForSeed) {
  auto objective = [](const PlacementParams& p) {
    return std::abs(p.target_routing_density - 0.42);
  };
  Rng r1(9), r2(9);
  BoConfig cfg;
  cfg.init_samples = 4;
  cfg.iterations = 4;
  const BoResult a = bayes_optimize(objective, cfg, r1);
  const BoResult b = bayes_optimize(objective, cfg, r2);
  EXPECT_DOUBLE_EQ(a.best_objective, b.best_objective);
}

TEST(BayesOpt, AlwaysIncludesDefaultConfig) {
  // First trace entry must be the stock parameters, so BO can never report
  // a "best" worse than the default flow.
  auto objective = [](const PlacementParams&) { return 1.0; };
  Rng rng(11);
  BoConfig cfg;
  cfg.init_samples = 3;
  cfg.iterations = 1;
  const BoResult res = bayes_optimize(objective, cfg, rng);
  const PlacementParams def;
  EXPECT_EQ(res.trace[0].params.encode(), def.encode());
}

}  // namespace
}  // namespace dco3d
