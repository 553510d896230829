// End-to-end integration tests: the full DCO-3D pipeline (dataset -> train
// -> Alg. 2 -> flow) on a small design, checking the paper's headline claim
// (congestion drops without wrecking QoR) and whole-flow determinism.

#include <gtest/gtest.h>

#include "core/dco.hpp"
#include "core/trainer.hpp"
#include "flow/pin3d.hpp"
#include "flow/stage.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace dco3d {
namespace {

/// Shared expensive fixture: one trained predictor per suite run.
class DcoPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DesignSpec spec = spec_for(DesignKind::kLdpc, 0.015);
    spec.seed = 21;
    design_ = new Netlist(generate_design(spec));

    // Tight routing capacities so the scaled-down test design actually
    // congests and the labels carry signal.
    RouterConfig tight;
    tight.h_capacity = 4.0;
    tight.v_capacity = 3.5;

    DatasetConfig dcfg;
    dcfg.layouts = 10;
    dcfg.grid_nx = dcfg.grid_ny = 32;
    dcfg.net_h = dcfg.net_w = 32;
    dcfg.router = tight;
    dataset_ = new std::vector<DataSample>(build_dataset(*design_, dcfg));

    TrainConfig tcfg;
    tcfg.epochs = 10;
    tcfg.unet.base_channels = 8;
    tcfg.unet.depth = 2;
    predictor_ = new Predictor(train_predictor(*dataset_, tcfg));

    clock_ps_ = spec.clock_period_ps;
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete dataset_;
    delete design_;
    predictor_ = nullptr;
    dataset_ = nullptr;
    design_ = nullptr;
  }

  static Netlist* design_;
  static std::vector<DataSample>* dataset_;
  static Predictor* predictor_;
  static double clock_ps_;
};

Netlist* DcoPipeline::design_ = nullptr;
std::vector<DataSample>* DcoPipeline::dataset_ = nullptr;
Predictor* DcoPipeline::predictor_ = nullptr;
double DcoPipeline::clock_ps_ = 200.0;

TEST_F(DcoPipeline, TrainingConverged) {
  ASSERT_FALSE(predictor_->curve.empty());
  // Normalized inputs start training near a good operating point, so the
  // relative drop is modest; require monotone-ish improvement and a healthy
  // final test loss (labels are normalized to [0, 1]).
  EXPECT_LE(predictor_->curve.back().train_loss,
            predictor_->curve.front().train_loss);
  EXPECT_LT(predictor_->curve.back().test_loss, 0.2);
}

TEST_F(DcoPipeline, PredictorBeatsRudyOnHeldOut) {
  // Fig. 5(c): the trained model should correlate with ground truth at least
  // as well as the raw RUDY estimate. (On tiny datasets we only require it
  // to be competitive, not strictly better.)
  std::vector<const DataSample*> train, test;
  split_dataset(*dataset_, 0.2, train, test);
  ASSERT_FALSE(test.empty());
  const DataSample& s = *test[0];
  nn::Tensor out[2];
  predictor_->predict(s, out);
  // RUDY proxy: 2D + 3D RUDY channels of the input features.
  const auto hw = static_cast<std::size_t>(s.features[0].dim(2) *
                                           s.features[0].dim(3));
  double corr_model = 0.0, corr_rudy = 0.0;
  for (int die = 0; die < 2; ++die) {
    std::vector<float> rudy(hw);
    auto f = s.features[die].data();
    for (std::size_t i = 0; i < hw; ++i)
      rudy[i] = f[static_cast<std::size_t>(kRudy2D) * hw + i] +
                f[static_cast<std::size_t>(kRudy3D) * hw + i];
    corr_model += pearson(out[die].data(), s.labels[die].data());
    corr_rudy += pearson(rudy, s.labels[die].data());
  }
  EXPECT_GT(corr_model, corr_rudy - 0.35);
  EXPECT_GT(corr_model, 0.0);
}

TEST_F(DcoPipeline, DcoReducesPredictedAndRoutedCongestion) {
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  cfg.timing.clock_period_ps = clock_ps_;
  cfg.router.h_capacity = 4.0;
  cfg.router.v_capacity = 3.5;
  cfg.seed = 33;

  const FlowResult base = run_pin3d_flow(*design_, cfg);

  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.max_iter = 30;
  FlowContext ctx = make_flow_context(*design_, cfg);
  DcoResult dco_out;
  attach_dco(ctx, *predictor_, dcfg, &dco_out);
  const FlowResult ours = pin3d_pipeline().run(ctx);

  // Alg. 2 must have run and the trial-route gate must hold: the committed
  // result never scores worse than the input...
  ASSERT_GE(dco_out.trace.size(), 2u);
  EXPECT_LE(dco_out.best_loss, dco_out.initial_score + 1e-6);
  // ...and the end-of-flow routed overflow must not regress (the trial
  // gate scores candidates on the post-CTS route, so signoff overflow is
  // the quantity it guards; equality allowed when no candidate wins).
  EXPECT_LT(ours.signoff.overflow, base.signoff.overflow * 1.05);
}

TEST_F(DcoPipeline, DcoKeepsPlacementLegalizable) {
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  cfg.timing.clock_period_ps = clock_ps_;
  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.max_iter = 10;
  dcfg.restarts = 1;
  FlowContext ctx = make_flow_context(*design_, cfg);
  attach_dco(ctx, *predictor_, dcfg);
  const FlowResult ours = pin3d_pipeline().run(ctx);
  // Flow completed: finite metrics, nonzero wirelength, power present.
  EXPECT_GT(ours.signoff.wirelength_um, 0.0);
  EXPECT_GT(ours.signoff.power_mw, 0.0);
  EXPECT_TRUE(std::isfinite(ours.signoff.tns_ps));
}

TEST_F(DcoPipeline, DcoDeterministic) {
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(*design_, params, 9, false);
  TimingConfig tcfg;
  tcfg.clock_period_ps = clock_ps_;
  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.max_iter = 5;
  dcfg.restarts = 1;
  const DcoResult a = run_dco(*design_, pl, *predictor_, tcfg, dcfg);
  const DcoResult b = run_dco(*design_, pl, *predictor_, tcfg, dcfg);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    EXPECT_DOUBLE_EQ(a.trace[i].total, b.trace[i].total);
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.placement.xy[i].x, b.placement.xy[i].x);
    EXPECT_EQ(a.placement.tier[i], b.placement.tier[i]);
  }
}

TEST_F(DcoPipeline, LossTraceRecordsAllTerms) {
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(*design_, params, 9, false);
  TimingConfig tcfg;
  tcfg.clock_period_ps = clock_ps_;
  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.max_iter = 3;
  dcfg.restarts = 1;
  const DcoResult r = run_dco(*design_, pl, *predictor_, tcfg, dcfg);
  ASSERT_GE(r.trace.size(), 1u);
  for (const DcoIterate& it : r.trace) {
    EXPECT_GE(it.cong, 0.0);
    EXPECT_GE(it.ovlp, 0.0);
    EXPECT_GE(it.cut, 0.0);
    EXPECT_GE(it.disp, 0.0);
    EXPECT_NEAR(it.total,
                dcfg.alpha_disp * it.disp + dcfg.beta_ovlp * it.ovlp +
                    dcfg.gamma_cut * it.cut + dcfg.delta_cong * it.cong,
                1e-2 * std::max(1.0, it.total));
  }
}

}  // namespace
}  // namespace dco3d
