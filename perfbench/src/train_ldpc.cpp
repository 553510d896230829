// train_ldpc: what `dco3d train` does on LDPC at grid 48. Timed:
// build_dataset, then train_predictor, then evaluate_predictor.

#include <cmath>
#include <optional>

#include "checks.hpp"
#include "nn/unet.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dco3d;

namespace {

// The CLI's default dataset size (10 layouts, +2 perturbed copies each),
// and enough epochs that the UNet training part is at least as large as
// dataset construction.
constexpr int kLayouts = 10;
constexpr int kEpochs = 32;
// Half the CLI's default learning rate: at 2e-3 the held-out loss swings by
// about +-30% from epoch to epoch, so whether the last epoch ends below the
// first is close to a coin toss on small datasets (see CHANGES.md).
constexpr float kLearningRate = 1e-3f;

struct TrainRun {
  double seconds = 0.0;
  std::vector<DataSample> dataset;
  Predictor pred;
  double build_ms = 0.0, train_ms = 0.0, eval_ms = 0.0;
};

TrainRun run_train(const Netlist& design, const DatasetConfig& dc,
                   const TrainConfig& tc, Tracer& tr) {
  TrainRun r;
  const auto t0 = Clock::now();
  Scoped op(tr, "flow.train");
  {
    Scoped s(tr, "flow.dataset.build");
    r.dataset = build_dataset(design, dc);
    r.build_ms = s.stop();
  }
  {
    Scoped s(tr, "core.train");
    r.pred = train_predictor(r.dataset, tc);
    r.train_ms = s.stop();
  }
  {
    Scoped s(tr, "core.eval");
    std::vector<const DataSample*> train, test;
    split_dataset(r.dataset, tc.test_fraction, train, test);
    (void)evaluate_predictor(r.pred, test);
    r.eval_ms = s.stop();
  }
  r.seconds = ms_since(t0) * 1e-3;
  return r;
}

}  // namespace

RunResult run_train_ldpc(const Options& opt, Tracer& tr, Metrics& m) {
  RunResult rr;
  Netlist design;
  FlowConfig cfg;
  DatasetConfig dc;
  TrainConfig tc;
  {
    Scoped s(tr, "setup");
    design = make_ldpc();
    cfg = ldpc_flow_config();
    cfg.router = calibrate(design, cfg);
    dc = ldpc_dataset_config(cfg.router, kLayouts);
    tc = ldpc_train_config(kEpochs);
    tc.lr = kLearningRate;
    tc.seed = 1 + mix_seed(opt.seed, 0x7a1) % 1000000;
  }
  const double setup_s = seconds_since_spawn(opt);

  // --- Timed: whole trainings while the run's time allows (at least one);
  // every training of a run is the same.
  const UtilDelta util0;
  std::vector<double> secs;
  std::optional<TrainRun> first;  // kept for the checks, QoR and traced split
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (;;) {
    TrainRun r = run_train(design, dc, tc, tr);
    secs.push_back(r.seconds);
    ++rr.attempted;
    if (!first) first = std::move(r);
    if (ms_since(t0) * 1e-3 + median(secs) > opt.seconds) break;
  }
  Metrics util_m;  // the timed section's util-layer deltas
  util0.report(util_m);
  const double cpu_s = process_cpu_s() - cpu0;

  {
    Scoped s(tr, "checks");
    rr.check(check_losses_finite(first->pred.curve));
    rr.check(check_test_loss_drops(first->pred.curve));
    std::vector<const DataSample*> train, test;
    split_dataset(first->dataset, tc.test_fraction, train, test);
    nn::UNetConfig saved = tc.unet;
    saved.in_channels = kNumFeatureChannels;
    saved.out_channels = 1;
    rr.check(check_checkpoint_roundtrip(
        first->pred, save_checkpoint(first->pred, saved), test));
  }

  const TrainRun& run = *first;
  m.set("setup_s", setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  rr.details.set("op_cpu_s", cpu_s / static_cast<double>(secs.size()), "s");
  m.set("op_s", median(secs), "s");
  m.set("qor", run.pred.curve.back().test_loss, "qor");
  rr.details.set("predictor_test_loss", run.pred.curve.back().test_loss, "loss");
  if (!opt.trace) return rr;

  std::vector<const DataSample*> train, test;
  split_dataset(run.dataset, tc.test_fraction, train, test);
  const std::int64_t steps =
      static_cast<std::int64_t>(tc.epochs) * static_cast<std::int64_t>(train.size());
  m.set("flow.dataset.samples", static_cast<double>(run.dataset.size()), "count");
  m.set("core.train.steps", static_cast<double>(steps), "count");
  for (const auto& [k, v] : util_m.items()) m.set(k, v.first, v.second);
  rr.details.set("flow.dataset.build_ms", run.build_ms, "ms");
  rr.details.set("core.train.total_ms", run.train_ms, "ms");
  rr.details.set("core.train.epoch_ms", run.train_ms / tc.epochs, "ms");
  rr.details.set("core.eval_ms", run.eval_ms, "ms");
  LayerInputs in;
  in.design = &design;
  in.cfg = cfg;
  in.predictor = &run.pred;
  replay_layers(in, tr, m);
  return rr;
}

}  // namespace perfbench
