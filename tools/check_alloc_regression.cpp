// Allocation-regression check. Runs a fixed DCO training iteration (Siamese
// UNet forward/backward + Eq. (6) soft maps + cutsize/overlap losses on an
// 8x8 grid) at one thread and compares the arena's peak live bytes and heap
// allocation count against a recorded baseline. Exits non-zero if either
// exceeds the baseline by more than 10%, so PRs that silently reintroduce
// copy or allocation traffic fail in CI.
//
// Usage:
//   check_alloc_regression <baseline-file>            verify against baseline
//   check_alloc_regression <baseline-file> --record   (re)write the baseline
//
// The measured iteration runs after a warm-up pass so the arena free lists
// are in steady state; chunk boundaries and allocation counts are
// thread-count-independent by the determinism contract, but the tool pins
// one thread anyway so the measurement environment is fixed.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/losses.hpp"
#include "grid/gcell_grid.hpp"
#include "grid/soft_maps.hpp"
#include "netlist/generators.hpp"
#include "nn/autograd.hpp"
#include "nn/ops.hpp"
#include "nn/unet.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dco3d {
namespace {

struct Measurement {
  std::uint64_t peak_bytes = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t requests = 0;
  std::uint64_t retain_peak_bytes = 0;  // same iteration with retain_graph
};

/// One fixed DCO-style iteration: UNet fwd/bwd on 8x8 maps, soft feature
/// maps, cutsize + overlap losses, full backward.
void dco_iteration(const Netlist& design, const GCellGrid& grid,
                   nn::SiameseUNet& model, bool retain_graph) {
  const auto n = static_cast<std::int64_t>(design.num_cells());
  Rng rng(17);
  nn::Tensor tx({n}), ty({n}), tz({n});
  for (std::int64_t i = 0; i < n; ++i) {
    tx[i] = static_cast<float>(rng.uniform(0.0, 55.0));
    ty[i] = static_cast<float>(rng.uniform(0.0, 55.0));
    tz[i] = static_cast<float>(rng.uniform(0.1, 0.9));
  }
  nn::Var x = nn::make_leaf(tx, true), y = nn::make_leaf(ty, true),
          z = nn::make_leaf(tz, true);

  SoftMaps maps = soft_feature_maps(design, grid, x, y, z);
  auto [p_top, p_bot] = model.forward(maps.top(), maps.bottom());
  auto edges = std::make_shared<const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      design.cell_graph_edges());
  const Rect outline{0.0, 0.0, 60.0, 60.0};
  nn::Var loss = nn::add(
      nn::add(nn::mean_op(p_top), nn::mean_op(p_bot)),
      nn::add(cutsize_loss(z, edges),
              overlap_loss(design, x, y, z, outline, 8, 8, 0.7)));
  nn::zero_grad(model.parameters());
  nn::zero_grad({x, y, z});
  nn::backward(loss, retain_graph);
}

/// The fixed iteration: 8x8 maps, 160 cells, a base_channels=4 UNet.
Measurement measure() {
  util::set_num_threads(1);
  DesignSpec spec = spec_for(DesignKind::kDma, 0.01);
  spec.target_cells = 160;
  spec.target_ios = 16;
  spec.seed = 5;
  const Netlist design = generate_design(spec);
  const Rect outline{0.0, 0.0, 60.0, 60.0};
  const GCellGrid grid(outline, 8, 8);
  Rng mrng(123);
  nn::UNetConfig cfg;
  cfg.base_channels = 4;
  cfg.depth = 2;
  nn::SiameseUNet model(cfg, mrng);

  auto& arena = util::Arena::instance();
  dco_iteration(design, grid, model, false);  // warm-up: fills the free lists
  arena.reset_peak();
  arena.reset_counters();
  dco_iteration(design, grid, model, false);
  const util::ArenaStats st = arena.stats();
  Measurement m{st.peak_bytes, st.heap_allocs, st.requests, 0};
  // Reference point for the peak-memory claim: the same iteration with
  // retain_graph (the pre-reclamation tape behavior).
  arena.reset_peak();
  dco_iteration(design, grid, model, true);
  m.retain_peak_bytes = arena.stats().peak_bytes;
  return m;
}

}  // namespace
}  // namespace dco3d

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <baseline-file> [--record]\n", argv[0]);
    return 2;
  }

  const std::string path = argv[1];
  const bool record = argc > 2 && std::strcmp(argv[2], "--record") == 0;

  const dco3d::Measurement m = dco3d::measure();
  std::printf("measured: peak_bytes=%llu heap_allocs=%llu requests=%llu\n",
              static_cast<unsigned long long>(m.peak_bytes),
              static_cast<unsigned long long>(m.heap_allocs),
              static_cast<unsigned long long>(m.requests));
  if (m.requests > 0)
    std::printf("arena reuse: %.1f%% of buffer requests served from the pool\n",
                100.0 * static_cast<double>(m.requests - m.heap_allocs) /
                    static_cast<double>(m.requests));
  if (m.retain_peak_bytes > 0)
    std::printf("tape reclamation: peak %llu vs %llu with retain_graph (%.1f%% lower)\n",
                static_cast<unsigned long long>(m.peak_bytes),
                static_cast<unsigned long long>(m.retain_peak_bytes),
                100.0 * (1.0 - static_cast<double>(m.peak_bytes) /
                                   static_cast<double>(m.retain_peak_bytes)));

  if (record) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write baseline %s\n", path.c_str());
      return 2;
    }
    out << "peak_bytes " << m.peak_bytes << "\n"
        << "heap_allocs " << m.heap_allocs << "\n";
    std::printf("baseline recorded to %s\n", path.c_str());
    return 0;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr,
                 "baseline %s missing; run with --record to create it\n",
                 path.c_str());
    return 2;
  }
  std::uint64_t base_peak = 0, base_allocs = 0;
  std::string key;
  while (in >> key) {
    if (key == "peak_bytes")
      in >> base_peak;
    else if (key == "heap_allocs")
      in >> base_allocs;
    else
      in.ignore(256, '\n');
  }
  std::printf("baseline: peak_bytes=%llu heap_allocs=%llu (+10%% allowed)\n",
              static_cast<unsigned long long>(base_peak),
              static_cast<unsigned long long>(base_allocs));

  bool ok = true;
  if (m.peak_bytes * 10 > base_peak * 11) {
    std::fprintf(stderr, "FAIL: peak arena bytes %llu exceed baseline %llu by >10%%\n",
                 static_cast<unsigned long long>(m.peak_bytes),
                 static_cast<unsigned long long>(base_peak));
    ok = false;
  }
  if (m.heap_allocs * 10 > base_allocs * 11) {
    std::fprintf(stderr, "FAIL: heap allocs %llu exceed baseline %llu by >10%%\n",
                 static_cast<unsigned long long>(m.heap_allocs),
                 static_cast<unsigned long long>(base_allocs));
    ok = false;
  }
  if (ok) std::printf("OK: within 10%% of baseline\n");
  return ok ? 0 : 1;
}
