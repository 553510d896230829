#pragma once
// Global router over the per-die GCell grids — our substitute for ICC2's
// global route and its congestion report. Supplies:
//   * ground-truth congestion label maps for training (§III-B2),
//   * the overflow / H-V overflow / overflowed-GCell% columns of Table III,
//   * routed wirelength for the WL column.
//
// Model: each of the K stacked dies has horizontal and vertical edge
// capacities between adjacent GCells (reduced under macros). Nets are
// decomposed into 2-pin segments by a rectilinear Prim MST; nets spanning
// multiple tiers get a via GCell at the pin median that becomes a terminal
// on every tier in the net's span — a via stack of (max tier - min tier)
// hops. Initial routing uses best-of-two L-shapes; negotiated
// rip-up-and-reroute (history-cost Dijkstra) then resolves overflow for a
// configurable number of rounds — exactly the classical NCTU/NTHU-style
// global routing loop. The Dijkstra settles tiles in (distance, tile id)
// order, so among equal-cost paths the one it picks is fixed, and with it
// every bit of the result (docs/performance.md, "Global router").

#include <cstddef>
#include <vector>

#include "grid/gcell_grid.hpp"
#include "netlist/netlist.hpp"

namespace dco3d {

struct RouterConfig {
  // Tracks per GCell boundary, per direction. Calibrated so typical
  // placements route with localized hotspots (as in the paper's maps).
  double h_capacity = 14.0;
  double v_capacity = 12.0;
  double macro_capacity_factor = 0.15;  // capacity left under macros
  int rrr_rounds = 3;
  double history_increment = 1.0;
  double present_penalty = 2.0;  // cost multiplier per unit of overuse
  int maze_margin = 6;           // extra tiles around the net bbox for maze search
};

struct RouteResult {
  int num_tiers = 2;
  // Per-die congestion label map (tile overflow), size ny*nx.
  std::vector<std::vector<float>> congestion;
  // Per-die density-style usage map (total edge usage per tile), for Fig. 6.
  std::vector<std::vector<float>> usage;
  double total_overflow = 0.0;
  double h_overflow = 0.0;
  double v_overflow = 0.0;
  // Per-tier total overflow (h + v on that die); sums to total_overflow.
  std::vector<double> tier_overflow;
  // Per-tier-boundary via-stack crossings: entry b counts nets whose span
  // covers the boundary between tier b and b+1 (size num_tiers - 1).
  std::vector<std::size_t> vias_per_boundary;
  double ovf_gcell_pct = 0.0;  // % of GCells (all dies) with overflow
  double wirelength = 0.0;     // routed WL in um (includes via penalty)
  std::size_t num_3d_vias = 0; // total boundary crossings over all nets
  // Per-net routed wirelength (um): feeds the detour factors that couple
  // congestion into signoff timing/power.
  std::vector<double> net_routed_wl;
  // Per-net count of overflowed edges used (ECO-detour severity signal).
  std::vector<double> net_overflow_crossings;
};

/// Route all nets of the design and return congestion metrics. The tier
/// count is taken from the placement.
RouteResult global_route(const Netlist& netlist, const Placement3D& placement,
                         const GCellGrid& grid, const RouterConfig& cfg = {});

/// Capacity auto-calibration. Our designs are scale models (see DESIGN.md),
/// so absolute track counts do not transfer across scales; instead, route a
/// reference placement with unbounded capacity and set per-direction
/// capacities at the `percentile` of the observed nonzero edge usage. Edges
/// hotter than that percentile overflow, reproducing the "mostly routable
/// with localized hotspots" regime of the paper's designs. The returned
/// config must be reused for every flow variant of the same design so that
/// comparisons share one capacity model.
RouterConfig calibrate_capacity(const Netlist& netlist,
                                const Placement3D& placement,
                                const GCellGrid& grid,
                                const RouterConfig& base = {},
                                double percentile = 0.90);

}  // namespace dco3d
