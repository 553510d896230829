#include "route/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dco3d {

namespace {

struct TilePt {
  int m = 0, n = 0;
};

/// One routed edge of a net (for rip-up).
struct RoutedEdge {
  std::int8_t die = 0;
  bool horizontal = false;
  std::int32_t index = 0;
};

/// Per-net routing record for rip-up.
struct NetRoute {
  std::vector<RoutedEdge> edges;
};

/// The edges of one routing direction on one die, indexed by edge.
struct EdgeSet {
  std::vector<double> cap, use, hist;
  // Present cost of each edge, refreshed wherever cap/use/hist change
  // (Router::refresh), so searches and L-shape sums read it directly.
  std::vector<double> cost;

  EdgeSet(std::size_t n, double capacity)
      : cap(n, capacity), use(n, 0.0), hist(n, 0.0), cost(n, 0.0) {}
  bool over(std::size_t i) const { return use[i] > cap[i]; }
  double overflow(std::size_t i) const { return std::max(use[i] - cap[i], 0.0); }
};

/// Edge state of a K-tier stack plus the maze-search scratch.
class Router {
 public:
  Router(const GCellGrid& grid, const RouterConfig& cfg, int num_tiers)
      : cfg_(cfg), grid_(grid), nx_(grid.nx()), ny_(grid.ny()) {
    const auto nh = static_cast<std::size_t>(nx_ - 1) * ny_;
    const auto nv = static_cast<std::size_t>(nx_) * (ny_ - 1);
    h.assign(static_cast<std::size_t>(num_tiers), EdgeSet(nh, cfg.h_capacity));
    v.assign(static_cast<std::size_t>(num_tiers), EdgeSet(nv, cfg.v_capacity));
    for (auto* sets : {&h, &v})
      for (EdgeSet& e : *sets)
        for (std::size_t i = 0; i < e.cost.size(); ++i) refresh(e, i);
  }

  std::size_t h_edge_index(int m, int n) const {  // (m,n) -> (m+1,n)
    return static_cast<std::size_t>(n) * (nx_ - 1) + m;
  }
  std::size_t v_edge_index(int m, int n) const {  // (m,n) -> (m,n+1)
    return static_cast<std::size_t>(n) * nx_ + m;
  }
  EdgeSet& edges(int die, bool horizontal) {
    return (horizontal ? h : v)[static_cast<std::size_t>(die)];
  }

  void refresh(EdgeSet& e, std::size_t i) const {
    double c = 1.0 + e.hist[i];
    if (e.use[i] >= e.cap[i]) c += cfg_.present_penalty * (e.use[i] - e.cap[i] + 1.0);
    e.cost[i] = c;
  }

  /// Reduce capacity under macro blockages on each die.
  void apply_macro_blockages(const Netlist& netlist, const Placement3D& placement) {
    const double f = cfg_.macro_capacity_factor;
    const int num_tiers = static_cast<int>(h.size());
    auto block = [&](EdgeSet& e, std::size_t i) {
      e.cap[i] *= f;
      refresh(e, i);
    };
    for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci) {
      const auto id = static_cast<CellId>(ci);
      if (!netlist.is_macro(id)) continue;
      const CellType& t = netlist.cell_type(id);
      const Rect m{placement.xy[ci].x, placement.xy[ci].y,
                   placement.xy[ci].x + t.width, placement.xy[ci].y + t.height};
      const int die = std::clamp(placement.tier[ci], 0, num_tiers - 1);
      EdgeSet& hs = edges(die, true);
      EdgeSet& vs = edges(die, false);
      const int m0 = grid_.col_of(m.xlo), m1 = grid_.col_of(m.xhi);
      const int n0 = grid_.row_of(m.ylo), n1 = grid_.row_of(m.yhi);
      // Any edge whose either endpoint tile is covered by the macro loses
      // capacity (the macro body blocks most routing layers).
      for (int n = n0; n <= n1; ++n) {
        for (int mm = m0; mm <= m1; ++mm) {
          const Rect tr = grid_.tile_rect(mm, n);
          if (tr.overlap_area(m) < 0.5 * tr.area()) continue;
          if (mm > 0) block(hs, h_edge_index(mm - 1, n));
          if (mm < nx_ - 1) block(hs, h_edge_index(mm, n));
          if (n > 0) block(vs, v_edge_index(mm, n - 1));
          if (n < ny_ - 1) block(vs, v_edge_index(mm, n));
        }
      }
    }
  }

  void add_edge(NetRoute& route, int die, bool horizontal, std::size_t idx) {
    EdgeSet& e = edges(die, horizontal);
    e.use[idx] += 1.0;
    refresh(e, idx);
    route.edges.push_back({static_cast<std::int8_t>(die), horizontal,
                           static_cast<std::int32_t>(idx)});
  }

  void rip_up(NetRoute& route) {
    for (const RoutedEdge& re : route.edges) {
      EdgeSet& e = edges(re.die, re.horizontal);
      const auto idx = static_cast<std::size_t>(re.index);
      e.use[idx] -= 1.0;
      refresh(e, idx);
    }
    route.edges.clear();
  }

  /// Adds the history increment to every overflowed edge; false if none is.
  bool bump_history() {
    bool any_overflow = false;
    for (std::size_t die = 0; die < h.size(); ++die) {
      for (EdgeSet* e : {&h[die], &v[die]}) {
        for (std::size_t i = 0; i < e->cap.size(); ++i) {
          if (!e->over(i)) continue;
          e->hist[i] += cfg_.history_increment;
          refresh(*e, i);
          any_overflow = true;
        }
      }
    }
    return any_overflow;
  }

  bool net_overflows(const NetRoute& route) {
    for (const RoutedEdge& re : route.edges)
      if (edges(re.die, re.horizontal).over(static_cast<std::size_t>(re.index)))
        return true;
    return false;
  }

  /// Best-of-two L-shape route between tiles.
  void route_l(NetRoute& route, int die, TilePt a, TilePt b) {
    // L1: horizontal first (at a.n), then vertical (at b.m).
    const double c1 = cost_h(die, a.m, b.m, a.n) + cost_v(die, a.n, b.n, b.m);
    // L2: vertical first (at a.m), then horizontal (at b.n).
    const double c2 = cost_v(die, a.n, b.n, a.m) + cost_h(die, a.m, b.m, b.n);
    if (c1 <= c2) {
      run_h(route, die, a.m, b.m, a.n);
      run_v(route, die, a.n, b.n, b.m);
    } else {
      run_v(route, die, a.n, b.n, a.m);
      run_h(route, die, a.m, b.m, b.n);
    }
  }

  /// Dijkstra maze route within the bbox of (a, b) + margin. Tiles settle
  /// in (distance, tile id) order and a tile's predecessor changes only on
  /// a strictly shorter distance, so the path among equal-cost ones is
  /// fixed by the row-major tile numbering.
  void route_maze(NetRoute& route, int die, TilePt a, TilePt b) {
    const int m0 = std::max(0, std::min(a.m, b.m) - cfg_.maze_margin);
    const int m1 = std::min(nx_ - 1, std::max(a.m, b.m) + cfg_.maze_margin);
    const int n0 = std::max(0, std::min(a.n, b.n) - cfg_.maze_margin);
    const int n1 = std::min(ny_ - 1, std::max(a.n, b.n) + cfg_.maze_margin);
    const double* hc = edges(die, true).cost.data();
    const double* vc = edges(die, false).cost.data();
    const std::int32_t source = a.n * nx_ + a.m;
    const std::int32_t target = b.n * nx_ + b.m;

    begin_search();
    relax(source, 0.0, -1);
    while (!heap_.empty()) {
      const auto [d, u] = pop();
      if (u == target) break;
      const int um = u % nx_, un = u / nx_;
      const std::size_t hu = static_cast<std::size_t>(un) * (nx_ - 1) + um;
      const std::size_t vu = static_cast<std::size_t>(u);
      if (um > m0) relax(u - 1, d + hc[hu - 1], u);
      if (um < m1) relax(u + 1, d + hc[hu], u);
      if (un > n0) relax(u - nx_, d + vc[vu - nx_], u);
      if (un < n1) relax(u + nx_, d + vc[vu], u);
    }
    heap_.clear();

    // Walk back and commit edges. The window is a full rectangle of tiles,
    // so the target is always reached.
    assert(nodes_[static_cast<std::size_t>(target)].stamp == stamp_);
    for (std::int32_t w = target; w != source;) {
      const std::int32_t u = nodes_[static_cast<std::size_t>(w)].prev;
      const int un = u / nx_, wn = w / nx_;
      if (un == wn)
        add_edge(route, die, true, h_edge_index(std::min(u, w) % nx_, un));
      else
        add_edge(route, die, false, v_edge_index(u % nx_, std::min(un, wn)));
      w = u;
    }
  }

  std::vector<EdgeSet> h, v;  // [tier]

 private:
  /// Maze-search state of one tile; stale (unvisited by the current search)
  /// unless `stamp` matches the router's.
  struct Node {
    double dist = 0.0;
    std::int32_t prev = -1;
    std::int32_t heap_pos = -1;  // -1: not in the heap
    std::uint32_t stamp = 0;
  };
  struct HeapItem {
    double dist;
    std::int32_t id;
  };
  static bool before(const HeapItem& a, const HeapItem& b) {
    // Non-short-circuit so the compiler can emit it without branches.
    return (a.dist < b.dist) | ((a.dist == b.dist) & (a.id < b.id));
  }
  static constexpr std::size_t kArity = 4;

  /// Invalidates every node in O(1). The full-grid scratch is allocated on
  /// the first search, so L-route-only runs (calibration) never pay for it.
  void begin_search() {
    if (nodes_.empty()) nodes_.resize(static_cast<std::size_t>(nx_) * ny_);
    if (++stamp_ == 0) {
      for (Node& nd : nodes_) nd.stamp = 0;
      stamp_ = 1;
    }
  }

  /// Offers node `id` the distance `dist` via `from`; on a strict
  /// improvement records it and inserts or decreases its heap entry.
  void relax(std::int32_t id, double dist, std::int32_t from) {
    Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.stamp != stamp_) {
      nd = {std::numeric_limits<double>::infinity(), -1, -1, stamp_};
    } else if (!(dist < nd.dist)) {
      return;
    }
    nd.dist = dist;
    nd.prev = from;
    if (nd.heap_pos < 0) {
      nd.heap_pos = static_cast<std::int32_t>(heap_.size());
      heap_.push_back({dist, id});
    }
    sift_up(static_cast<std::size_t>(nd.heap_pos), {dist, id});
  }

  HeapItem pop() {
    const HeapItem top = heap_.front();
    nodes_[static_cast<std::size_t>(top.id)].heap_pos = -1;
    const HeapItem last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return top;
  }

  void place(std::size_t pos, const HeapItem& item) {
    heap_[pos] = item;
    nodes_[static_cast<std::size_t>(item.id)].heap_pos =
        static_cast<std::int32_t>(pos);
  }

  void sift_up(std::size_t pos, const HeapItem& item) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!before(item, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, item);
  }

  /// Re-seats `item` from the root down (the root slot is vacant).
  void sift_down(const HeapItem& item) {
    const std::size_t n = heap_.size();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t first = pos * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < end; ++c)
        best = before(heap_[c], heap_[best]) ? c : best;
      if (!before(heap_[best], item)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, item);
  }

  /// Straight horizontal run from (m0,n) to (m1,n).
  void run_h(NetRoute& route, int die, int m0, int m1, int n) {
    for (int m = std::min(m0, m1); m < std::max(m0, m1); ++m)
      add_edge(route, die, true, h_edge_index(m, n));
  }
  void run_v(NetRoute& route, int die, int n0, int n1, int m) {
    for (int n = std::min(n0, n1); n < std::max(n0, n1); ++n)
      add_edge(route, die, false, v_edge_index(m, n));
  }

  double cost_h(int die, int m0, int m1, int n) {
    const std::vector<double>& cost = edges(die, true).cost;
    double c = 0.0;
    for (int m = std::min(m0, m1); m < std::max(m0, m1); ++m)
      c += cost[h_edge_index(m, n)];
    return c;
  }
  double cost_v(int die, int n0, int n1, int m) {
    const std::vector<double>& cost = edges(die, false).cost;
    double c = 0.0;
    for (int n = std::min(n0, n1); n < std::max(n0, n1); ++n)
      c += cost[v_edge_index(m, n)];
    return c;
  }

  const RouterConfig& cfg_;
  const GCellGrid& grid_;
  int nx_, ny_;
  std::vector<Node> nodes_;  // maze scratch over the full grid
  std::vector<HeapItem> heap_;  // 4-ary min-heap on (dist, tile id)
  std::uint32_t stamp_ = 0;
};

/// Prim MST over tile points (Manhattan metric). Returns parent indices.
std::vector<int> prim_mst(const std::vector<TilePt>& pts) {
  const std::size_t n = pts.size();
  std::vector<int> parent(n, -1);
  if (n <= 1) return parent;
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<int> best_from(n, 0);
  in_tree[0] = true;
  for (std::size_t i = 1; i < n; ++i) {
    best[i] = std::abs(pts[i].m - pts[0].m) + std::abs(pts[i].n - pts[0].n);
    best_from[i] = 0;
  }
  for (std::size_t it = 1; it < n; ++it) {
    double mind = std::numeric_limits<double>::infinity();
    std::size_t pick = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (!in_tree[i] && best[i] < mind) {
        mind = best[i];
        pick = i;
      }
    in_tree[pick] = true;
    parent[pick] = best_from[pick];
    for (std::size_t i = 0; i < n; ++i) {
      if (in_tree[i]) continue;
      const double d = std::abs(pts[i].m - pts[pick].m) +
                       std::abs(pts[i].n - pts[pick].n);
      if (d < best[i]) {
        best[i] = d;
        best_from[i] = static_cast<int>(pick);
      }
    }
  }
  return parent;
}

/// 2-pin segments (per die) of one net, including the 3D via tile if needed.
struct NetPlan {
  // Per tier: list of tile points; MST segments are rebuilt at (re)route time.
  std::vector<std::vector<TilePt>> pts;
  // Tier span of the net's pins: the via stack crosses [tier_lo, tier_hi).
  int tier_lo = 0, tier_hi = 0;
  bool is3d = false;

  int span() const { return tier_hi - tier_lo; }
};

NetPlan plan_net(const Netlist& netlist, NetId net, const Placement3D& placement,
                 const GCellGrid& grid, int num_tiers) {
  NetPlan plan;
  plan.pts.assign(static_cast<std::size_t>(num_tiers), {});
  std::vector<Point> all;
  int lo = num_tiers, hi = -1;
  // Stored pin order is driver-first — the legacy terminal order, which the
  // MST construction below is sensitive to.
  for (const Pin& p : netlist.net_pins(net)) {
    const Point pos = placement.pin_position(p);
    const int die = std::clamp(
        placement.tier[static_cast<std::size_t>(p.cell)], 0, num_tiers - 1);
    plan.pts[static_cast<std::size_t>(die)].push_back(
        {grid.col_of(pos.x), grid.row_of(pos.y)});
    lo = std::min(lo, die);
    hi = std::max(hi, die);
    all.push_back(pos);
  }
  plan.tier_lo = lo;
  plan.tier_hi = hi;
  plan.is3d = hi > lo;
  if (plan.is3d) {
    // Via GCell at the median of all pins; becomes a terminal on every tier
    // of the net's span so the via stack can pass through intermediate dies.
    std::vector<double> xs, ys;
    for (const Point& p : all) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
    std::nth_element(ys.begin(), ys.begin() + ys.size() / 2, ys.end());
    const TilePt via{grid.col_of(xs[xs.size() / 2]), grid.row_of(ys[ys.size() / 2])};
    for (int t = lo; t <= hi; ++t)
      plan.pts[static_cast<std::size_t>(t)].push_back(via);
  }
  return plan;
}

void route_net(Router& router, const NetPlan& plan, NetRoute& route, bool maze) {
  for (int die = 0; die < static_cast<int>(plan.pts.size()); ++die) {
    const auto& pts = plan.pts[static_cast<std::size_t>(die)];
    if (pts.size() < 2) continue;
    const std::vector<int> parent = prim_mst(pts);
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const TilePt a = pts[static_cast<std::size_t>(parent[i])];
      const TilePt b = pts[i];
      if (a.m == b.m && a.n == b.n) continue;
      if (maze)
        router.route_maze(route, die, a, b);
      else
        router.route_l(route, die, a, b);
    }
  }
}

/// Every net's plan and current route.
struct Routing {
  std::vector<NetPlan> plans;
  std::vector<NetRoute> routes;
};

/// Plans every net and L-routes it in net order: the initial routing of
/// global_route and the whole of capacity calibration.
Routing route_initial(Router& router, const Netlist& netlist,
                      const Placement3D& placement, const GCellGrid& grid) {
  const std::size_t n_nets = netlist.num_nets();
  Routing r{std::vector<NetPlan>(n_nets), std::vector<NetRoute>(n_nets)};
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    r.plans[ni] = plan_net(netlist, static_cast<NetId>(ni), placement, grid,
                           placement.num_tiers);
    route_net(router, r.plans[ni], r.routes[ni], /*maze=*/false);
  }
  return r;
}

}  // namespace

RouteResult global_route(const Netlist& netlist, const Placement3D& placement,
                         const GCellGrid& grid, const RouterConfig& cfg) {
  const int num_tiers = placement.num_tiers;
  Router router(grid, cfg, num_tiers);
  router.apply_macro_blockages(netlist, placement);
  Routing routing = route_initial(router, netlist, placement, grid);
  const std::vector<NetPlan>& plans = routing.plans;
  std::vector<NetRoute>& routes = routing.routes;
  const std::size_t n_nets = plans.size();

  // Negotiated rip-up and reroute.
  for (int round = 0; round < cfg.rrr_rounds; ++round) {
    if (!router.bump_history()) break;
    for (std::size_t ni = 0; ni < n_nets; ++ni) {
      if (!router.net_overflows(routes[ni])) continue;
      router.rip_up(routes[ni]);
      route_net(router, plans[ni], routes[ni], /*maze=*/true);
    }
  }

  std::size_t vias = 0;
  std::vector<std::size_t> vias_per_boundary(
      static_cast<std::size_t>(std::max(num_tiers - 1, 0)), 0);
  for (const NetPlan& plan : plans) {
    if (!plan.is3d) continue;
    vias += static_cast<std::size_t>(plan.span());
    for (int b = plan.tier_lo; b < plan.tier_hi; ++b)
      ++vias_per_boundary[static_cast<std::size_t>(b)];
  }

  // Collect metrics.
  RouteResult res;
  res.num_tiers = num_tiers;
  const std::int64_t tiles = grid.num_tiles();
  res.congestion.assign(static_cast<std::size_t>(num_tiers),
                        std::vector<float>(static_cast<std::size_t>(tiles), 0.0f));
  res.usage.assign(static_cast<std::size_t>(num_tiers),
                   std::vector<float>(static_cast<std::size_t>(tiles), 0.0f));
  res.tier_overflow.assign(static_cast<std::size_t>(num_tiers), 0.0);
  std::size_t ovf_tiles = 0;
  for (int die = 0; die < num_tiers; ++die) {
    const EdgeSet& hs = router.h[static_cast<std::size_t>(die)];
    const EdgeSet& vs = router.v[static_cast<std::size_t>(die)];
    for (int n = 0; n < grid.ny(); ++n) {
      for (int m = 0; m < grid.nx(); ++m) {
        double tile_ovf = 0.0, tile_use = 0.0;
        auto edge = [&](const EdgeSet& e, std::size_t i) {
          tile_use += e.use[i] * 0.5;
          tile_ovf += e.overflow(i) * 0.5;
        };
        if (m > 0) edge(hs, router.h_edge_index(m - 1, n));
        if (m < grid.nx() - 1) edge(hs, router.h_edge_index(m, n));
        if (n > 0) edge(vs, router.v_edge_index(m, n - 1));
        if (n < grid.ny() - 1) edge(vs, router.v_edge_index(m, n));
        const auto ti = static_cast<std::size_t>(grid.index(m, n));
        res.congestion[die][ti] = static_cast<float>(tile_ovf);
        res.usage[die][ti] = static_cast<float>(tile_use);
        if (tile_ovf > 0.0) ++ovf_tiles;
      }
    }
    for (std::size_t i = 0; i < hs.cap.size(); ++i) res.h_overflow += hs.overflow(i);
    for (std::size_t i = 0; i < vs.cap.size(); ++i) res.v_overflow += vs.overflow(i);
    // Per-tier overflow, accumulated separately so the legacy h/v overflow
    // summation order above is untouched.
    double tovf = 0.0;
    for (std::size_t i = 0; i < hs.cap.size(); ++i) tovf += hs.overflow(i);
    for (std::size_t i = 0; i < vs.cap.size(); ++i) tovf += vs.overflow(i);
    res.tier_overflow[static_cast<std::size_t>(die)] = tovf;
  }
  res.total_overflow = res.h_overflow + res.v_overflow;
  res.ovf_gcell_pct = 100.0 * static_cast<double>(ovf_tiles) /
                      static_cast<double>(num_tiers * tiles);
  res.num_3d_vias = vias;
  res.vias_per_boundary = std::move(vias_per_boundary);

  // Routed wirelength: edge count times tile pitch, plus a via penalty per
  // boundary crossing.
  double wl = 0.0;
  for (int die = 0; die < num_tiers; ++die) {
    for (double u : router.h[static_cast<std::size_t>(die)].use) wl += u * grid.tile_width();
    for (double u : router.v[static_cast<std::size_t>(die)].use) wl += u * grid.tile_height();
  }
  res.wirelength = wl + static_cast<double>(vias) * 0.5 * grid.tile_width();

  // Per-net routed length and overflow exposure.
  res.net_routed_wl.assign(n_nets, 0.0);
  res.net_overflow_crossings.assign(n_nets, 0.0);
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    for (const RoutedEdge& e : routes[ni].edges) {
      res.net_routed_wl[ni] += e.horizontal ? grid.tile_width() : grid.tile_height();
      if (router.edges(e.die, e.horizontal).over(static_cast<std::size_t>(e.index)))
        res.net_overflow_crossings[ni] += 1.0;
    }
    if (plans[ni].is3d)
      res.net_routed_wl[ni] +=
          static_cast<double>(plans[ni].span()) * 0.5 * grid.tile_width();
  }
  return res;
}

namespace {
double usage_percentile(std::vector<double> values, double percentile) {
  std::erase_if(values, [](double v) { return v <= 0.0; });
  if (values.empty()) return 1.0;
  const auto k = static_cast<std::size_t>(
      percentile * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}
}  // namespace

RouterConfig calibrate_capacity(const Netlist& netlist,
                                const Placement3D& placement,
                                const GCellGrid& grid, const RouterConfig& base,
                                double percentile) {
  RouterConfig probe = base;
  probe.h_capacity = 1e9;
  probe.v_capacity = 1e9;
  Router router(grid, probe, placement.num_tiers);
  route_initial(router, netlist, placement, grid);

  std::vector<double> h_all, v_all;
  for (std::size_t die = 0; die < router.h.size(); ++die) {
    h_all.insert(h_all.end(), router.h[die].use.begin(), router.h[die].use.end());
    v_all.insert(v_all.end(), router.v[die].use.begin(), router.v[die].use.end());
  }
  RouterConfig out = base;
  out.h_capacity = std::max(2.0, std::ceil(usage_percentile(h_all, percentile)));
  out.v_capacity = std::max(2.0, std::ceil(usage_percentile(v_all, percentile)));
  return out;
}

}  // namespace dco3d
