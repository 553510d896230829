#include "flow/pin3d.hpp"

#include "flow/stage.hpp"

namespace dco3d {

StageMetrics measure_stage(const Netlist& netlist, const Placement3D& placement,
                           const RouteResult& route,
                           const TimingConfig& timing_cfg,
                           const std::vector<double>* skew) {
  const std::vector<double> detour =
      detour_factors(netlist, placement, route, /*overflow_penalty=*/0.03);
  const TimingResult t = run_sta(netlist, placement, timing_cfg, skew, &detour);

  StageMetrics m;
  m.overflow = route.total_overflow;
  m.ovf_gcell_pct = route.ovf_gcell_pct;
  m.h_overflow = route.h_overflow;
  m.v_overflow = route.v_overflow;
  m.wns_ps = t.wns_ps;
  m.tns_ps = t.tns_ps;
  m.power_mw = t.total_mw;
  m.wirelength_um = route.wirelength;
  return m;
}

StageMetrics measure_stage(const Netlist& netlist, const Placement3D& placement,
                           const GCellGrid& grid, const TimingConfig& timing_cfg,
                           const RouterConfig& router_cfg,
                           const std::vector<double>* skew,
                           RouteResult* route_out) {
  RouteResult route = global_route(netlist, placement, grid, router_cfg);
  const StageMetrics m =
      measure_stage(netlist, placement, route, timing_cfg, skew);
  if (route_out) *route_out = std::move(route);
  return m;
}

FlowResult run_pin3d_flow(const Netlist& design, const FlowConfig& cfg,
                          const PlacementOptimizer& optimizer) {
  // The flow is a straight composition of the standard stage graph; see
  // flow/stage.hpp for the stage list and docs/flow.md for the semantics.
  FlowContext ctx = make_flow_context(design, cfg, optimizer);
  return pin3d_pipeline().run(ctx);
}

}  // namespace dco3d
