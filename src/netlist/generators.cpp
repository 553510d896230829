#include "netlist/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <vector>

namespace dco3d {

const char* design_name(DesignKind kind) {
  switch (kind) {
    case DesignKind::kDma: return "DMA";
    case DesignKind::kAes: return "AES";
    case DesignKind::kEcg: return "ECG";
    case DesignKind::kLdpc: return "LDPC";
    case DesignKind::kVga: return "VGA";
    case DesignKind::kRocket: return "Rocket";
    case DesignKind::kMemLogic: return "MemLogic";
    case DesignKind::kMacroHeavy: return "MacroHeavy";
  }
  return "?";
}

DesignKind parse_serve_kind(const std::string& k, Status& err) {
  std::string valid;
  for (int i = 0; i <= static_cast<int>(DesignKind::kMacroHeavy); ++i) {
    const auto kind = static_cast<DesignKind>(i);
    std::string name = design_name(kind);
    for (char& c : name)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (name == k) return kind;
    valid += (i == 0 ? "" : ", ") + name;
  }
  err = Status::invalid_argument("unknown design kind '" + k +
                                 "' (valid kinds: " + valid + ")");
  return DesignKind::kDma;
}

DesignSpec spec_for(DesignKind kind, double scale) {
  DesignSpec s;
  s.kind = kind;
  s.name = design_name(kind);
  // Table III headers: (#cells, #IO); macros/periods are our substitutions.
  switch (kind) {
    case DesignKind::kDma:
      s.target_cells = static_cast<std::size_t>(13000 * scale);
      s.target_ios = static_cast<std::size_t>(961 * scale);
      s.num_macros = 0;
      s.clock_period_ps = 260.0;
      s.seed = 101;
      break;
    case DesignKind::kAes:
      s.target_cells = static_cast<std::size_t>(114000 * scale);
      s.target_ios = static_cast<std::size_t>(390 * scale);
      s.num_macros = 0;
      s.clock_period_ps = 280.0;
      s.seed = 102;
      break;
    case DesignKind::kEcg:
      s.target_cells = static_cast<std::size_t>(83000 * scale);
      s.target_ios = static_cast<std::size_t>(1700 * scale);
      s.num_macros = 2;
      s.clock_period_ps = 240.0;
      s.seed = 103;
      break;
    case DesignKind::kLdpc:
      s.target_cells = static_cast<std::size_t>(39000 * scale);
      s.target_ios = static_cast<std::size_t>(4100 * scale);
      s.num_macros = 0;
      s.clock_period_ps = 200.0;
      s.seed = 104;
      break;
    case DesignKind::kVga:
      s.target_cells = static_cast<std::size_t>(52000 * scale);
      s.target_ios = static_cast<std::size_t>(184 * scale);
      s.num_macros = 1;
      s.clock_period_ps = 300.0;
      s.seed = 105;
      break;
    case DesignKind::kRocket:
      s.target_cells = static_cast<std::size_t>(120000 * scale);
      s.target_ios = static_cast<std::size_t>(379 * scale);
      s.num_macros = 2;
      s.clock_period_ps = 220.0;
      s.seed = 106;
      break;
    case DesignKind::kMemLogic:
      // Memory-on-logic stack: SRAM banks feeding a moderate logic fabric.
      s.target_cells = static_cast<std::size_t>(60000 * scale);
      s.target_ios = static_cast<std::size_t>(512 * scale);
      s.num_macros = 6;
      s.macro_area_frac = 0.05;
      s.clock_period_ps = 280.0;
      s.seed = 107;
      break;
    case DesignKind::kMacroHeavy:
      // Macro-dominated floorplan: few but large blocks, heavy blockage.
      s.target_cells = static_cast<std::size_t>(45000 * scale);
      s.target_ios = static_cast<std::size_t>(256 * scale);
      s.num_macros = 4;
      s.macro_area_frac = 0.12;
      s.clock_period_ps = 320.0;
      s.seed = 108;
      break;
  }
  s.target_cells = std::max<std::size_t>(s.target_cells, 200);
  s.target_ios = std::max<std::size_t>(s.target_ios, 16);
  return s;
}

namespace {

/// Structural knobs that differentiate the six design families.
struct GenParams {
  int stages = 6;          // combinational depth between register ranks
  double seq_ratio = 0.25; // fraction of flip-flops
  double locality = 0.7;   // probability a connection stays in-cluster
  int clusters = 8;        // structural blocks (rounds, channels, pipe stages)
  // Function mix weights: inv, buf, nand, nor, and, or, xor, aoi, mux.
  double mix[9] = {1.0, 0.5, 1.5, 1.0, 0.8, 0.8, 0.5, 0.7, 0.7};
  int high_fanout_nets = 4;   // broadcast (reset / enable / regfile) nets
  int high_fanout_size = 40;  // sinks per broadcast net
};

GenParams params_for(DesignKind kind) {
  GenParams p;
  switch (kind) {
    case DesignKind::kDma:
      // Channelized data movers: moderate depth, bus-structured locality.
      p = {6, 0.28, 0.75, 8, {1.0, 0.6, 1.5, 1.0, 0.8, 0.8, 0.4, 0.8, 1.2}, 8, 40};
      break;
    case DesignKind::kAes:
      // Round-based crypto: XOR-dense S-box/MixColumns layers per round.
      p = {8, 0.18, 0.80, 10, {0.8, 0.4, 1.2, 0.8, 0.7, 0.6, 3.0, 0.9, 0.8}, 4, 30};
      break;
    case DesignKind::kEcg:
      // DSP filter pipeline: deep MAC/adder chains with strong locality.
      p = {12, 0.30, 0.85, 6, {0.8, 0.5, 1.4, 0.9, 1.5, 1.0, 1.8, 0.9, 0.6}, 4, 30};
      break;
    case DesignKind::kLdpc:
      // Bipartite parity network: shallow, globally random, XOR-dominated —
      // the classical routing-congestion stress pattern.
      p = {4, 0.15, 0.20, 12, {0.6, 0.4, 0.8, 0.6, 0.5, 0.5, 4.0, 0.5, 0.5}, 6, 80};
      break;
    case DesignKind::kVga:
      // Raster pipeline: counters + line buffers, very local, MUX-heavy.
      p = {5, 0.35, 0.90, 4, {0.9, 0.7, 1.2, 0.9, 0.8, 0.8, 0.5, 0.7, 2.2}, 6, 50};
      break;
    case DesignKind::kRocket:
      // In-order CPU: pipe-stage clusters plus register-file broadcasts.
      p = {10, 0.25, 0.65, 6, {1.0, 0.7, 1.4, 1.0, 0.9, 0.9, 0.8, 1.1, 1.6}, 32, 50};
      break;
    case DesignKind::kMemLogic:
      // Memory-on-logic: bus-structured datapaths around the SRAM banks,
      // wide read/write buses show up as broadcast nets.
      p = {6, 0.32, 0.70, 8, {1.0, 0.8, 1.4, 1.0, 0.9, 0.8, 0.6, 0.8, 1.4}, 12, 60};
      break;
    case DesignKind::kMacroHeavy:
      // Macro-dominated: shallow glue logic between blocks, low locality
      // because nets must detour around the blockages.
      p = {5, 0.22, 0.55, 6, {1.0, 0.8, 1.3, 1.0, 0.8, 0.8, 0.6, 0.8, 1.0}, 8, 40};
      break;
  }
  return p;
}

constexpr CellFunction kCombFns[9] = {
    CellFunction::kInv,  CellFunction::kBuf,  CellFunction::kNand2,
    CellFunction::kNor2, CellFunction::kAnd2, CellFunction::kOr2,
    CellFunction::kXor2, CellFunction::kAoi21, CellFunction::kMux2};

/// Weighted pick of a combinational function.
CellFunction pick_function(const GenParams& p, Rng& rng) {
  double total = 0.0;
  for (double w : p.mix) total += w;
  double r = rng.uniform(0.0, total);
  for (int i = 0; i < 9; ++i) {
    r -= p.mix[i];
    if (r <= 0.0) return kCombFns[i];
  }
  return CellFunction::kNand2;
}

/// Pin offset for the k-th input of a cell type (spread across the cell).
Point input_offset(const CellType& t, int k) {
  const double frac = static_cast<double>(k + 1) / (t.num_inputs + 1);
  return {t.width * frac, t.height * 0.5};
}

Point output_offset(const CellType& t) { return {t.width, t.height * 0.5}; }

}  // namespace

Netlist generate_design(const DesignSpec& spec) {
  const GenParams p = params_for(spec.kind);
  Rng rng(spec.seed * 0x1000193ull + 7);

  Library lib = Library::make_default();
  // IO pad type: zero-area boundary terminal.
  CellType pad;
  pad.name = "IO_PAD";
  pad.function = CellFunction::kIoPad;
  pad.num_inputs = 1;
  pad.width = 0.0;
  pad.height = 0.0;
  pad.input_cap = 2.0;
  pad.drive_res = 2.0;
  pad.intrinsic_delay = 0.0;
  const CellTypeId pad_type_placeholder = -1;  // registered after netlist built
  (void)pad_type_placeholder;
  const CellTypeId pad_type = lib.add_type(pad);

  Netlist nl(std::move(lib));
  const Library& L = nl.library();

  const std::size_t n_cells = spec.target_cells;
  const auto n_seq = static_cast<std::size_t>(p.seq_ratio * static_cast<double>(n_cells));
  const std::size_t n_comb = n_cells - n_seq;

  struct Slot {
    CellId id;
    int cluster;
    int stage;  // 0 = register rank, 1..stages = combinational depth
  };
  std::vector<Slot> slots;
  slots.reserve(n_cells);

  const CellTypeId dff1 = L.find(CellFunction::kDff, 1);
  const CellTypeId dff2 = L.find(CellFunction::kDff, 2);
  assert(dff1 >= 0 && dff2 >= 0);

  // Registers: stage 0, spread over clusters.
  for (std::size_t i = 0; i < n_seq; ++i) {
    const CellTypeId t = rng.bernoulli(0.2) ? dff2 : dff1;
    const CellId id = nl.add_cell("ff_" + std::to_string(i), t);
    slots.push_back({id, static_cast<int>(rng.index(static_cast<std::size_t>(p.clusters))), 0});
  }
  // Combinational cells: stages 1..p.stages.
  for (std::size_t i = 0; i < n_comb; ++i) {
    const CellFunction f = pick_function(p, rng);
    const int drive = rng.bernoulli(0.25) ? 2 : 1;
    CellTypeId t = nl.library().find(f, drive);
    if (t < 0) t = nl.library().smallest(f);
    const CellId id = nl.add_cell("u_" + std::to_string(i), t);
    const int stage = 1 + static_cast<int>(rng.index(static_cast<std::size_t>(p.stages)));
    slots.push_back({id, static_cast<int>(rng.index(static_cast<std::size_t>(p.clusters))), stage});
  }

  // IO pads: half inputs, half outputs, fixed (positions set by floorplan).
  const std::size_t n_in = spec.target_ios / 2;
  const std::size_t n_out = spec.target_ios - n_in;
  std::vector<CellId> in_pads, out_pads;
  for (std::size_t i = 0; i < n_in; ++i)
    in_pads.push_back(nl.add_cell("pi_" + std::to_string(i), pad_type, /*fixed=*/true));
  for (std::size_t i = 0; i < n_out; ++i)
    out_pads.push_back(nl.add_cell("po_" + std::to_string(i), pad_type, /*fixed=*/true));

  // Bucket candidate drivers by (cluster, stage) for fast locality sampling.
  std::vector<std::vector<std::vector<CellId>>> bucket(
      static_cast<std::size_t>(p.clusters),
      std::vector<std::vector<CellId>>(static_cast<std::size_t>(p.stages) + 1));
  std::vector<std::vector<CellId>> by_stage(static_cast<std::size_t>(p.stages) + 1);
  for (const Slot& s : slots) {
    bucket[static_cast<std::size_t>(s.cluster)][static_cast<std::size_t>(s.stage)].push_back(s.id);
    by_stage[static_cast<std::size_t>(s.stage)].push_back(s.id);
  }

  // Per-cell sink lists keyed by driver cell; nets are materialized at the end.
  std::vector<std::vector<PinRef>> sinks_of(nl.num_cells());

  // Choose a driver for one input of `slot` at combinational stage s (> 0):
  // prefer the previous stage of the same cluster, fall back to any earlier
  // stage, registers, then input pads.
  auto choose_driver = [&](const Slot& slot) -> CellId {
    const bool local = rng.bernoulli(p.locality);
    for (int attempt = 0; attempt < 8; ++attempt) {
      int st;
      if (rng.bernoulli(0.7)) {
        st = slot.stage - 1;
      } else {
        st = static_cast<int>(rng.index(static_cast<std::size_t>(slot.stage)));
      }
      const auto& pool = local ? bucket[static_cast<std::size_t>(slot.cluster)]
                                      [static_cast<std::size_t>(st)]
                               : by_stage[static_cast<std::size_t>(st)];
      if (!pool.empty()) {
        const CellId d = pool[rng.index(pool.size())];
        if (d != slot.id) return d;
      }
    }
    // Fall back to an input pad so the cell is never dangling.
    if (!in_pads.empty()) return in_pads[rng.index(in_pads.size())];
    return slots.front().id;
  };

  // Wire every input pin of every cell.
  for (const Slot& slot : slots) {
    const CellType& t = L.type(nl.cell(slot.id).type);
    const int n_inputs = t.num_inputs;
    for (int k = 0; k < n_inputs; ++k) {
      CellId d;
      if (slot.stage == 0) {
        // Register D input: fed from the deepest combinational stages.
        Slot fake = slot;
        fake.stage = p.stages;  // "stage after the last comb stage"
        d = choose_driver(fake);
      } else {
        d = choose_driver(slot);
      }
      sinks_of[static_cast<std::size_t>(d)].push_back({slot.id, input_offset(t, k)});
    }
  }

  // Output pads: sink a random register or deep combinational cell.
  for (CellId po : out_pads) {
    const auto& pool = by_stage[static_cast<std::size_t>(p.stages)];
    const CellId d = !pool.empty() ? pool[rng.index(pool.size())]
                                   : slots[rng.index(slots.size())].id;
    sinks_of[static_cast<std::size_t>(d)].push_back({po, Point{0.0, 0.0}});
  }

  // Broadcast nets (reset / enable / register-file reads): extra sinks on a
  // strong buffer. These model control pins not counted in num_inputs.
  const CellTypeId buf8 = L.find(CellFunction::kBuf, 8);
  for (int h = 0; h < p.high_fanout_nets; ++h) {
    const CellId drv = nl.add_cell("bcast_" + std::to_string(h), buf8);
    sinks_of.emplace_back();  // keep sinks_of aligned with cell ids
    // The broadcast driver itself needs an input.
    const CellId src = slots[rng.index(slots.size())].id;
    sinks_of[static_cast<std::size_t>(src)].push_back(
        {drv, input_offset(L.type(buf8), 0)});
    for (int s = 0; s < p.high_fanout_size; ++s) {
      const Slot& target = slots[rng.index(slots.size())];
      sinks_of[static_cast<std::size_t>(drv)].push_back(
          {target.id, Point{0.0, L.type(nl.cell(target.id).type).height * 0.5}});
    }
  }

  // Macros (SRAM substitutes): sized relative to total std-cell area, with
  // read-data output nets and a few address-like inputs.
  if (spec.num_macros > 0) {
    double std_area = 0.0;
    for (std::size_t i = 0; i < nl.num_cells(); ++i)
      std_area += nl.cell_area(static_cast<CellId>(i));
    const double macro_side = std::sqrt(spec.macro_area_frac * std_area);
    CellType mt;
    mt.name = "MACRO_SRAM";
    mt.function = CellFunction::kMacro;
    mt.num_inputs = 4;
    mt.width = macro_side;
    mt.height = macro_side;
    mt.input_cap = 5.0;
    mt.drive_res = 1.0;
    mt.intrinsic_delay = 80.0;
    mt.leakage = 500.0;
    mt.internal_energy = 15.0;
    const CellTypeId macro_type = nl.library().add_type(mt);
    for (int m = 0; m < spec.num_macros; ++m) {
      const CellId mid = nl.add_cell("macro_" + std::to_string(m), macro_type,
                                     /*fixed=*/true);
      sinks_of.emplace_back();
      // Read ports drive scattered logic.
      for (int port = 0; port < 8; ++port) {
        for (int s = 0; s < 6; ++s) {
          const Slot& target = slots[rng.index(slots.size())];
          const CellType& tt = L.type(nl.cell(target.id).type);
          sinks_of[static_cast<std::size_t>(mid)].push_back(
              {target.id, Point{0.0, tt.height * 0.5}});
        }
      }
      // Address inputs come from registers.
      for (int k = 0; k < 4; ++k) {
        const CellId src = slots[rng.index(n_seq > 0 ? n_seq : slots.size())].id;
        sinks_of[static_cast<std::size_t>(src)].push_back(
            {mid, Point{macro_side * (k + 1) / 5.0, 0.0}});
      }
    }
  }

  // Input pads drive whatever selected them; give silent pads one sink so
  // every pad is connected.
  for (CellId pi : in_pads) {
    if (sinks_of[static_cast<std::size_t>(pi)].empty()) {
      const Slot& target = slots[rng.index(slots.size())];
      const CellType& tt = L.type(nl.cell(target.id).type);
      sinks_of[static_cast<std::size_t>(pi)].push_back(
          {target.id, Point{0.0, tt.height * 0.5}});
    }
  }

  // Materialize nets: one net per driver with at least one sink. Drivers with
  // no chosen sinks get one random sink (pruned-logic stand-in) so that every
  // movable cell participates in the netlist graph.
  for (std::size_t d = 0; d < sinks_of.size(); ++d) {
    const auto id = static_cast<CellId>(d);
    if (nl.is_io(id) && sinks_of[d].empty()) continue;  // output pads
    if (sinks_of[d].empty()) {
      const Slot& target = slots[rng.index(slots.size())];
      if (target.id == id) continue;
      const CellType& tt = L.type(nl.cell(target.id).type);
      sinks_of[d].push_back({target.id, Point{0.0, tt.height * 0.5}});
    }
    Net net;
    net.name = "n_" + std::to_string(d);
    const CellType& dt = L.type(nl.cell(id).type);
    net.driver = {id, nl.is_io(id) ? Point{0.0, 0.0} : output_offset(dt)};
    net.sinks = std::move(sinks_of[d]);
    nl.add_net(std::move(net));
  }

  nl.freeze();
  return nl;
}

}  // namespace dco3d
