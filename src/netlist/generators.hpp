#pragma once
// Synthetic generators for the paper's six industrial benchmarks.
//
// The real designs (RocketCore, LDPC, AES, ECG, DMA, VGA) are proprietary
// RTL synthesized with Synopsys Design Compiler. We substitute structured
// random netlists whose *connectivity statistics* mimic each design family —
// pipeline depth, locality, fanout distribution, XOR-heavy LDPC bipartite
// structure, register-file broadcast nets in the CPU core — because those
// statistics are what drive placement congestion behaviour. Cell/net/IO
// counts follow the paper's Table III headers, multiplied by a scale factor
// (see DESIGN.md §"Scaling substitutions").

#include <string>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace dco3d {

// The six Table-III benchmark families, plus two stacking-scenario variants
// for N-tier experiments: kMemLogic models a memory-on-logic stack (SRAM
// macro banks over random logic), kMacroHeavy a macro-dominated floorplan
// whose blockages exercise the macro-blockage feature channel.
enum class DesignKind {
  kDma, kAes, kEcg, kLdpc, kVga, kRocket, kMemLogic, kMacroHeavy
};

const char* design_name(DesignKind kind);

/// Parse a design kind by its lower-case design_name ("dma", "aes", ...,
/// "memlogic", "macroheavy"); on failure fills `err` with kInvalidArgument
/// (listing the valid kinds) and returns kDma. The one kind parser of the
/// CLI, the server and the examples.
DesignKind parse_serve_kind(const std::string& k, Status& err);

/// Target characteristics for a generated design.
struct DesignSpec {
  DesignKind kind = DesignKind::kDma;
  std::string name;
  std::size_t target_cells = 1000;  // movable std cells
  std::size_t target_ios = 64;
  int num_macros = 0;
  // Fraction of the total std-cell area each macro occupies (side =
  // sqrt(frac * area)); 0.08 is the classic SRAM-substitute sizing.
  double macro_area_frac = 0.08;
  double clock_period_ps = 300.0;
  std::uint64_t seed = 1;
};

/// Paper-faithful spec (Table III cell/net/IO counts) scaled by `scale`.
/// scale = 1.0 reproduces the paper's sizes (13K..120K cells); benches use
/// smaller scales so the full four-flow comparison finishes on a laptop.
DesignSpec spec_for(DesignKind kind, double scale);

/// Generate the netlist for a spec. Deterministic in spec.seed.
Netlist generate_design(const DesignSpec& spec);

/// All six benchmark kinds in Table III row order.
inline constexpr DesignKind kAllDesigns[] = {
    DesignKind::kDma, DesignKind::kAes, DesignKind::kEcg,
    DesignKind::kLdpc, DesignKind::kVga, DesignKind::kRocket};

}  // namespace dco3d
