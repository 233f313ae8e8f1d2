// Design-space exploration configuration (the Fig 13 knob set).
//
// A DseConfig names one point of the exploration the paper sweeps by hand
// across Table I / Fig 13: the unit kind, the carry-save geometry (block
// size and explicit-carry spacing, Sec. III-D/F), the deferred-rounding
// examination width (Sec. III-C), the block-selection strategy (early LZA
// vs exact zero detection, Sec. III-F/G), and the pipeline depth the
// design is cut to.  The service's "model" simulation mode evaluates one
// DseConfig through the structural timing/area model (src/fpga) and the
// switching-activity energy model (src/energy) — see dse/eval.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fma/fma_unit.hpp"
#include "fp/rounding.hpp"

namespace csfma::dse {

/// Result-block selection strategy knob: the unit's own BlockSelect (the
/// PCS unit always uses its exact zero detector, so the knob only
/// differentiates FCS designs).
using csfma::BlockSelect;
using csfma::parse_block_select;
using csfma::to_string;

/// One design point.  Field defaults reproduce the paper's shipping
/// PCS geometry at a mid-depth pipeline cut.
struct DseConfig {
  UnitKind unit = UnitKind::Pcs;
  Round rm = Round::NearestEven;
  std::uint64_t seed = 1;  // energy-workload seed (Sec. IV-B recurrence)
  int block = 55;          // result block digits (PCS/FCS geometry)
  int group = 11;          // explicit-carry spacing; must divide block (PCS)
  int round_width = 0;     // rounding examination width in bits; 0 = block
  BlockSelect select = BlockSelect::Lza;  // FCS block selection
  int depth = 8;           // target pipeline depth (stages)
  std::uint64_t ops = 32;  // energy-workload multiply-adds measured

  /// The rounding width actually used by the model (0 resolves to the
  /// unit's natural tail size, one block).
  int resolved_round_width() const {
    return round_width > 0 ? round_width : block;
  }

  /// Empty string when valid; otherwise a human-readable reason usable
  /// verbatim in a protocol error message.
  std::string validate() const;
};

}  // namespace csfma::dse
