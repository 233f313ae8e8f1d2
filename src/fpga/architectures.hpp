// Structural models of the four Table I architectures.
//
// Each builder lays out the critical-path component chain (and the
// parallel, area-only side logic) of one design:
//   * Xilinx CoreGen: discrete "low latency" 5-cycle multiplier + 4-cycle
//     adder (the configuration the paper selected, Sec. IV-A),
//   * FloPoCo FPPipeline: fused multiply+add pipeline, smallest DSP count,
//     deepest pipeline, misses the 200 MHz target (190 MHz in Table I),
//   * PCS-FMA (Fig 9) and FCS-FMA (Fig 11), over any carry-save geometry
//     the DSE explores; the defaults are the paper's shipping designs.
//
// The DSP counts come from the multiplier tilings (21 = ceil(110/17) *
// ceil(53/24) for PCS, etc.); LUT counts from per-component width-scaled
// cost functions calibrated to the Table I totals at the paper's
// geometries; delays from the device model of device.hpp.  synthesize()
// pipelines the chain to the target clock, exactly the paper's flow.
// These builders are the only chain descriptions: Table I, Fig 13, the
// HLS operator library and the DSE explorer (dse/eval.hpp) all use them.
#pragma once

#include <vector>

#include "fma/cs_format.hpp"
#include "fpga/device.hpp"
#include "fpga/pipeline.hpp"

namespace csfma {

struct SynthesisReport {
  std::string arch;
  double fmax_mhz = 0.0;
  int cycles = 0;
  int luts = 0;
  int dsps = 0;

  /// Fig 13's metric: minimum computation time for one multiply-add =
  /// minimum clock period x pipeline length.
  double min_ma_time_ns() const { return cycles * 1000.0 / fmax_mhz; }
};

std::vector<Component> build_coregen_mul(const Device& dev);
std::vector<Component> build_coregen_add(const Device& dev);
std::vector<Component> build_flopoco_fused(const Device& dev);

/// The Fig 9 datapath for a PCS geometry, with a `round_width`-bit
/// deferred-rounding examination (Sec. III-C; 0 = one block).  Areas are
/// the 55/11 baseline scaled by the width of each structure.
std::vector<Component> build_pcs_fma(const Device& dev,
                                     const CsGeometry& g = kPcsGeometry,
                                     int round_width = 0);

/// The Fig 11 datapath: three `block`-digit result blocks, a
/// `round_width`-bit rounding examination (0 = one block), and block
/// selection by the parallel early LZA or by the exact ZD, which sits on
/// the critical path after the adder and "determines the total FMA
/// latency" (Sec. III-F/G).  Requires dev.has_preadder (Sec. III-H):
/// checked.
std::vector<Component> build_fcs_fma(const Device& dev,
                                     BlockSelect select = BlockSelect::Lza,
                                     int block = 29, int round_width = 0);

/// The Sec. III-C knob on the IEEE chains (CoreGen, FloPoCo): replace
/// every "round" stage by an adder examining `round_width` bits, its LUTs
/// scaled by `lut_ratio`.
void retune_round(std::vector<Component>& chain, const Device& dev,
                  int round_width, double lut_ratio);

SynthesisReport synthesize(const std::string& name,
                           const std::vector<Component>& chain,
                           const Device& dev, double target_mhz);

/// CoreGen's discrete pair: cycles add up, fmax is the slower of the two.
SynthesisReport synthesize_coregen_pair(const Device& dev, double target_mhz);

/// All four Table I rows at the paper's 200 MHz constraint.
std::vector<SynthesisReport> table1_reports(const Device& dev,
                                            double target_mhz = 200.0);

}  // namespace csfma
