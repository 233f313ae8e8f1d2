// Carry-save adder (CSA) reduction trees and the partial-product multiplier.
//
// The paper's FMA datapaths multiply the IEEE-format B_M (53b incl. leading 1)
// with the carry-save-format C_M (110b PCS / 87c FCS) by reducing the partial
// product rows with a Wallace-style tree of 3:2 compressors (Sec. III-C/D).
// multiply_dsp_tiled() builds those rows as the DSP48E tiles the units map
// to, and reduce_rows_inplace() implements the tree, reporting its height
// and compressor count for the fpga/ timing and area models, and the exact
// planes for the energy model.
#pragma once

#include "cs/cs_num.hpp"

namespace csfma {

struct CsaTreeStats {
  int rows = 0;         // partial products entering the tree
  int levels = 0;       // 3:2 compressor levels on the critical path
  int compressors = 0;  // total full-adder (3:2) columns, summed over levels
};

/// Reduce `n` W-bit rows to a single CS pair using layers of 3:2
/// compressors (Wallace reduction), IN PLACE (the array is clobbered), with
/// no allocation for up to 64 rows.  Zero or one rows are handled
/// degenerately.  All arithmetic is mod 2^width (two's complement window);
/// rows must already be truncated to `width`.
CsNum reduce_rows_inplace(int width, CsWord* rows, int n,
                          CsaTreeStats* stats = nullptr);

/// Number of 3:2 levels a Wallace tree needs for n inputs (0 for n <= 2).
int csa_levels_for_rows(int n);

/// DSP-tiled multiplier, the form the paper's units actually map to the
/// Xilinx DSP48E blocks (Sec. IV):  the signed multiplicand is decomposed
/// into `cand_chunk`-bit slices (top slice signed), the unsigned multiplier
/// into `mult_chunk`-bit slices, and each slice pair becomes one DSP tile
/// whose binary partial product enters the CSA tree as one row, placed at
/// `offset` within the `out_width` window.  Row count =
/// ceil(wc/cand_chunk) * ceil(wb/mult_chunk) — e.g. the PCS-FMA's
/// 110x53 multiplier with 17/24-bit chunks yields the paper's 21 DSPs.
///
/// The multiplicand planes are assimilated before slicing (hardware: the
/// DSP pre-adders / PCS group adders; DESIGN.md substitution note).
CsNum multiply_dsp_tiled(const CsNum& multiplicand, const CsWord& multiplier,
                         int multiplier_width, int cand_chunk, int mult_chunk,
                         int out_width, int offset,
                         CsaTreeStats* stats = nullptr);

}  // namespace csfma
