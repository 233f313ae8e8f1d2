// Bit-sliced (SoA) batch execution layer for the simulation hot path.
//
// The scalar simulators walk one operation at a time through wide-word
// datapath values (WideUint planes).  This layer transposes a batch of up
// to 64 operations into *bit-plane* form — planes[b] is a machine word
// whose bit L holds bit b of lane L's value — so that one pass over the
// planes evaluates a datapath stage for every lane at once: a 3:2
// compressor becomes three XOR/AND word ops per bit position instead of
// per operation, the carry-save group reduction becomes a plane-form
// ripple adder, and zero-detect / leading-sign-run become word-parallel
// predicate scans.  This is the same word-level parallelism the paper's
// CS-form datapaths exploit in hardware (all 385 adder columns switch in
// one cycle), applied to the software model across the *batch* dimension;
// the wide-word vectorized-FP idiom follows "Fast Arbitrary Precision
// Floating Point on FPGA" (PAPERS.md).
//
// Contract: every kernel here is bit-exact with its scalar counterpart in
// src/cs applied lane-by-lane — the equivalence the engine's
// backend=scalar|sliced knob and the CI backend-equivalence gate enforce.
// Toggle accounting moves to ActivityProbe::observe_planes(), which is
// popcount-exact with per-lane observe() calls of the lanes under its
// lane mask (see common/activity.hpp).
//
// Layout conventions:
//   * lanes are bits 0..63 of each plane word; a batch of n < 64 lanes
//     leaves lanes n..63 zero (callers mask per-lane outputs by n);
//   * a kernel runs every lane of its block: a lane a datapath stage does
//     not reach rides along on zero inputs, and callers leave it out of
//     that stage's outputs with a lane mask (a uint64_t, bit L = lane L);
//   * plane arrays are indexed by bit position [0, width); callers own the
//     storage (stack arrays or arenas), kernels never allocate;
//   * lane-major inputs are little-endian word arrays with a fixed stride
//     (WideUint<W>::data() exposes exactly this layout).
#pragma once

#include <cstdint>

#include "cs/csa_tree.hpp"

namespace csfma::slice {

/// Lanes per plane word — one operation per bit of a machine word.
inline constexpr int kLanes = 64;

/// In-place transpose of a 64x64 bit matrix held as 64 row words, where
/// element (r, c) is bit c of m[r].  Involution: applying it twice is the
/// identity; pack and unpack are the same word operation.
void transpose64(std::uint64_t m[kLanes]);

/// Pack `n` lane-major values (little-endian word arrays of `stride_words`
/// words each, lanes contiguous) into bit-plane form: on return,
/// planes[b] bit L = bit b of lanes[L*stride_words ...] for b in
/// [0, width_bits).  Lanes n..63 of every plane are zero.
void pack_words(const std::uint64_t* lanes, int stride_words, int n,
                int width_bits, std::uint64_t* planes);

/// Inverse of pack_words: scatter plane bits back to `n` lane-major word
/// arrays.  Words beyond ceil(width_bits/64) of each lane are untouched.
void unpack_words(const std::uint64_t* planes, int width_bits, int n,
                  std::uint64_t* lanes, int stride_words);

// ---- bit-parallel kernels ------------------------------------------------
//
// Each kernel evaluates its scalar namesake for all 64 lanes per word op.
// Input and output plane arrays may not alias unless noted.

/// 3:2 compression within a `width`-bit window (cs/cs_num.hpp compress3):
/// out_s = a ^ b ^ c per plane, out_c = majority shifted up one bit
/// position with the MSB majority dropped (mod-2^width semantics).
/// out_s may alias a; out_c may not alias any input.
void compress3(int width, const std::uint64_t* a, const std::uint64_t* b,
               const std::uint64_t* c, std::uint64_t* out_s,
               std::uint64_t* out_c);

/// Partial carry-save group reduction (cs/pcs.hpp carry_reduce): per
/// `group`-bit segment, assimilate sum+carry planes with a plane-form
/// ripple adder; the segment carry-out lands at the base of the next
/// segment in out_c (dropped past `width`).  No aliasing.
void carry_reduce(int width, int group, const std::uint64_t* s,
                  const std::uint64_t* c, std::uint64_t* out_s,
                  std::uint64_t* out_c);

/// Full-width assimilation: out[b] holds bit b of (S + C) mod 2^width per
/// lane — the plane form of CsNum::to_binary().  Returns the carry out of
/// the top plane, bit `width` of the unwrapped sum.  No aliasing.
std::uint64_t assimilate(int width, const std::uint64_t* s,
                         const std::uint64_t* c, std::uint64_t* out);

/// Zero-detect block skipping (cs/zero_detect.hpp count_skippable_blocks)
/// for all lanes: alive_after[k] bit L is set iff lane L skips more than k
/// leading `block`-digit blocks, for k in [0, max_skip) — i.e. lane L's
/// skip count is the number of set alive_after bits.  Requires
/// 2 <= block <= 63, width % block == 0 and max_skip <= width/block - 1
/// (same preconditions as the scalar routine, which CSFMA_CHECKs them).
void count_skippable_blocks(int width, int block, int max_skip,
                            const std::uint64_t* s, const std::uint64_t* c,
                            std::uint64_t* alive_after);

/// Exact leading-sign-run (cs/lza.hpp leading_sign_run) of assimilated
/// binary planes: run[L] = number of bits below the MSB equal to lane L's
/// sign bit, capped at width-1.  Only lanes [0, n) are written.
void leading_sign_run(int width, const std::uint64_t* bin, int n,
                      std::uint16_t* run);

/// Behavioural LZA (cs/lza.hpp lza_estimate) across lanes: est[L] is the
/// anticipated (lower-bound) leading sign run of lane L's CS value, with
/// the same carry-hits-boundary error signature as the scalar model.
/// Uses `scratch`, a caller-provided plane array of at least 2*width
/// words.  Only lanes [0, n) are written.
void lza_estimate(int width, const std::uint64_t* s, const std::uint64_t* c,
                  int n, std::uint16_t* est, std::uint64_t* scratch);

// ---- the plane multiplier (cs/csa_tree.hpp multiply_dsp_tiled) -----------
//
// One multiplier serves every fused unit's block: the per-lane part, the
// DSP tile products, stays plain int64 arithmetic; the partial-product tree
// runs across lanes.

/// A multiply_dsp_tiled call's lane-invariant shape: a `cand_width`-digit
/// binary multiplicand (top slice signed) in `cand_chunk`-bit slices times
/// an unsigned `mult_width`-bit multiplier in `mult_chunk`-bit slices, the
/// product placed at `offset` in a `width`-bit window.
struct TileGeometry {
  int cand_width, cand_chunk;
  int mult_width, mult_chunk;
  int width, offset;

  constexpr int cand_slices() const {
    return (cand_width + cand_chunk - 1) / cand_chunk;
  }
  constexpr int mult_slices() const {
    return (mult_width + mult_chunk - 1) / mult_chunk;
  }
  /// Tile (= tree row) count.
  constexpr int tiles() const { return cand_slices() * mult_slices(); }
  /// Planes per tree row: the window at and above the product's lsb.
  constexpr int row_planes() const { return width - offset; }
};

/// Lane `lane`'s tile products: tiles[r * kLanes + lane] for tile r in
/// multiply_dsp_tiled's row order (multiplicand slice outer).  `cand` is
/// the lane's multiplicand as a little-endian word array covering
/// cand_width bits; `mult` its multiplier.
void tile_products(const TileGeometry& g, const std::uint64_t* cand,
                   std::uint64_t mult, int lane, std::int64_t* tiles);

/// The tree of multiply_dsp_tiled for lanes [0, n): tile r becomes a row
/// at weight offset + c_lo + b_lo with sign fill above, and the rows are
/// reduced with reduce_rows_inplace's exact 3:2 schedule.  out_s / out_c
/// receive the product's sum and carry planes over the whole window (zero
/// below `offset`); `stats` (optional) is filled as the scalar call fills
/// it.  `rows` is caller scratch of tiles() * row_planes() planes.
void tiled_multiply(const TileGeometry& g, const std::int64_t* tiles, int n,
                    std::uint64_t* rows, std::uint64_t* out_s,
                    std::uint64_t* out_c, CsaTreeStats* stats = nullptr);

/// cs_negate (cs/cs_num.hpp), in place, on the lanes set in `lanes`; the
/// other lanes keep their planes.
void cs_negate(int width, std::uint64_t lanes, std::uint64_t* s,
               std::uint64_t* c);

}  // namespace csfma::slice
