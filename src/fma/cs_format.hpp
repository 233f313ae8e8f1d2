// The carry-save FMA geometry and operand format shared by every CS unit:
// the paper's PCS-FMA (Sec. III-F), its FCS-FMA (Sec. III-G/H) and every
// other (block, group) point the Sec. V future work asks to explore.
//
// A CsGeometry names one datapath:
//   * mantissa  = mant_blocks result blocks, rounding tail = one block,
//   * explicit carries every `group` digits (group 1 = full carry-save:
//     both planes of every digit stay live and there is no Carry Reduction
//     step, the FCS design),
//   * the CS adder window spans adder_blocks blocks, the product's lsb sits
//     one mantissa above the window bottom,
//   * an IEEE significand lifts in with its MSB at digit sig_msb,
//   * the multiplier is DSP-tiled in cand_chunk x mult_chunk tiles,
//   * the result block is picked by the exact Zero Detector on the adder
//     output or by early leading-zero anticipation on the inputs.
//
// Value semantics (normative; see DESIGN.md §3): with M mantissa digits
// and T = block tail digits,
//
//     X̂ = signed((mant.sum + mant.carries) mod 2^M) · 2^T
//          + (tail.sum + tail.carries)
//     value = X̂ · 2^(exp − frac_bits()),   frac_bits() = sig_msb + T
//
// The rounding tail is a non-negative extension below the mantissa.  The
// paper's two geometries reduce to its constants:
//
//   PCS (55, 11): 110b + 10b mantissa, 55b + 5b tail, 12b exponent = 192b;
//                 385b adder, MSB at digit 107 (52 + 1 sign + 1 guard + 1
//                 overflow below the top, Sec. III-D), exact ZD select.
//   FCS (29, 1):  87c mantissa (three 29c blocks), 29c tail; 377c adder of
//                 13 blocks, MSB at digit 82 (sign digit plus the 3-digit
//                 early-LZA margin stay clear, Sec. III-G/H), early LZA.
#pragma once

#include <string>
#include <string_view>

#include "cs/pcs.hpp"
#include "fp/pfloat.hpp"

namespace csfma {

/// Result-block selection (the Sec. III-F vs III-G alternative).  The
/// exact Zero Detector examines the adder *result* digits (precise, but on
/// the critical path); early leading-zero anticipation works from the
/// *inputs* (off the critical path, at the cost of a 3-digit uncertainty
/// margin and the cancellation inaccuracy the paper accepts).
enum class BlockSelect { Lza, Zd };

const char* to_string(BlockSelect s);
bool parse_block_select(std::string_view s, BlockSelect& out);

/// Early-LZA anticipation uncertainty in digits: one LZA position per
/// input, one for the product and one for the sum (Sec. III-G).
inline constexpr int kLzaMargin = 3;

/// A carry-save datapath.  Only the two families below exist — their
/// free knobs are the block size and the carry spacing (PCS) or the block
/// select (FCS); every other width follows from them.
class CsGeometry {
 public:
  /// A partial-carry-save geometry: two-block mantissa, the adder window
  /// spanning mantissa + product + mantissa rounded up to whole blocks, the
  /// 52+1+1+1 significand budget, 17x24 DSP48E tiles and the exact ZD.
  static constexpr CsGeometry pcs(int block, int group) {
    const int mant = 2 * block;
    return CsGeometry(block, group, 2, (3 * mant + 53 + block - 1) / block,
                      mant - 3, 17, 24, BlockSelect::Zd);
  }
  /// The paper's full-carry-save geometry: three 29-digit blocks of
  /// mantissa, a 13-block adder window (the 5-block product with as many
  /// blocks of headroom above it), the sign digit and the LZA margin clear
  /// above the significand, 23x17 DSP48E1 tiles.
  static constexpr CsGeometry fcs(BlockSelect select) {
    return CsGeometry(29, 1, 3, 13, 3 * 29 - 2 - kLzaMargin, 23, 17, select);
  }

  int block() const { return block_; }  // result block digits
  /// Explicit-carry spacing; 1 = full carry-save.
  int group() const { return group_; }
  int mant_blocks() const { return mant_blocks_; }
  /// CS adder window width in blocks.
  int adder_blocks() const { return adder_blocks_; }
  /// IEEE significand MSB digit on conversion.
  int sig_msb() const { return sig_msb_; }
  /// DSP tile slices: multiplicand (C) and multiplier (B) bits.
  int cand_chunk() const { return cand_chunk_; }
  int mult_chunk() const { return mult_chunk_; }
  BlockSelect select() const { return select_; }

  int mant_digits() const { return mant_blocks_ * block_; }
  int tail_digits() const { return block_; }
  int adder_width() const { return adder_blocks_ * block_; }
  /// Product lsb position in the adder window, and its width (C x 53b B).
  int product_offset() const { return mant_digits(); }
  int product_width() const { return mant_digits() + 53; }
  /// Binary point: value = X_hat * 2^(exp - frac_bits()).
  int frac_bits() const { return sig_msb_ + tail_digits(); }
  /// A's window offset is exp(A) - exp(B) - exp(C) + align(): A's lsb
  /// weight 2^(e_A - sig_msb) against the window lsb weight
  /// 2^(e_P - sig_msb - 52 - product_offset).
  int align() const { return 52 + product_offset(); }
  /// Leading blocks the result mux may skip above the mantissa.
  int max_skip() const { return adder_blocks_ - mant_blocks_; }
  /// DSP tiles of the multiplier: ceil(M / cand) * ceil(53 / mult).
  int dsp_tiles() const {
    return ((mant_digits() + cand_chunk_ - 1) / cand_chunk_) *
           ((53 + mult_chunk_ - 1) / mult_chunk_);
  }
  /// Total operand bits: mantissa and tail sum planes, their explicit
  /// carries, and the 12b exponent.
  int operand_bits() const {
    return mant_digits() + mant_digits() / group_ + tail_digits() +
           tail_digits() / group_ + 12;
  }
  /// Significant digits guaranteed in the selected result (the 55b PCS
  /// design yields >= 53; smaller blocks fall below double precision).
  int guaranteed_digits() const { return sig_msb_; }

  /// Rejects block sizes and carry spacings the datapath cannot hold.
  void validate() const;

  bool operator==(const CsGeometry&) const = default;

 private:
  constexpr CsGeometry(int block, int group, int mant_blocks,
                       int adder_blocks, int sig_msb, int cand_chunk,
                       int mult_chunk, BlockSelect select)
      : block_(block),
        group_(group),
        mant_blocks_(mant_blocks),
        adder_blocks_(adder_blocks),
        sig_msb_(sig_msb),
        cand_chunk_(cand_chunk),
        mult_chunk_(mult_chunk),
        select_(select) {}

  int block_, group_, mant_blocks_, adder_blocks_, sig_msb_;
  int cand_chunk_, mult_chunk_;
  BlockSelect select_;
};

/// The paper's shipping geometries.
inline constexpr CsGeometry kPcsGeometry = CsGeometry::pcs(55, 11);
inline constexpr CsGeometry kFcsGeometry = CsGeometry::fcs(BlockSelect::Lza);

/// Exponent field: 12b excess-2047, wider than IEEE's (Sec. III-F).
inline constexpr int kCsExpBias = 2047;
inline constexpr int kCsExpMin = -2047;
inline constexpr int kCsExpMax = 2048;

/// One carry-save FMA operand, plus the two exception side-wires (the
/// FloPoCo technique of Sec. III-B), here an FpClass tag.
class CsOperand {
 public:
  CsOperand();  // +0 in the PCS geometry

  /// Normal construction from planes; checks the geometry's grids.
  CsOperand(const CsGeometry& g, PcsNum mant, PcsNum tail, int exp_unbiased,
            FpClass cls, bool exc_sign);

  static CsOperand make_zero(const CsGeometry& g, bool sign);
  static CsOperand make_inf(const CsGeometry& g, bool sign);
  static CsOperand make_nan(const CsGeometry& g);

  const CsGeometry& geometry() const { return g_; }
  const PcsNum& mant() const { return mant_; }
  const PcsNum& tail() const { return tail_; }
  int exp() const { return exp_; }  // unbiased
  int exp_field() const { return exp_ + kCsExpBias; }
  FpClass cls() const { return cls_; }
  bool exc_sign() const { return exc_sign_; }

  bool is_nan() const { return cls_ == FpClass::NaN; }
  bool is_inf() const { return cls_ == FpClass::Inf; }
  bool is_zero() const {
    return cls_ == FpClass::Zero ||
           (cls_ == FpClass::Normal && mant_.to_binary().is_zero() &&
            tail_assimilated().is_zero());
  }

  /// Digit-level all-zero check of the mantissa planes — the reliable
  /// all-0 detection the early LZA needs (Sec. III-G).  Stronger than
  /// value-zero: redundant encodings of 0 return false.
  bool mant_digits_all_zero() const {
    return mant_.sum().is_zero() && mant_.carries().is_zero();
  }

  /// Exact unsigned assimilation of the rounding tail (unwrapped: the tail
  /// is a non-negative extension, its digit values just add).
  CsWord tail_assimilated() const { return tail_.sum() + tail_.carries(); }

  /// The deferred-rounding decision of Sec. III-C/E for mode "round half
  /// away from zero": examine ONLY the rounding block.  Returns +1/0 to add
  /// to the mantissa.
  int round_increment() const;

  /// True when the deferred half-away-from-zero decision differs from what
  /// IEEE nearest-even would decide at the same truncation boundary — the
  /// paper's documented misrounding case, raised as a numerical event.
  bool round_disagrees_ieee() const;

  /// Exact represented value (for golden comparisons), in the wide
  /// kWideExact readout format.
  PFloat exact_value() const;

  /// The packed operand word of Sec. III-F (normal operands of geometries
  /// up to 192 bits; the exception class travels on the side wires).
  /// Layout, LSB first: mant sum | mant carries (grid-compressed) | tail
  /// sum | tail carries (grid-compressed) | excess-2047 exponent.  For the
  /// PCS geometry: [0,110) | [110,120) | [120,175) | [175,180) | [180,192).
  U192 pack_bits() const;
  static CsOperand unpack_bits(const CsGeometry& g, const U192& bits);

  std::string to_string() const;

 private:
  CsGeometry g_;
  PcsNum mant_;
  PcsNum tail_;
  int exp_;
  FpClass cls_;
  bool exc_sign_;
};

/// Conversion IEEE 754 (or a narrower/54-bit custom format) -> CS operand,
/// the CVT operator the HLS pass inserts at chain entries.  Exact whenever
/// the geometry holds the significand; geometries with fewer than p
/// significand digits truncate its low bits on entry.
CsOperand ieee_to_cs(const CsGeometry& g, const PFloat& x);

/// What a Normal value lifts to, without the operand around it: the
/// carry-free M-digit two's-complement mantissa (M <= 124, so one 128-bit
/// word) and the operand exponent.  ieee_to_cs widens it into an operand;
/// the sliced unit reads its tile chunks, A row and sign runs from it.
struct LiftedSig {
  U128 mant;
  int exp;
};
LiftedSig lift_significand(const CsGeometry& g, const PFloat& x);
/// lift_significand(g, x).exp alone.
int lifted_exp(const CsGeometry& g, const PFloat& x);

/// Conversion CS operand -> IEEE-style format: full assimilation,
/// normalization and a single rounding — the chain-exit CVT operator.
PFloat cs_to_ieee(const CsOperand& x, const FloatFormat& fmt, Round rm);

/// The one rounding of an assimilated value: X̂ · 2^exp2, X̂ in two's
/// complement across the 512-bit workspace, rounded once to `fmt`.
/// cs_to_ieee, exact_value and the sliced unit's plane-form readout all
/// end here.
PFloat round_xhat(const WideUint<8>& xhat, int exp2, const FloatFormat& fmt,
                  Round rm);

}  // namespace csfma
