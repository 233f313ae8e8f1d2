#include "fma/cs_fma.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "cs/lza.hpp"
#include "cs/zero_detect.hpp"
#include "engine/slice.hpp"
#include "introspect/event_log.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {

namespace {

/// fma_block keeps its tile products and one product-window plane row per
/// tile on the stack.  The largest valid geometry (PCS at 62-digit blocks)
/// has 24 tiles over a 310-plane product window; the paper units use
/// 21 x 275 and 16 x 290.
constexpr int kMaxDspTiles = 24;
constexpr int kMaxTreePlanes = 24 * 310;
/// X̂ = signed(mant) * 2^T + tail takes M + T + 1 bits (the unwrapped tail
/// may carry out): at most 187, so fma_block reads it out in three words.
constexpr int kXhatWords = 3;

using I128 = __int128;

/// Sign of a normal operand's value (mantissa two's complement; a zero
/// mantissa with a non-zero tail is positive).
bool value_sign(const CsOperand& x) {
  if (x.cls() != FpClass::Normal) return x.exc_sign();
  return x.mant().as_cs().is_value_negative();
}

/// Carry Reduction to the geometry's group-g form (Sec. III-E); a full
/// carry-save geometry (g = 1) keeps the raw planes.
PcsNum reduce(const CsNum& x, int group) {
  if (group == 1) return PcsNum(x.width(), 1, x.sum(), x.carry());
  return carry_reduce(x, group);
}

/// A's pass-through result when the product falls entirely below A's
/// window: apply A's deferred rounding, clear the tail.
CsOperand passthrough_rounded(const CsOperand& a, int rnd_a) {
  const CsGeometry& g = a.geometry();
  const CsNum bumped =
      compress3(g.mant_digits(), a.mant().sum(), a.mant().carries(),
                CsWord((std::uint64_t)rnd_a));
  return CsOperand(g, reduce(bumped, g.group()),
                   PcsNum::zero(g.tail_digits(), g.group()), a.exp(),
                   FpClass::Normal, value_sign(a));
}

/// An M-digit two's-complement word (M < 128) as a signed integer.
I128 signed_mant(const U128& v, int m) {
  const unsigned __int128 u = ((unsigned __int128)v.word(1) << 64) | v.lo64();
  return (I128)(u << (128 - m)) >> (128 - m);
}

/// A's aligned row in the adder window, as CsWord::kWords words: the
/// signed value `a` with its lsb at window digit ofs_a, sign-extended to
/// the window top and truncated there (zero when A lies entirely below
/// the window).  A negative offset shifts arithmetically.
void place_a(I128 a, int ofs_a, const CsGeometry& g, std::uint64_t* row) {
  const int w = g.adder_width();
  if (ofs_a < 0) {
    a = ofs_a > -g.mant_digits() ? a >> -ofs_a : 0;
    ofs_a = 0;
  }
  const std::uint64_t src[3] = {(std::uint64_t)a,
                                (std::uint64_t)((unsigned __int128)a >> 64),
                                a < 0 ? ~std::uint64_t{0} : 0};
  const auto at = [&](int d) { return d < 0 ? 0 : src[std::min(d, 2)]; };
  const int q = ofs_a / 64, r = ofs_a % 64;
  for (int x = 0; x < CsWord::kWords; ++x) {
    std::uint64_t v =
        r == 0 ? at(x - q) : (at(x - q) << r) | (at(x - q - 1) >> (64 - r));
    if (64 * x + 64 > w)
      v = 64 * x >= w ? 0 : v & ((std::uint64_t{1} << (w - 64 * x)) - 1);
    row[x] = v;
  }
}

/// Leading sign run of a carry-free M-digit two's-complement word —
/// exactly what lza_estimate returns on a freshly lifted (binary) operand.
int binary_sign_run(const U128& v, int m) {
  const U128 x = v.bit(m - 1) ? (~v).truncated(m) : v;
  return m - 1 - x.bit_width();
}

/// The class of a mux output (Sec. III-B side wires), as result() and the
/// sliced readout both decide it: a zero value is +0; otherwise a result
/// above the 12b exponent field is a signed infinity and one below it a
/// flushed signed zero.
struct ResultClass {
  FpClass cls;
  bool sign;
};
ResultClass result_class(bool zero, bool negative, int e_r, EventLog* events) {
  if (zero) return {FpClass::Zero, false};
  if (e_r > kCsExpMax) return {FpClass::Inf, negative};
  if (e_r < kCsExpMin) {
    if (events != nullptr) events->raise(EventKind::SubnormalFlush, e_r);
    return {FpClass::Zero, negative};
  }
  return {FpClass::Normal, false};
}

}  // namespace

CsFma::CsFma(const CsGeometry& g, ActivityRecorder* activity,
             const IntrospectHooks* hooks)
    : g_(g), probes_(activity, kProbeNames), hooks_(hooks) {
  g_.validate();
  CSFMA_CHECK(g_.dsp_tiles() <= kMaxDspTiles &&
              g_.dsp_tiles() * (g_.adder_width() - g_.product_offset()) <=
                  kMaxTreePlanes &&
              g_.mant_digits() + g_.tail_digits() + 1 <= kXhatWords * 64);
}

CsOperand CsFma::fma(const CsOperand& a, const PFloat& b, const CsOperand& c) {
  CSFMA_CHECK_MSG(a.geometry() == g_ && c.geometry() == g_,
                  "operand geometry differs from the unit's");
  SignalTap* tap = hooks_ != nullptr ? hooks_->tap : nullptr;
  EventLog* events = hooks_ != nullptr ? hooks_->events : nullptr;
  // A full carry-save unit sees its inputs through digit-level detectors
  // and anticipates the result position on them (Sec. III-G), whichever
  // select then drives its result mux.
  const bool full = g_.group() == 1;
  const bool lza = g_.select() == BlockSelect::Lza;
  const int m = g_.mant_digits(), w = g_.adder_width();

  // ---- exception side-wires (Sec. III-B) ----
  const SideWire wire = side_wires(a, b, c, events);
  if (wire.kind != SideWire::kDatapath) return side_wire_result(wire, a);

  // ---- deferred rounding decisions (Sec. III-C) ----
  const bool a_normal = a.cls() == FpClass::Normal;
  const int rnd_a = a_normal ? a.round_increment() : 0;
  const int rnd_c = c.cls() == FpClass::Normal ? c.round_increment() : 0;
  CSFMA_CHECK_MSG(b.format().precision() <= 53,
                  "B must be IEEE binary64 or narrower");

  // ---- A path: deferred rounding + pre-shift (parallel to the multiply;
  //      Fig 5).  The A mantissa is assimilated here (see header note). ----
  const int e_p = b.exp() + c.exp();
  const int ofs_a = (a_normal ? a.exp() : e_p) - e_p + g_.align();
  const I128 a_val =
      (a_normal ? signed_mant(U128(a.mant().to_binary()), m) : 0) + rnd_a;
  const bool a_present =
      full ? a_normal && !a.mant_digits_all_zero() : a_val != 0;
  // A entirely left of the adder window: the product cannot influence even
  // the rounding tail, so A passes through.  The full carry-save unit sees
  // this on its inputs, before the multiplier fires.
  const bool a_left = a_present && ofs_a > w - m;
  if (full && a_left) return passthrough_rounded(a, rnd_a);

  // ---- early leading-zero anticipation on the INPUTS (Sec. III-G):
  //      upper bounds for each addend's most significant window digit;
  //      the maximum plus one bounds the sum. ----
  int p_est = -1;
  if (full) {
    if (a_present && ofs_a > -m) {
      // msb(|A|+1) <= M - lza_a  (the +1 covers the deferred round-up).
      p_est = ofs_a + m - lza_estimate(a.mant().as_cs(), events);
    }
    // msb(|C|) <= M - 1 - lza_c; times B < 2^53 and +1 for rounding.
    const int lza_c = lza_estimate(c.mant().as_cs(), events);
    p_est = std::max(p_est, g_.product_offset() + m + 53 - lza_c) + 1;
  }

  // ---- multiplier: B_M x unrounded C_M as a DSP-tiled CSA tree, built
  //      directly in the adder window at the product offset so the product
  //      planes stay in carry-save form into the adder (Fig 9/11).  C's
  //      deferred rounding becomes the +B_M correction row (Fig 6). ----
  const CsWord b_sig = CsWord(WideUint<7>(WideUint<2>(b.sig())));
  CsNum product =
      multiply_dsp_tiled(c.mant().as_cs(), b_sig, 53, g_.cand_chunk(),
                         g_.mult_chunk(), w, g_.product_offset(), &mul_stats_);
  if (rnd_c != 0) {
    product = cs_add_binary(product,
                            (b_sig << g_.product_offset()).truncated(w));
  }
  if (b.sign()) product = cs_negate(product);
  if (probes_) {
    probes_[kMulSum].observe(product.sum());
    probes_[kMulCarry].observe(product.carry());
  }
  if (tap != nullptr) {
    tap->begin_stage("mul");
    tap->tap("mul.sum", product.sum(), w);
    tap->tap("mul.carry", product.carry(), w);
  }
  // The PCS unit's mux takes a far-left A only after the multiplier fired.
  if (a_left) return passthrough_rounded(a, rnd_a);

  CsWord a_row;
  place_a(a_val, ofs_a, g_, a_row.data());
  if (probes_) probes_[kAShift].observe(a_row);
  if (tap != nullptr) {
    tap->begin_stage("align");
    tap->tap("align.ashift", a_row, w);
  }

  // ---- CS adder: product planes + aligned A row (3:2) ----
  const CsNum adder = compress3(w, product.sum(), product.carry(), a_row);
  if (probes_) {
    probes_[kAddSum].observe(adder.sum());
    probes_[kAddCarry].observe(adder.carry());
  }
  if (tap != nullptr) {
    tap->begin_stage("add");
    tap->tap("add.sum", adder.sum(), w);
    tap->tap("add.carry", adder.carry(), w);
  }
  if (events != nullptr) {
    // Catastrophic cancellation: the sum's most significant digit landed
    // far (>= 50 digit positions) below the highest input digit.  Window
    // coordinates keep PFloat/CS exponent conventions out of it.
    const int a_msb = a_present && ofs_a > -m ? ofs_a + m - 1 : -1;
    const int p_msb = g_.product_offset() + m + 53;
    const int out_msb = w - 1 - leading_sign_run(adder);
    const int drop = std::max(a_msb, p_msb) - out_msb;
    if (drop >= 50) events->raise(EventKind::Cancellation, drop);
  }

  // ---- Carry Reduction to the group-g form (Sec. III-E) ----
  const PcsNum reduced = reduce(adder, g_.group());
  if (g_.group() > 1) {
    if (probes_) {
      probes_[kCreduceSum].observe(reduced.sum());
      probes_[kCreduceCarry].observe(reduced.carries());
    }
    if (tap != nullptr) {
      tap->begin_stage("creduce");
      tap->tap("creduce.sum", reduced.sum(), w);
      tap->tap("creduce.carry", reduced.carries(), w);
    }
  }

  // ---- block select + result multiplexer (Sec. III-D/F/G/H) ----
  int k;
  if (lza) {
    // The window top must cover the sign digit above the anticipated msb.
    const int top = std::clamp((p_est + 1) / g_.block(), g_.mant_blocks() - 1,
                               g_.adder_blocks() - 1);
    k = g_.adder_blocks() - 1 - top;
  } else {
    k = count_skippable_blocks(reduced.as_cs(), g_.block(), g_.max_skip(),
                               events);
  }
  last_skip_ = k;
  const int mant_lo = (g_.max_skip() - k) * g_.block();
  const int t_digits = g_.tail_digits();
  PcsNum mant = reduced.extract_digits(mant_lo, m);
  PcsNum tail = mant_lo >= g_.block()
                    ? reduced.extract_digits(mant_lo - g_.block(), t_digits)
                    : PcsNum::zero(t_digits, g_.group());
  if (probes_) {
    probes_[kMuxSum].observe(mant.sum());
    probes_[kMuxCarry].observe(mant.carries());
  }
  if (tap != nullptr) {
    tap->begin_stage("mux");
    if (full) {
      const int top = g_.adder_blocks() - 1 - k;
      tap->tap_u64("mux.top_block", (std::uint64_t)top, 4);
    } else {
      tap->tap_u64("mux.zd_skip", (std::uint64_t)k, 4);
    }
    tap->tap("mux.sum", mant.sum(), m);
    tap->tap("mux.carry", mant.carries(), m);
  }
  return result(std::move(mant), std::move(tail), e_p + mant_lo - g_.align(),
                events);
}

CsFma::SideWire CsFma::side_wires(const CsOperand& a, const PFloat& b,
                                  const CsOperand& c, EventLog* events) const {
  if (a.is_nan() || b.is_nan() || c.is_nan()) return {SideWire::kNan};
  const bool b_zero = b.is_zero();
  const bool c_zero = c.is_zero();
  const bool p_sign = b.sign() != value_sign(c);
  if (b.is_inf() || c.is_inf()) {
    if (b_zero || c_zero) return {SideWire::kNan};
    if (a.is_inf() && a.exc_sign() != p_sign) return {SideWire::kNan};
    return {SideWire::kInf, p_sign};
  }
  if (a.is_inf()) return {SideWire::kInf, a.exc_sign()};
  if (events != nullptr) {
    // The documented misrounding of the deferred half-away-from-zero rule:
    // detail 0 = the A operand's tail, 1 = C's (see fp/rounding.hpp).
    if (a.cls() == FpClass::Normal && a.round_disagrees_ieee()) {
      events->raise(EventKind::MisroundVsIeee, 0);
    }
    if (c.cls() == FpClass::Normal && c.round_disagrees_ieee()) {
      events->raise(EventKind::MisroundVsIeee, 1);
    }
  }
  if (!b_zero && !c_zero) return {SideWire::kDatapath};
  // Product is zero: the result is (rounded) A; -0 iff both are negative.
  if (a.is_zero()) return {SideWire::kZero, p_sign && value_sign(a)};
  return {SideWire::kRoundedA};
}

CsOperand CsFma::side_wire_result(SideWire wire, const CsOperand& a) const {
  switch (wire.kind) {
    case SideWire::kNan: return CsOperand::make_nan(g_);
    case SideWire::kInf: return CsOperand::make_inf(g_, wire.sign);
    case SideWire::kZero: return CsOperand::make_zero(g_, wire.sign);
    case SideWire::kRoundedA:
      return passthrough_rounded(a, a.round_increment());
    case SideWire::kDatapath: break;
  }
  CSFMA_CHECK_MSG(false, "the datapath decides this operation");
  return CsOperand();
}

CsOperand CsFma::result(PcsNum mant, PcsNum tail, int e_r,
                        EventLog* events) const {
  // The full carry-save unit only has digit-level detectors: anything that
  // survived below its window is the truncation it accepts under total
  // cancellation.  The PCS unit tests the value.
  const bool zero =
      g_.group() == 1
          ? mant.sum().is_zero() && mant.carries().is_zero() &&
                tail.sum().is_zero() && tail.carries().is_zero()
          : mant.to_binary().is_zero() && tail.to_binary().is_zero();
  const ResultClass rc =
      result_class(zero, mant.as_cs().is_value_negative(), e_r, events);
  if (rc.cls == FpClass::Zero) return CsOperand::make_zero(g_, rc.sign);
  if (rc.cls == FpClass::Inf) return CsOperand::make_inf(g_, rc.sign);
  return CsOperand(g_, std::move(mant), std::move(tail), e_r, FpClass::Normal,
                   false);
}

PFloat CsFma::fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                       Round rm) {
  return cs_to_ieee(fma(ieee_to_cs(g_, a), b, ieee_to_cs(g_, c)), kBinary64,
                    rm);
}

void CsFma::fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                           const FmaBatchHooks& hooks) {
  if (hooks_ != nullptr && hooks_->tap != nullptr) {
    // A SignalTap traces one operation at a time.
    for (std::size_t i = 0; i < n; ++i) {
      hooks.begin_op(i, ops[i]);
      out[i] = fma_ieee(ops[i].a, ops[i].b, ops[i].c, hooks.rm);
    }
    return;
  }
  for (std::size_t i = 0; i < n; i += slice::kLanes) {
    FmaBatchHooks block = hooks;
    block.base_index += i;
    fma_block(ops + i, (int)std::min<std::size_t>(n - i, slice::kLanes),
              out + i, block);
  }
}

void CsFma::fma_block(const OperandTriple* ops, int n, PFloat* out,
                      const FmaBatchHooks& hooks) {
  constexpr int kW = CsWord::kWords;
  constexpr int kMaxW = kCsWordBits;
  constexpr int kMaxBlocks = kCsWordBits / 8;
  EventLog* events = hooks.events;
  const bool full = g_.group() == 1;
  const bool lza = g_.select() == BlockSelect::Lza;
  const int m = g_.mant_digits(), t_digits = g_.tail_digits();
  const int w = g_.adder_width(), block = g_.block();
  const int max_skip = g_.max_skip();
  const int ofs_p = g_.product_offset();
  const slice::TileGeometry tg{m, g_.cand_chunk(), 53, g_.mult_chunk(), w,
                               ofs_p};

  // ---- per-lane front end: each lane's class, as the scalar fma() takes
  //      it.  A side wire (a NaN or infinite operand, a zero product)
  //      reaches no stage.  An A pass-through reaches the multiplier on a
  //      PCS unit, whose mux takes A after it fired, and no stage on a full
  //      carry-save unit, which sees A on its inputs.  A datapath lane
  //      reaches every stage.  Then lift + DSP tile products + A alignment
  //      (and the input-side anticipation of an early-LZA unit) for the
  //      stages each lane reaches; a stage that runs reads zero tiles and a
  //      zero A row for the lanes it does not reach.  A freshly lifted
  //      operand's tail is empty and its planes carry-free, so A's and C's
  //      deferred rounding is 0, their events never fire and the early LZA
  //      is exact.  Only the per-lane-data work stays scalar; the
  //      partial-product tree, the adder and everything after run
  //      bit-parallel across the block. ----
  std::int64_t tiles[kMaxDspTiles * slice::kLanes];
  std::uint64_t a_rows[slice::kLanes * kW];
  std::uint64_t neg_mask = 0;
  std::uint64_t datapath = 0;  // lanes that run every stage
  std::uint64_t passed = 0;    // A pass-through lanes
  int e_p[slice::kLanes] = {};
  int a_msb[slice::kLanes] = {};
  int skip[slice::kLanes] = {};
  for (int L = 0; L < n; ++L) {
    const PFloat& a = ops[L].a;
    const PFloat& b = ops[L].b;
    const std::uint64_t lane = std::uint64_t{1} << L;
    if (!b.is_normal() || !ops[L].c.is_normal() || a.is_nan() || a.is_inf())
      continue;
    CSFMA_CHECK_MSG(b.format().precision() <= 53,
                    "B must be IEEE binary64 or narrower");
    // C lifts to a binary (carry-free) mantissa with an empty tail, so the
    // rnd_c correction row never fires on this path; the DSP pre-adder
    // assimilation of multiply_dsp_tiled is the identity on it.
    const LiftedSig c = lift_significand(g_, ops[L].c);
    e_p[L] = b.exp() + c.exp;
    I128 a_val = 0;
    int ofs_a = g_.align();
    int lza_a = 0;
    if (a.is_normal()) {
      const LiftedSig al = lift_significand(g_, a);
      a_val = signed_mant(al.mant, m);
      ofs_a = al.exp - e_p[L] + g_.align();
      lza_a = binary_sign_run(al.mant, m);
    }
    // A entirely left of the adder window passes through.
    if (a_val != 0 && ofs_a > w - m) {
      passed |= lane;
      if (full) continue;
    }
    if (b.sign()) neg_mask |= lane;
    slice::tile_products(tg, c.mant.data(), b.sig().lo64(), L, tiles);
    if ((passed & lane) != 0) continue;
    datapath |= lane;
    place_a(a_val, ofs_a, g_, a_rows + L * kW);
    const bool a_in = a_val != 0 && ofs_a > -m;
    a_msb[L] = a_in ? ofs_a + m - 1 : -1;
    if (lza) {
      const int lza_c = binary_sign_run(c.mant, m);
      int p_est = a_in ? ofs_a + m - lza_a : -1;
      p_est = std::max(p_est, ofs_p + m + 53 - lza_c) + 1;
      const int top = std::clamp((p_est + 1) / block, g_.mant_blocks() - 1,
                                 g_.adder_blocks() - 1);
      skip[L] = g_.adder_blocks() - 1 - top;
    }
  }

  // ---- the shared plane multiplier (the scalar tree's exact planes; its
  //      data-independent stats serve the whole block), then B's sign as
  //      the lane-masked negation.  It runs if any lane fires it. ----
  const std::uint64_t fired = full ? datapath : datapath | passed;
  std::uint64_t ps[kMaxW], pc[kMaxW];
  if (fired != 0) {
    for (int L = 0; L < n; ++L)
      if (((fired >> L) & 1u) == 0)
        for (int r = 0; r < g_.dsp_tiles(); ++r)
          tiles[r * slice::kLanes + L] = 0;
    std::uint64_t rows[kMaxTreePlanes];
    slice::tiled_multiply(tg, tiles, n, rows, ps, pc, &mul_stats_);
    slice::cs_negate(w, neg_mask, ps, pc);
    if (probes_) {
      probes_[kMulSum].observe_planes(ps, w, fired);
      probes_[kMulCarry].observe_planes(pc, w, fired);
    }
  }

  // A lane the datapath does not decide reads the result the scalar fma()
  // returns early: A passed through, or what the side wires decide.
  const auto early = [&](int L) {
    const CsOperand a = ieee_to_cs(g_, ops[L].a);
    if (((passed >> L) & 1u) != 0)
      return cs_to_ieee(passthrough_rounded(a, 0), kBinary64, hooks.rm);
    const SideWire wire =
        side_wires(a, ops[L].b, ieee_to_cs(g_, ops[L].c), events);
    return cs_to_ieee(side_wire_result(wire, a), kBinary64, hooks.rm);
  };
  if (datapath == 0) {
    for (int L = 0; L < n; ++L) {
      hooks.begin_op(L, ops[L]);
      out[L] = early(L);
    }
    return;
  }

  // ---- everything below the multiplier, for the datapath lanes ----
  for (int L = 0; L < n; ++L)
    if (((datapath >> L) & 1u) == 0)
      std::fill(a_rows + L * kW, a_rows + (L + 1) * kW, std::uint64_t{0});
  std::uint64_t ar[kMaxW];
  slice::pack_words(a_rows, kW, n, w, ar);
  if (probes_) probes_[kAShift].observe_planes(ar, w, datapath);

  // ---- CS adder, all lanes per word op ----
  std::uint64_t as[kMaxW], ac[kMaxW];
  slice::compress3(w, ps, pc, ar, as, ac);
  if (probes_) {
    probes_[kAddSum].observe_planes(as, w, datapath);
    probes_[kAddCarry].observe_planes(ac, w, datapath);
  }

  // Event inputs: one assimilation serves both the cancellation detector
  // (leading sign run of the adder output) and the ZD-late check below —
  // carry reduction preserves the value mod 2^W, so the reduced form's
  // binary image is this same plane set.
  std::uint16_t run[slice::kLanes];
  std::uint64_t same[kMaxBlocks + 1];
  if (events != nullptr) {
    std::uint64_t bin[kMaxW];
    slice::assimilate(w, as, ac, bin);
    slice::leading_sign_run(w, bin, n, run);
    // same[j]: lanes whose bits [W - j*block - 1, W - 1] are all equal,
    // i.e. skipping j blocks would preserve the signed value
    // (skip_preserves_value in plane form).
    std::uint64_t eq = ~std::uint64_t{0};
    int b = w - 1;
    for (int j = 1; j <= max_skip; ++j) {
      const int lo = w - 1 - j * block;
      while (b > lo) {
        --b;
        eq &= ~(bin[b] ^ bin[w - 1]);
      }
      same[j] = eq;
    }
  }

  // ---- Carry Reduction to the group-g form (group 1: raw planes) ----
  std::uint64_t rs_buf[kMaxW], rc_buf[kMaxW];
  const std::uint64_t* rs = as;
  const std::uint64_t* rc = ac;
  if (g_.group() > 1) {
    slice::carry_reduce(w, g_.group(), as, ac, rs_buf, rc_buf);
    rs = rs_buf;
    rc = rc_buf;
    if (probes_) {
      probes_[kCreduceSum].observe_planes(rs, w, datapath);
      probes_[kCreduceCarry].observe_planes(rc, w, datapath);
    }
  }

  // ---- block select: per-lane skip counts (ZD from the alive masks; the
  //      early LZA already chose in the front end) ----
  if (!lza) {
    std::uint64_t alive[kMaxBlocks];
    slice::count_skippable_blocks(w, block, max_skip, rs, rc, alive);
    for (int L = 0; L < n; ++L) {
      if (((datapath >> L) & 1u) == 0) continue;
      int k = 0;
      for (int s = 0; s < max_skip; ++s) k += (int)((alive[s] >> L) & 1u);
      skip[L] = k;
    }
  }
  std::uint64_t lane_of_k[kMaxBlocks + 1] = {};
  for (int L = 0; L < n; ++L)
    if (((datapath >> L) & 1u) != 0)
      lane_of_k[skip[L]] |= std::uint64_t{1} << L;
  int ks[kMaxBlocks + 1];
  int n_ks = 0;
  for (int k = 0; k <= max_skip; ++k)
    if (lane_of_k[k] != 0) ks[n_ks++] = k;

  // ---- result mux in plane form: mant plane b selects the reduced plane
  //      at b + (max_skip - k) * block for each lane's skip count k; the
  //      tail reads one block below (k == max_skip lanes have no block
  //      below and read a zero tail, exactly the scalar default) ----
  std::uint64_t ms[kMaxW], mc[kMaxW], ts[64], tc[64];
  for (int b = 0; b < m; ++b) {
    std::uint64_t sv = 0, cv = 0;
    for (int q = 0; q < n_ks; ++q) {
      const int at = b + (max_skip - ks[q]) * block;
      sv |= rs[at] & lane_of_k[ks[q]];
      cv |= rc[at] & lane_of_k[ks[q]];
    }
    ms[b] = sv;
    mc[b] = cv;
  }
  for (int b = 0; b < t_digits; ++b) {
    std::uint64_t sv = 0, cv = 0;
    for (int q = 0; q < n_ks && ks[q] < max_skip; ++q) {
      const int at = b + (max_skip - 1 - ks[q]) * block;
      sv |= rs[at] & lane_of_k[ks[q]];
      cv |= rc[at] & lane_of_k[ks[q]];
    }
    ts[b] = sv;
    tc[b] = cv;
  }
  if (probes_) {
    probes_[kMuxSum].observe_planes(ms, m, datapath);
    probes_[kMuxCarry].observe_planes(mc, m, datapath);
  }

  // ---- readout in plane form: assimilate the mantissa mod 2^M and the
  //      tail unwrapped, and form X̂ = signed(mant) * 2^T + tail (the value
  //      semantics of cs_format.hpp) with one ripple pass; zero test and
  //      sign for every lane at once, then one transpose of X̂ ----
  const int xw = m + t_digits + 1;
  std::uint64_t mb[kMaxW], xh[kXhatWords * 64];
  slice::assimilate(m, ms, mc, mb);
  std::uint64_t carry = slice::assimilate(t_digits, ts, tc, xh);
  for (int b = 0; b <= m; ++b) {
    const std::uint64_t d = mb[std::min(b, m - 1)];  // sign-extended mant
    xh[t_digits + b] = d ^ carry;
    carry &= d;
  }
  // result()'s zero test: every digit plane of a full carry-save unit, the
  // two binary images (mantissa mod 2^M, tail mod 2^T) of a PCS unit.
  std::uint64_t nonzero = 0;
  if (full) {
    for (int b = 0; b < m; ++b) nonzero |= ms[b] | mc[b];
    for (int b = 0; b < t_digits; ++b) nonzero |= ts[b] | tc[b];
  } else {
    for (int b = 0; b < m; ++b) nonzero |= mb[b];
    for (int b = 0; b < t_digits; ++b) nonzero |= xh[b];
  }
  const std::uint64_t negative = mb[m - 1];
  const int x_words = (xw + 63) / 64;
  std::uint64_t xhat_w[slice::kLanes * kXhatWords];
  slice::unpack_words(xh, xw, n, xhat_w, kXhatWords);

  // ---- per lane, in operation order: events, the class rule, rounding ----
  for (int L = 0; L < n; ++L) {
    hooks.begin_op(L, ops[L]);
    if (((datapath >> L) & 1u) == 0) {
      out[L] = early(L);
      continue;
    }
    if (events != nullptr) {
      const int p_msb = ofs_p + m + 53;
      const int out_msb = w - 1 - (int)run[L];
      const int drop = std::max(a_msb[L], p_msb) - out_msb;
      if (drop >= 50) events->raise(EventKind::Cancellation, drop);
      if (!lza && skip[L] < max_skip && ((same[skip[L] + 1] >> L) & 1u) != 0) {
        events->raise(EventKind::ZeroDetectLate, skip[L]);
      }
    }
    last_skip_ = skip[L];
    const int e_r = e_p[L] + (max_skip - skip[L]) * block - g_.align();
    const ResultClass rc =
        result_class(((nonzero >> L) & 1u) == 0, ((negative >> L) & 1u) != 0,
                     e_r, events);
    if (rc.cls != FpClass::Normal) {
      out[L] = rc.cls == FpClass::Inf ? PFloat::inf(kBinary64, rc.sign)
                                      : PFloat::zero(kBinary64, rc.sign);
      continue;
    }
    WideUint<8> xhat;
    for (int i = 0; i < x_words; ++i)
      xhat.set_word(i, xhat_w[L * kXhatWords + i]);
    out[L] = round_xhat(xhat.sext(xw), e_r - g_.frac_bits(), kBinary64,
                        hooks.rm);
  }
}

}  // namespace csfma
