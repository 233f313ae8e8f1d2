#include "fma/classic_fma.hpp"

#include <algorithm>
#include <cstdlib>

#include "cs/csa_tree.hpp"
#include "cs/lza.hpp"
#include "engine/slice.hpp"
#include "introspect/event_log.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {

namespace {
/// Adder window of the classic double-precision FMA: 53b addend left of a
/// 106b carry-save product plus guard/round — the paper's "161b adder".
constexpr int kWindow = 161;
constexpr int kProductLsb = 0;
/// The 53x53 multiplier in DSP tiles: C's significand widened to 54 digits
/// (so the signed window keeps it positive) in 17-bit slices times B's in
/// 24-bit slices, 4 x 3 = 12 tiles.
constexpr slice::TileGeometry kMultiplier{54, 17, 53, 24, kWindow,
                                          kProductLsb};
/// Largest |e_A - e_P| the addend pre-shift places in the window; beyond
/// it the adder, LZA and normalization stages stay idle.
constexpr int kMaxAlign = 60;
/// Planes per lane of an aligned addend row.
constexpr int kWindowWords = (kWindow + 63) / 64;
/// Leading sign run at which the event log reports a cancellation.
constexpr int kCancellationRun = 100;

/// The pre-shifted addend row for e_A - e_P = d: A's signed significand
/// with its lsb d + 52 above the product's, in the window (mod 2^kWindow).
CsWord place_addend(const PFloat& a, int d) {
  const int ofs = d + 52;
  WideUint<8> a_val = WideUint<8>(WideUint<2>(a.sig()));
  if (a.sign()) a_val = -a_val;
  const WideUint<8> placed = ofs >= 0 ? a_val << ofs : a_val >> -ofs;
  return CsWord(placed).truncated(kWindow);
}

/// How far an operation runs the activity datapath, as the scalar fma()
/// and the sliced block both decide it: the multiplier needs three normal
/// operands, and the adder, LZA and normalizer an addend the pre-shift
/// reaches.  Every other operation observes no probe.
struct Reach {
  enum Kind { kNone, kMultiplier, kDatapath } kind = kNone;
  int d = 0;  // e_A - e_P, the addend's pre-shift, past kNone
};
Reach reach(const PFloat& a, const PFloat& b, const PFloat& c) {
  if (!a.is_normal() || !b.is_normal() || !c.is_normal()) return {};
  const int d = a.exp() - (b.exp() + c.exp());
  return {std::abs(d) <= kMaxAlign ? Reach::kDatapath : Reach::kMultiplier, d};
}
}  // namespace

PFloat ClassicFma::fma(const PFloat& a, const PFloat& b, const PFloat& c) {
  SignalTap* tap = hooks_ != nullptr ? hooks_->tap : nullptr;
  EventLog* events = hooks_ != nullptr ? hooks_->events : nullptr;
  // The architectural steps below drive the activity probes and the
  // normalization-distance bookkeeping; the returned value is the correctly
  // rounded fused result the architecture computes.
  const Reach r = reach(a, b, c);
  if (r.kind != Reach::kNone) {
    // Multiplier: 53x53 in carry-save (the classic LUT/DSP CSA tree).
    // The multiplicand is unsigned — widen by one digit so the signed
    // window semantics keep it positive.
    const slice::TileGeometry& m = kMultiplier;
    CsNum mant_c = CsNum::from_binary(
        m.cand_width, CsWord(WideUint<7>(WideUint<2>(c.sig()))));
    CsNum product = multiply_dsp_tiled(
        mant_c, CsWord(WideUint<7>(WideUint<2>(b.sig()))), m.mult_width,
        m.cand_chunk, m.mult_chunk, m.width, m.offset, nullptr);
    if (probes_) {
      probes_[kMulSum].observe(product.sum());
      probes_[kMulCarry].observe(product.carry());
    }
    if (tap != nullptr) {
      tap->begin_stage("mul");
      tap->tap("mul.sum", product.sum(), kWindow);
      tap->tap("mul.carry", product.carry(), kWindow);
    }
    if (r.kind == Reach::kDatapath) {
      // Addend pre-shift (runs in parallel with the multiply).
      const CsWord a_row = place_addend(a, r.d);
      if (b.sign() != c.sign()) product = cs_negate(product);
      CsNum adder = compress3(kWindow, product.sum(), product.carry(), a_row);
      if (probes_) {
        probes_[kAddSum].observe(adder.sum());
        probes_[kAddCarry].observe(adder.carry());
      }
      if (tap != nullptr) {
        tap->begin_stage("add");
        tap->tap("add.ashift", a_row, kWindow);
        tap->tap("add.sum", adder.sum(), kWindow);
        tap->tap("add.carry", adder.carry(), kWindow);
      }
      // LZA runs in parallel with the carry-propagate assimilation and
      // steers the variable-distance normalization shifter.
      last_norm_shift_ = lza_estimate(adder, events);
      CsWord assimilated = adder.to_binary();
      if (probes_) {
        probes_[kNorm].observe(assimilated);
      }
      if (tap != nullptr) {
        tap->begin_stage("norm");
        tap->tap_u64("norm.shift", (std::uint64_t)last_norm_shift_, 8);
        tap->tap("norm.assimilated", assimilated, kWindow);
      }
      if (events != nullptr) {
        // Catastrophic cancellation: the sum lost far more leading digits
        // than any alignment explains — the numerically delicate case.
        const int run = leading_sign_run(adder);
        if (run >= kCancellationRun) {
          events->raise(EventKind::Cancellation, run);
        }
      }
    }
  }
  return PFloat::fma(b, c, a, kBinary64, Round::NearestEven);
}

void ClassicFma::fma_ieee_batch(const OperandTriple* ops, std::size_t n,
                                PFloat* out, const FmaBatchHooks& hooks) {
  if (hooks_ != nullptr && hooks_->tap != nullptr) {
    // A SignalTap traces one operation at a time.
    for (std::size_t i = 0; i < n; ++i) {
      hooks.begin_op(i, ops[i]);
      out[i] = fma(ops[i].a, ops[i].b, ops[i].c).round_to(kBinary64, hooks.rm);
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

void ClassicFma::fma_block(const OperandTriple* ops, int n, PFloat* out,
                           const FmaBatchHooks& hooks) {
  // ---- per lane: how far it runs (reach()), then tile products, B*C's
  //      sign and the aligned addend row for the stages it reaches.  A
  //      stage a lane does not reach reads zero tiles and a zero row for
  //      it, written only when the stage runs. ----
  std::int64_t tiles[kMultiplier.tiles() * slice::kLanes];
  std::uint64_t a_rows[slice::kLanes * kWindowWords];
  std::uint64_t neg_mask = 0;
  std::uint64_t fired = 0;     // lanes that run the multiplier
  std::uint64_t datapath = 0;  // lanes that run every stage
  for (int L = 0; L < n; ++L) {
    const PFloat& a = ops[L].a;
    const PFloat& b = ops[L].b;
    const PFloat& c = ops[L].c;
    const std::uint64_t lane = std::uint64_t{1} << L;
    const Reach r = reach(a, b, c);
    if (r.kind == Reach::kNone) continue;
    fired |= lane;
    const std::uint64_t c_sig = c.sig().lo64();
    slice::tile_products(kMultiplier, &c_sig, b.sig().lo64(), L, tiles);
    if (r.kind != Reach::kDatapath) continue;
    datapath |= lane;
    if (b.sign() != c.sign()) neg_mask |= lane;
    const CsWord row = place_addend(a, r.d);
    std::copy(row.data(), row.data() + kWindowWords, a_rows + L * kWindowWords);
  }

  // ---- planes, all lanes per word op: the multiplier (observed before
  //      the sign is applied, as the scalar path observes it), the 3:2
  //      adder with the addend, the LZA and the assimilated sum; each stage
  //      runs if any lane reaches it ----
  std::uint16_t est[slice::kLanes] = {}, run[slice::kLanes] = {};
  EventLog* events = hooks.events;
  if (fired != 0) {
    for (int L = 0; L < n; ++L)
      if (((fired >> L) & 1u) == 0)
        for (int t = 0; t < kMultiplier.tiles(); ++t)
          tiles[t * slice::kLanes + L] = 0;
    std::uint64_t rows[kMultiplier.tiles() * kMultiplier.row_planes()];
    std::uint64_t ps[kWindow], pc[kWindow];
    slice::tiled_multiply(kMultiplier, tiles, n, rows, ps, pc);
    if (probes_) {
      probes_[kMulSum].observe_planes(ps, kWindow, fired);
      probes_[kMulCarry].observe_planes(pc, kWindow, fired);
    }
    if (datapath != 0) {
      for (int L = 0; L < n; ++L)
        if (((datapath >> L) & 1u) == 0)
          std::fill(a_rows + L * kWindowWords, a_rows + (L + 1) * kWindowWords,
                    std::uint64_t{0});
      std::uint64_t ar[kWindow], as[kWindow], ac[kWindow];
      slice::cs_negate(kWindow, neg_mask, ps, pc);
      slice::pack_words(a_rows, kWindowWords, n, kWindow, ar);
      slice::compress3(kWindow, ps, pc, ar, as, ac);
      if (probes_) {
        probes_[kAddSum].observe_planes(as, kWindow, datapath);
        probes_[kAddCarry].observe_planes(ac, kWindow, datapath);
      }
      // lza_estimate leaves the assimilated planes at the front of its
      // scratch.
      std::uint64_t lza_scratch[2 * kWindow];
      const std::uint64_t* assimilated = lza_scratch;
      slice::lza_estimate(kWindow, as, ac, n, est, lza_scratch);
      if (probes_) {
        probes_[kNorm].observe_planes(assimilated, kWindow, datapath);
      }
      if (events != nullptr)
        slice::leading_sign_run(kWindow, assimilated, n, run);
    }
  }

  // ---- per-lane readout in operation order ----
  for (int L = 0; L < n; ++L) {
    hooks.begin_op(L, ops[L]);
    if (((datapath >> L) & 1u) != 0) {
      if (events != nullptr) {
        if (run[L] != est[L]) {
          events->raise(EventKind::LzaMispredict, run[L] - est[L]);
        }
        if (run[L] >= kCancellationRun) {
          events->raise(EventKind::Cancellation, run[L]);
        }
      }
      last_norm_shift_ = est[L];
    }
    out[L] = PFloat::fma(ops[L].b, ops[L].c, ops[L].a, kBinary64,
                         Round::NearestEven)
                 .round_to(kBinary64, hooks.rm);
  }
}

}  // namespace csfma
