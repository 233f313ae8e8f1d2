#include "fma/dot_product.hpp"

#include <algorithm>
#include <climits>

#include "common/check.hpp"
#include "cs/zero_detect.hpp"

namespace csfma {

namespace {

constexpr const CsGeometry& G = kPcsGeometry;

/// The largest product's msb is anchored at this window bit, leaving the
/// same guard headroom the PCS-FMA adder has; the sum of up to 2^13 terms
/// cannot overflow the 385b signed window.
constexpr int kAnchorMsb = 270;

/// Arithmetic shift right on the full 512-bit workspace.
WideUint<8> asr(const WideUint<8>& v, int k) {
  const bool neg = v.bit(WideUint<8>::kBits - 1);
  if (k >= WideUint<8>::kBits) return neg ? ~WideUint<8>() : WideUint<8>();
  WideUint<8> r = v >> k;
  if (neg) r = r | ~WideUint<8>::mask(WideUint<8>::kBits - k);
  return r;
}

}  // namespace

CsOperand PcsDotProduct::dot(
    const std::vector<std::pair<PFloat, PFloat>>& terms) {
  // ---- exception side-wires ----
  bool any_nan = false, pos_inf = false, neg_inf = false;
  for (const auto& [a, b] : terms) {
    if (a.is_nan() || b.is_nan()) any_nan = true;
    if (a.is_inf() || b.is_inf()) {
      if (a.is_zero() || b.is_zero()) {
        any_nan = true;  // inf * 0
      } else {
        (a.sign() != b.sign() ? neg_inf : pos_inf) = true;
      }
    }
  }
  if (any_nan || (pos_inf && neg_inf)) return CsOperand::make_nan(G);
  if (pos_inf) return CsOperand::make_inf(G, false);
  if (neg_inf) return CsOperand::make_inf(G, true);

  // ---- exact products with their lsb exponents ----
  struct Prod {
    WideUint<4> mag;  // |sig_a * sig_b|, up to 106 bits
    bool neg;
    int lsb_exp;
  };
  // Accumulator-sized stack workspace for the common case; heap beyond.
  Prod prods_stack[64];
  std::vector<Prod> prods_heap;
  Prod* prods = prods_stack;
  if (terms.size() > 64) {
    prods_heap.resize(terms.size());
    prods = prods_heap.data();
  }
  int n_prods = 0;
  int max_msb = INT_MIN;
  for (const auto& [a, b] : terms) {
    if (!a.is_normal() || !b.is_normal()) continue;  // zero terms drop out
    Prod& p = prods[n_prods++];
    p.mag = a.sig().mul_full<2>(b.sig());
    p.neg = a.sign() != b.sign();
    p.lsb_exp = (a.exp() - a.format().frac_bits) +
                (b.exp() - b.format().frac_bits);
    max_msb = std::max(max_msb, p.lsb_exp + p.mag.bit_width() - 1);
  }
  if (n_prods == 0) return CsOperand::make_zero(G, false);

  // ---- align into the shared window and reduce with one CSA tree ----
  const int w0 = max_msb - kAnchorMsb;  // exponent of window bit 0
  const int width = G.adder_width();
  const CsWord wmask = CsWord::mask(width);
  CsWord rows_stack[64];
  std::vector<CsWord> rows_heap;
  CsWord* rows = rows_stack;
  if (n_prods > 64) {
    rows_heap.resize((size_t)n_prods);
    rows = rows_heap.data();
  }
  for (int i = 0; i < n_prods; ++i) {
    const Prod& p = prods[i];
    const int sh = p.lsb_exp - w0;
    // Far-below terms truncate off the window bottom (fused-accumulator
    // behaviour); the arithmetic shift keeps the sign fill.
    if ((p.mag.word(2) | p.mag.word(3) | (p.mag.word(1) >> 62)) == 0) {
      // Fast placement for magnitudes below 2^126 (every standard-format
      // product): place/shift the two magnitude words directly, then
      // negate within the window — identical to the full-width
      // sign-extend-shift-truncate formulation since -(m << sh) = (-m) << sh
      // (mod 2^W) and asr(-m, k) = -ceil(m / 2^k).
      const unsigned __int128 mag =
          ((unsigned __int128)p.mag.word(1) << 64) | p.mag.word(0);
      CsWord row;
      if (sh >= 0) {
        std::uint64_t* rw = row.data();
        const std::uint64_t m0 = (std::uint64_t)mag;
        const std::uint64_t m1 = (std::uint64_t)(mag >> 64);
        const int wi = sh >> 6, b = sh & 63;
        rw[wi] = m0 << b;
        if (b != 0) {
          rw[wi + 1] = (m0 >> (64 - b)) | (m1 << b);
          rw[wi + 2] = m1 >> (64 - b);
        } else {
          rw[wi + 1] = m1;
        }
      } else {
        const int k = -sh;
        unsigned __int128 q;
        if (k >= 128) {
          // Magnitudes are < 2^126 < 2^k: floor is 0, ceil is 1.
          q = p.neg ? 1 : 0;
        } else if (p.neg) {
          q = (mag + (((unsigned __int128)1 << k) - 1)) >> k;  // ceil
        } else {
          q = mag >> k;  // floor
        }
        row.set_word(0, (std::uint64_t)q);
        row.set_word(1, (std::uint64_t)(q >> 64));
      }
      if (p.neg) row = -row;
      rows[i] = row & wmask;
    } else {
      WideUint<8> v(p.mag);
      if (p.neg) v = -v;
      WideUint<8> placed = sh >= 0 ? (v << sh) : asr(v, -sh);
      rows[i] = CsWord(placed) & wmask;
    }
  }
  CsNum acc = reduce_rows_inplace(width, rows, n_prods, &tree_stats_);
  if (probes_) {
    probes_[kDotSum].observe(acc.sum());
    probes_[kDotCarry].observe(acc.carry());
  }

  // ---- Carry Reduce + ZD + 6:1 mux, exactly the PCS-FMA back end ----
  PcsNum reduced = carry_reduce(acc, G.group());
  const int k =
      count_skippable_blocks(reduced.as_cs(), G.block(), G.max_skip());
  const int mant_lo = (G.max_skip() - k) * G.block();
  PcsNum mant = reduced.extract_digits(mant_lo, G.mant_digits());
  PcsNum tail = PcsNum::zero(G.tail_digits(), G.group());
  if (mant_lo >= G.block()) {
    tail = reduced.extract_digits(mant_lo - G.block(), G.tail_digits());
  }
  if (mant.to_binary().is_zero() && tail.to_binary().is_zero()) {
    return CsOperand::make_zero(G, false);
  }
  // value = Y * 2^w0; mant digit 0 at window bit mant_lo; operand semantics
  // give weight 2^(e_r - sig_msb) to mant digit 0.
  const int e_r = w0 + mant_lo + G.sig_msb();
  if (e_r > kCsExpMax) {
    return CsOperand::make_inf(G, mant.as_cs().is_value_negative());
  }
  if (e_r < kCsExpMin) {
    return CsOperand::make_zero(G, mant.as_cs().is_value_negative());
  }
  return CsOperand(G, mant, tail, e_r, FpClass::Normal, false);
}

PFloat PcsDotProduct::dot_ieee(
    const std::vector<std::pair<PFloat, PFloat>>& terms, Round rm) {
  return cs_to_ieee(dot(terms), kBinary64, rm);
}

}  // namespace csfma
