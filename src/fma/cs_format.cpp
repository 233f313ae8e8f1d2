#include "fma/cs_format.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace csfma {

const char* to_string(BlockSelect s) {
  return s == BlockSelect::Zd ? "zd" : "lza";
}

bool parse_block_select(std::string_view s, BlockSelect& out) {
  if (s == "lza") {
    out = BlockSelect::Lza;
    return true;
  }
  if (s == "zd") {
    out = BlockSelect::Zd;
    return true;
  }
  return false;
}

void CsGeometry::validate() const {
  // The other widths follow from these within both families.
  CSFMA_CHECK_MSG(block_ >= 8 && block_ <= 62, "block size out of range");
  // Group 1 (no carry reduction) is the FCS family's alone.
  CSFMA_CHECK_MSG(group_ >= (mant_blocks_ == 2 ? 2 : 1) && group_ <= 63,
                  "carry spacing out of range");
  CSFMA_CHECK_MSG(block_ % group_ == 0, "carry spacing must divide the block");
  CSFMA_CHECK_MSG(adder_width() <= kCsWordBits,
                  "adder window exceeds the CsWord workspace");
  CSFMA_CHECK_MSG(mant_digits() < U128::kBits,
                  "mantissa exceeds the 128-bit lift word");
}

CsOperand::CsOperand()
    : CsOperand(make_zero(kPcsGeometry, false)) {}

CsOperand::CsOperand(const CsGeometry& g, PcsNum mant, PcsNum tail,
                     int exp_unbiased, FpClass cls, bool exc_sign)
    : g_(g),
      mant_(std::move(mant)),
      tail_(std::move(tail)),
      exp_(exp_unbiased),
      cls_(cls),
      exc_sign_(exc_sign) {
  CSFMA_CHECK(mant_.width() == g_.mant_digits() && mant_.group() == g_.group());
  CSFMA_CHECK(tail_.width() == g_.tail_digits() && tail_.group() == g_.group());
  CSFMA_CHECK_MSG(exp_ >= kCsExpMin && exp_ <= kCsExpMax,
                  "exponent outside the excess-2047 field");
}

CsOperand CsOperand::make_zero(const CsGeometry& g, bool sign) {
  return CsOperand(g, PcsNum::zero(g.mant_digits(), g.group()),
                   PcsNum::zero(g.tail_digits(), g.group()), 0, FpClass::Zero,
                   sign);
}

CsOperand CsOperand::make_inf(const CsGeometry& g, bool sign) {
  CsOperand r = make_zero(g, sign);
  r.cls_ = FpClass::Inf;
  return r;
}

CsOperand CsOperand::make_nan(const CsGeometry& g) {
  CsOperand r = make_zero(g, false);
  r.cls_ = FpClass::NaN;
  return r;
}

int CsOperand::round_increment() const {
  CSFMA_CHECK(cls_ == FpClass::Normal);
  // Half of one mantissa ulp, in tail scale: the tail covers T fractional
  // digits, so half is 2^(T-1).
  const CsWord tail = tail_assimilated();
  const CsWord half = CsWord::bit_at(g_.tail_digits() - 1);
  if (tail < half) return 0;
  if (tail > half) return 1;
  // Exact tie: round half AWAY FROM ZERO — the direction depends on the
  // sign of the value (the mantissa's two's-complement sign; a zero
  // mantissa with a positive tail is positive).
  return mant_.as_cs().is_value_negative() ? 0 : 1;
}

bool CsOperand::round_disagrees_ieee() const {
  CSFMA_CHECK(cls_ == FpClass::Normal);
  // Decompose the tail against half an ulp: guard = "at least half",
  // sticky = "strictly more" — this comparison form also covers the
  // unwrapped tail overflow case, where both modes round up.
  const CsWord tail = tail_assimilated();
  const CsWord half = CsWord::bit_at(g_.tail_digits() - 1);
  const bool guard = !(tail < half);
  const bool sticky = half < tail;
  const bool lsb = mant_.to_binary().bit(0);
  const bool negative = mant_.as_cs().is_value_negative();
  return round_disagrees_with_ieee(Round::HalfAwayFromZero, lsb, guard, sticky,
                                   negative);
}

namespace {

/// X_hat = signed(mant) * 2^T + tail in a 512-bit two's-complement
/// workspace, and the exponent of its lsb.
WideUint<8> assimilated(const CsOperand& x) {
  const CsGeometry& g = x.geometry();
  const WideUint<8> m =
      WideUint<8>(x.mant().to_binary()).sext(g.mant_digits());
  return (m << g.tail_digits()) + WideUint<8>(x.tail_assimilated());
}

}  // namespace

PFloat CsOperand::exact_value() const {
  switch (cls_) {
    case FpClass::Zero: return PFloat::zero(kWideExact, exc_sign_);
    case FpClass::Inf: return PFloat::inf(kWideExact, exc_sign_);
    case FpClass::NaN: return PFloat::nan(kWideExact);
    case FpClass::Normal: break;
  }
  return round_xhat(assimilated(*this), exp_ - g_.frac_bits(), kWideExact,
                    Round::NearestEven);
}

std::string CsOperand::to_string() const {
  std::ostringstream os;
  switch (cls_) {
    case FpClass::Zero: return exc_sign_ ? "-0" : "+0";
    case FpClass::Inf: return exc_sign_ ? "-inf" : "+inf";
    case FpClass::NaN: return "nan";
    case FpClass::Normal: break;
  }
  os << (g_.group() == 1 ? "fcs" : "pcs")
     << "{mant=" << mant_.to_binary().to_hex()
     << " tail=" << tail_assimilated().to_hex() << " exp=" << exp_ << "}";
  return os.str();
}

namespace {

/// Deposit the explicit carries of `x` (positions 0, g, 2g, ...) as
/// consecutive bits starting at `at`; returns the next free position.
int pack_carries(U192& w, const PcsNum& x, int at) {
  for (int p = 0; p < x.width(); p += x.group(), ++at) {
    if (x.carries().bit(p)) w = w.deposit(at, 1, U192::one());
  }
  return at;
}

CsWord unpack_carries(const U192& w, int width, int group, int* at) {
  CsWord c;
  for (int p = 0; p < width; p += group, ++*at) {
    if (w.bit(*at)) c = c | CsWord::bit_at(p);
  }
  return c;
}

}  // namespace

U192 CsOperand::pack_bits() const {
  CSFMA_CHECK_MSG(cls_ == FpClass::Normal,
                  "exceptions travel on side wires, not in the word");
  CSFMA_CHECK_MSG(g_.operand_bits() <= 192, "operand wider than the word");
  const int m = g_.mant_digits(), t = g_.tail_digits();
  U192 w;
  w = w.deposit(0, m, U192(WideUint<3>(mant_.sum())));
  int at = pack_carries(w, mant_, m);
  w = w.deposit(at, t, U192(WideUint<3>(tail_.sum())));
  at = pack_carries(w, tail_, at + t);
  return w.deposit(at, 12, U192((std::uint64_t)exp_field()));
}

CsOperand CsOperand::unpack_bits(const CsGeometry& g, const U192& bits) {
  const int m = g.mant_digits(), t = g.tail_digits();
  const CsWord msum = CsWord(WideUint<7>(bits.extract(0, m)));
  int at = m;
  const CsWord mcar = unpack_carries(bits, m, g.group(), &at);
  const CsWord tsum = CsWord(WideUint<7>(bits.extract(at, t)));
  at += t;
  const CsWord tcar = unpack_carries(bits, t, g.group(), &at);
  const int exp = (int)bits.extract64(at, 12) - kCsExpBias;
  return CsOperand(g, PcsNum(m, g.group(), msum, mcar),
                   PcsNum(t, g.group(), tsum, tcar), exp, FpClass::Normal,
                   false);
}

namespace {

/// Significand bits a geometry keeps: its MSB lands at mantissa digit
/// sig_msb, so small geometries truncate the low bits of a binary64
/// significand on entry.
int kept_bits(const CsGeometry& g, const PFloat& x) {
  const int p = x.format().precision();
  CSFMA_CHECK_MSG(p <= 54, "source significand too wide for the CS layout");
  return std::min(p, g.sig_msb() + 1);
}

}  // namespace

int lifted_exp(const CsGeometry& g, const PFloat& x) {
  // value = X * 2^(exp' - frac_bits) with X = sig << (shift + T) must equal
  // sig * 2^(e_lsb):  exp' = e_lsb - shift - T + frac_bits.
  const int keep = kept_bits(g, x);
  const int exp2_of_sig_lsb =
      x.exp() - x.format().frac_bits + (x.format().precision() - keep);
  const int shift = g.sig_msb() - (keep - 1);
  return exp2_of_sig_lsb - shift - g.tail_digits() + g.frac_bits();
}

LiftedSig lift_significand(const CsGeometry& g, const PFloat& x) {
  // The kept significand, MSB at digit sig_msb (< M - 1, so the magnitude
  // leaves the sign digit clear), in M-digit two's complement.
  const int keep = kept_bits(g, x);
  const U128 mag = (x.sig() >> (x.format().precision() - keep))
                   << (g.sig_msb() - (keep - 1));
  const int exp = lifted_exp(g, x);
  CSFMA_CHECK(exp >= kCsExpMin && exp <= kCsExpMax);
  return {(x.sign() ? -mag : mag).truncated(g.mant_digits()), exp};
}

CsOperand ieee_to_cs(const CsGeometry& g, const PFloat& x) {
  switch (x.cls()) {
    case FpClass::Zero: return CsOperand::make_zero(g, x.sign());
    case FpClass::Inf: return CsOperand::make_inf(g, x.sign());
    case FpClass::NaN: return CsOperand::make_nan(g);
    case FpClass::Normal: break;
  }
  const LiftedSig s = lift_significand(g, x);
  return CsOperand(g,
                   PcsNum(g.mant_digits(), g.group(), CsWord(s.mant), CsWord()),
                   PcsNum::zero(g.tail_digits(), g.group()), s.exp,
                   FpClass::Normal, x.sign());
}

PFloat cs_to_ieee(const CsOperand& x, const FloatFormat& fmt, Round rm) {
  switch (x.cls()) {
    case FpClass::Zero: return PFloat::zero(fmt, x.exc_sign());
    case FpClass::Inf: return PFloat::inf(fmt, x.exc_sign());
    case FpClass::NaN: return PFloat::nan(fmt);
    case FpClass::Normal: break;
  }
  return round_xhat(assimilated(x), x.exp() - x.geometry().frac_bits(), fmt,
                    rm);
}

PFloat round_xhat(const WideUint<8>& xhat, int exp2, const FloatFormat& fmt,
                  Round rm) {
  // A zero X̂ reads +0 (normalize_round's signed zero, sign clear).
  const bool sign = xhat.bit(WideUint<8>::kBits - 1);
  return PFloat::normalize_round(fmt, sign, sign ? -xhat : xhat, exp2, false,
                                 rm);
}

}  // namespace csfma
