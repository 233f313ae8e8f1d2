#include "fp/pfloat.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

namespace csfma {

namespace {

constexpr int kMaxFrac = 100;

void check_format(const FloatFormat& fmt) {
  CSFMA_CHECK_MSG(fmt.exp_bits >= 3 && fmt.exp_bits <= 18, "exponent width");
  CSFMA_CHECK_MSG(fmt.frac_bits >= 2 && fmt.frac_bits <= kMaxFrac,
                  "fraction width");
}

std::uint64_t double_to_bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double bits_to_double(std::uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

/// Largest finite value of a format (used on directed-mode overflow).
PFloat max_finite(const FloatFormat& fmt, bool sign) {
  U128 sig = U128::mask(fmt.precision());
  return PFloat::make_normal(fmt, sign, fmt.emax(), sig);
}

}  // namespace

PFloat PFloat::zero(const FloatFormat& fmt, bool negative) {
  check_format(fmt);
  return PFloat(fmt, FpClass::Zero, negative, 0, U128());
}

PFloat PFloat::inf(const FloatFormat& fmt, bool negative) {
  check_format(fmt);
  return PFloat(fmt, FpClass::Inf, negative, 0, U128());
}

PFloat PFloat::nan(const FloatFormat& fmt) {
  check_format(fmt);
  return PFloat(fmt, FpClass::NaN, false, 0, U128());
}

PFloat PFloat::make_normal(const FloatFormat& fmt, bool sign, int exp, U128 sig) {
  check_format(fmt);
  CSFMA_CHECK_MSG(exp >= fmt.emin() && exp <= fmt.emax(), "exponent range");
  CSFMA_CHECK_MSG(sig.bit_width() == fmt.precision(), "significand not normalized");
  return PFloat(fmt, FpClass::Normal, sign, exp, sig);
}

int PFloat::exp() const {
  CSFMA_CHECK(cls_ == FpClass::Normal);
  return exp_;
}

U128 PFloat::sig() const {
  CSFMA_CHECK(cls_ == FpClass::Normal);
  return sig_;
}

PFloat PFloat::negated() const {
  PFloat r = *this;
  if (cls_ != FpClass::NaN) r.sign_ = !r.sign_;
  return r;
}

PFloat PFloat::abs() const {
  PFloat r = *this;
  if (cls_ != FpClass::NaN) r.sign_ = false;
  return r;
}

PFloat PFloat::normalize_round(const FloatFormat& fmt, bool sign,
                               WideUint<8> mag, int exp2, bool sticky,
                               Round rm) {
  check_format(fmt);
  const int p = fmt.precision();
  if (mag.is_zero()) {
    // Any sticky residue alone is below the smallest normal: flush.
    return zero(fmt, sign);
  }
  const int bw = mag.bit_width();
  CSFMA_CHECK_MSG(!sticky || bw >= p,
                  "sticky with an under-precise magnitude is ambiguous");

  U128 kept;
  bool guard = false;
  int e = exp2 + bw - 1;  // unbiased exponent of the leading bit
  if (bw > p) {
    const int shift = bw - p;
    kept = U128(mag >> shift);
    guard = mag.bit(shift - 1);
    if (shift > 1) sticky = sticky || !mag.truncated(shift - 1).is_zero();
  } else {
    kept = U128(mag) << (p - bw);
  }

  if (round_increments(rm, kept.bit(0), guard, sticky, sign)) {
    kept += U128::one();
    if (kept.bit(p)) {  // rounding overflow: 0b1000...0 of p+1 bits
      kept >>= 1;
      ++e;
    }
  }

  if (e > fmt.emax()) {
    switch (rm) {
      case Round::NearestEven:
      case Round::HalfAwayFromZero:
        return inf(fmt, sign);
      case Round::TowardZero:
        return max_finite(fmt, sign);
      case Round::TowardPositive:
        return sign ? max_finite(fmt, true) : inf(fmt, false);
      case Round::TowardNegative:
        return sign ? inf(fmt, true) : max_finite(fmt, false);
    }
  }
  if (e < fmt.emin()) {
    // No subnormals (Sec. II): flush to zero.
    return zero(fmt, sign);
  }
  return make_normal(fmt, sign, e, kept);
}

PFloat PFloat::from_double(const FloatFormat& fmt, double d, Round rm) {
  check_format(fmt);
  const std::uint64_t bits = double_to_bits(d);
  const bool sign = bits >> 63;
  const int biased = (int)((bits >> 52) & 0x7FF);
  const std::uint64_t frac = bits & ((1ULL << 52) - 1);
  if (biased == 0x7FF) {
    return frac == 0 ? inf(fmt, sign) : nan(fmt);
  }
  if (biased == 0) return zero(fmt, sign);  // zero and subnormals flush
  const std::uint64_t sig = frac | (1ULL << 52);
  if (fmt.frac_bits >= 52 && fmt.emin() <= -1022 && fmt.emax() >= 1023) {
    // The format holds every binary64 normal exactly: nothing to round.
    return make_normal(fmt, sign, biased - 1023,
                       U128(sig) << (fmt.frac_bits - 52));
  }
  return normalize_round(fmt, sign, WideUint<8>(sig), biased - 1023 - 52, false,
                         rm);
}

double PFloat::to_double(Round rm) const {
  const PFloat r = round_to(kBinary64, rm);
  switch (r.cls_) {
    case FpClass::Zero:
      return r.sign_ ? -0.0 : 0.0;
    case FpClass::Inf:
      return r.sign_ ? -HUGE_VAL : HUGE_VAL;
    case FpClass::NaN:
      return std::nan("");
    case FpClass::Normal: {
      std::uint64_t frac = r.sig_.lo64() & ((1ULL << 52) - 1);
      std::uint64_t biased = (std::uint64_t)(r.exp_ + 1023);
      std::uint64_t bits = ((std::uint64_t)r.sign_ << 63) | (biased << 52) | frac;
      return bits_to_double(bits);
    }
  }
  CSFMA_CHECK(false);
  return 0.0;
}

PFloat PFloat::round_to(const FloatFormat& out_fmt, Round rm) const {
  switch (cls_) {
    case FpClass::Zero:
      return zero(out_fmt, sign_);
    case FpClass::Inf:
      return inf(out_fmt, sign_);
    case FpClass::NaN:
      return nan(out_fmt);
    case FpClass::Normal:
      return normalize_round(out_fmt, sign_, WideUint<8>(sig_),
                             exp_ - fmt_.frac_bits, false, rm);
  }
  CSFMA_CHECK(false);
  return nan(out_fmt);
}

U128 PFloat::to_bits() const {
  const int eb = fmt_.exp_bits, fb = fmt_.frac_bits;
  U128 bits;
  switch (cls_) {
    case FpClass::Zero:
      break;  // biased exp 0, fraction 0
    case FpClass::Inf:
      bits = U128::mask(eb) << fb;
      break;
    case FpClass::NaN:
      bits = U128::mask(eb) << fb;
      bits.set_bit(fb - 1, true);  // quiet-NaN style payload
      break;
    case FpClass::Normal: {
      U128 frac = sig_ & U128::mask(fb);
      U128 biased((std::uint64_t)(exp_ + fmt_.bias()));
      bits = frac | (biased << fb);
      break;
    }
  }
  if (sign_ && cls_ != FpClass::NaN) bits.set_bit(eb + fb, true);
  return bits;
}

PFloat PFloat::from_bits(const FloatFormat& fmt, U128 bits) {
  check_format(fmt);
  const int eb = fmt.exp_bits, fb = fmt.frac_bits;
  const bool sign = bits.bit(eb + fb);
  const std::uint64_t biased = bits.extract64(fb, eb);
  const U128 frac = bits.extract(0, fb);
  const std::uint64_t emax_biased = (1ULL << eb) - 1;
  if (biased == emax_biased) {
    return frac.is_zero() ? inf(fmt, sign) : nan(fmt);
  }
  if (biased == 0) return zero(fmt, sign);  // subnormal patterns flush
  U128 sig = frac | U128::bit_at(fb);
  return make_normal(fmt, sign, (int)biased - fmt.bias(), sig);
}

namespace {

/// Signed fixed-point accumulator entry: value = (-1)^sign * mag * 2^lsb_exp.
struct Scaled {
  bool sign;
  WideUint<8> mag;
  int lsb_exp;
};

/// Exact signed sum of two scaled magnitudes whose alignment distance has
/// been verified to fit the workspace.  Returns sign + magnitude + lsb_exp.
Scaled exact_sum(const Scaled& x, const Scaled& y) {
  const int l = std::min(x.lsb_exp, y.lsb_exp);
  const WideUint<8> mx = x.mag << (x.lsb_exp - l);
  const WideUint<8> my = y.mag << (y.lsb_exp - l);
  // Guard against silent overflow of the workspace: the shifted operands
  // must not have lost their top bits.
  CSFMA_CHECK((mx >> (x.lsb_exp - l)) == x.mag);
  CSFMA_CHECK((my >> (y.lsb_exp - l)) == y.mag);
  Scaled r;
  r.lsb_exp = l;
  if (x.sign == y.sign) {
    r.sign = x.sign;
    r.mag = mx + my;
    CSFMA_CHECK(r.mag >= mx);  // no wraparound
  } else if (mx >= my) {
    r.sign = x.sign;
    r.mag = mx - my;
  } else {
    r.sign = y.sign;
    r.mag = my - mx;
  }
  return r;
}

/// Guard shift used when a dominated operand is folded into sticky.  It must
/// exceed the widest supported precision so that the guard bit position of
/// any output format still lies inside the explicit magnitude.
constexpr int kDominateGuard = 100;

/// Exact alignment is used up to this lsb-exponent gap; beyond it the small
/// operand lies entirely below the dominating one's guard range
/// (gap > product width 202 + kDominateGuard) and folds into sticky.
/// 305 + 202 = 507 bits keeps the workspace within WideUint<8>.
constexpr int kAlignCap = 305;

/// When |x| utterly dominates |y| (alignment gap > kAlignCap), fold y into a
/// guard/sticky tail of x.  Preconditions: both magnitudes non-zero,
/// x.lsb_exp - y.lsb_exp > kAlignCap.
Scaled dominate_with_sticky(const Scaled& x, const Scaled& y, bool* sticky) {
  Scaled r;
  r.sign = x.sign;
  if (x.sign == y.sign) {
    r.mag = x.mag << kDominateGuard;
  } else {
    // Borrow: x - epsilon.  Represent as (x<<G) - 1 with sticky set, which
    // keeps the guard/round bits of the true result ("11...1" tail).
    r.mag = (x.mag << kDominateGuard) - WideUint<8>::one();
  }
  r.lsb_exp = x.lsb_exp - kDominateGuard;
  *sticky = true;
  CSFMA_CHECK((x.mag << kDominateGuard) >> kDominateGuard == x.mag);
  return r;
}

PFloat add_signed_zero(const FloatFormat& out_fmt, bool sa, bool sb, Round rm) {
  // IEEE 754 sum-of-zeros sign rules.
  if (sa == sb) return PFloat::zero(out_fmt, sa);
  return PFloat::zero(out_fmt, rm == Round::TowardNegative);
}

}  // namespace

PFloat PFloat::add(const PFloat& a, const PFloat& b, const FloatFormat& out_fmt,
                   Round rm) {
  if (a.is_nan() || b.is_nan()) return nan(out_fmt);
  if (a.is_inf() || b.is_inf()) {
    if (a.is_inf() && b.is_inf() && a.sign() != b.sign()) return nan(out_fmt);
    return inf(out_fmt, a.is_inf() ? a.sign() : b.sign());
  }
  if (a.is_zero() && b.is_zero()) return add_signed_zero(out_fmt, a.sign(), b.sign(), rm);
  if (a.is_zero()) return b.round_to(out_fmt, rm);
  if (b.is_zero()) return a.round_to(out_fmt, rm);

  Scaled x{a.sign(), WideUint<8>(a.sig()), a.exp() - a.format().frac_bits};
  Scaled y{b.sign(), WideUint<8>(b.sig()), b.exp() - b.format().frac_bits};
  bool sticky = false;
  Scaled s;
  if (std::abs(x.lsb_exp - y.lsb_exp) <= kAlignCap) {
    s = exact_sum(x, y);
  } else if (x.lsb_exp > y.lsb_exp) {
    s = dominate_with_sticky(x, y, &sticky);
  } else {
    s = dominate_with_sticky(y, x, &sticky);
  }
  if (s.mag.is_zero() && !sticky) {
    // Exact cancellation: IEEE says +0 except in toward-negative mode.
    return zero(out_fmt, rm == Round::TowardNegative);
  }
  return normalize_round(out_fmt, s.sign, s.mag, s.lsb_exp, sticky, rm);
}

PFloat PFloat::sub(const PFloat& a, const PFloat& b, const FloatFormat& out_fmt,
                   Round rm) {
  return add(a, b.negated(), out_fmt, rm);
}

PFloat PFloat::mul(const PFloat& a, const PFloat& b, const FloatFormat& out_fmt,
                   Round rm) {
  if (a.is_nan() || b.is_nan()) return nan(out_fmt);
  const bool sign = a.sign() != b.sign();
  if (a.is_inf() || b.is_inf()) {
    if (a.is_zero() || b.is_zero()) return nan(out_fmt);
    return inf(out_fmt, sign);
  }
  if (a.is_zero() || b.is_zero()) return zero(out_fmt, sign);

  WideUint<4> prod = a.sig().mul_full<2>(b.sig());
  const int lsb_exp = (a.exp() - a.format().frac_bits) +
                      (b.exp() - b.format().frac_bits);
  return normalize_round(out_fmt, sign, WideUint<8>(prod), lsb_exp, false, rm);
}

PFloat PFloat::div(const PFloat& a, const PFloat& b, const FloatFormat& out_fmt,
                   Round rm) {
  if (a.is_nan() || b.is_nan()) return nan(out_fmt);
  const bool sign = a.sign() != b.sign();
  if (a.is_inf()) return b.is_inf() ? nan(out_fmt) : inf(out_fmt, sign);
  if (b.is_inf()) return zero(out_fmt, sign);
  if (b.is_zero()) return a.is_zero() ? nan(out_fmt) : inf(out_fmt, sign);
  if (a.is_zero()) return zero(out_fmt, sign);

  // Long division with enough quotient bits for a single correct rounding:
  // shift the dividend so the quotient has at least precision+2 bits.
  const int qbits = out_fmt.precision() + 2;
  const int shift = qbits + b.format().precision();
  WideUint<8> num = WideUint<8>(a.sig()) << shift;
  auto [q, r] = divmod(num, WideUint<8>(b.sig()));
  const bool sticky = !r.is_zero();
  const int lsb_exp = (a.exp() - a.format().frac_bits) -
                      (b.exp() - b.format().frac_bits) - shift;
  return normalize_round(out_fmt, sign, q, lsb_exp, sticky, rm);
}

PFloat PFloat::fma(const PFloat& a, const PFloat& b, const PFloat& c,
                   const FloatFormat& out_fmt, Round rm) {
  if (a.is_nan() || b.is_nan() || c.is_nan()) return nan(out_fmt);
  const bool psign = a.sign() != b.sign();
  const bool p_inf = a.is_inf() || b.is_inf();
  if (p_inf && (a.is_zero() || b.is_zero())) return nan(out_fmt);
  if (p_inf) {
    if (c.is_inf() && c.sign() != psign) return nan(out_fmt);
    return inf(out_fmt, psign);
  }
  if (c.is_inf()) return inf(out_fmt, c.sign());
  if (a.is_zero() || b.is_zero()) {
    if (c.is_zero()) return add_signed_zero(out_fmt, psign, c.sign(), rm);
    return c.round_to(out_fmt, rm);
  }
  if (c.is_zero()) return mul(a, b, out_fmt, rm);

  // Exact product.
  WideUint<4> prod = a.sig().mul_full<2>(b.sig());
  Scaled x{psign, WideUint<8>(prod),
           (a.exp() - a.format().frac_bits) + (b.exp() - b.format().frac_bits)};
  Scaled y{c.sign(), WideUint<8>(c.sig()), c.exp() - c.format().frac_bits};

  bool sticky = false;
  Scaled s;
  if (std::abs(x.lsb_exp - y.lsb_exp) <= kAlignCap) {
    s = exact_sum(x, y);
  } else if (x.lsb_exp > y.lsb_exp) {
    s = dominate_with_sticky(x, y, &sticky);
  } else {
    s = dominate_with_sticky(y, x, &sticky);
  }
  if (s.mag.is_zero() && !sticky) {
    return zero(out_fmt, rm == Round::TowardNegative);
  }
  return normalize_round(out_fmt, s.sign, s.mag, s.lsb_exp, sticky, rm);
}

bool PFloat::same_value(const PFloat& a, const PFloat& b) {
  if (a.cls() == FpClass::NaN || b.cls() == FpClass::NaN) return false;
  if (a.cls() != b.cls()) return false;
  switch (a.cls()) {
    case FpClass::Zero:
      return true;  // +0 == -0
    case FpClass::Inf:
      return a.sign() == b.sign();
    case FpClass::Normal:
      return a.sign() == b.sign() && a.exp_ == b.exp_ && a.sig_ == b.sig_;
    case FpClass::NaN:
      break;
  }
  return false;
}

double PFloat::ulp_error(const PFloat& a, const PFloat& b, int ulp_frac_bits) {
  if (a.is_nan() || b.is_nan()) return HUGE_VAL;
  if (a.is_inf() || b.is_inf()) {
    // Two infinities of the same sign agree exactly.
    return (a.is_inf() && b.is_inf() && a.sign() == b.sign()) ? 0.0 : HUGE_VAL;
  }
  if (b.is_zero()) {
    if (a.is_zero()) return 0.0;
    return HUGE_VAL;  // no ulp scale available
  }
  Scaled x{a.sign(), a.is_zero() ? WideUint<8>() : WideUint<8>(a.sig()),
           a.is_zero() ? b.exp() : a.exp() - a.format().frac_bits};
  Scaled y{!b.sign(), WideUint<8>(b.sig()), b.exp() - b.format().frac_bits};
  const int l = std::min(x.lsb_exp, y.lsb_exp);
  // For an error *metric* a saturating wide subtraction is fine; the check
  // in exact_sum would reject huge misalignments, so do it manually.
  const int sx = x.lsb_exp - l, sy = y.lsb_exp - l;
  if (sx > 300 || sy > 300) return HUGE_VAL;
  WideUint<8> mx = x.mag << sx, my = y.mag << sy;
  WideUint<8> diff = (mx >= my) ? mx - my : my - mx;
  if (x.sign == y.sign) diff = mx + my;  // same "signed" sign means a-b adds
  // ulp scale: 2^(exp_b - ulp_frac_bits); diff is scaled by 2^l.
  return std::ldexp(diff.to_double(), l - (b.exp() - ulp_frac_bits));
}

std::string PFloat::to_string() const {
  std::ostringstream os;
  switch (cls_) {
    case FpClass::Zero:
      os << (sign_ ? "-0" : "+0");
      break;
    case FpClass::Inf:
      os << (sign_ ? "-inf" : "+inf");
      break;
    case FpClass::NaN:
      os << "nan";
      break;
    case FpClass::Normal:
      os << (sign_ ? '-' : '+') << sig_.to_hex() << "p" << (exp_ - fmt_.frac_bits);
      break;
  }
  os << " [e" << fmt_.exp_bits << "f" << fmt_.frac_bits << "]";
  return os.str();
}

}  // namespace csfma
