#include "cs/zero_detect.hpp"

#include <bit>

#include "common/check.hpp"
#include "introspect/event_log.hpp"

namespace csfma {

BlockPattern classify_block(const CsNum& block) {
  const int n = block.width();
  bool all_zero = true, all_ones = true;
  for (int i = 0; i < n; ++i) {
    const int d = block.digit(i);
    if (d != 0) all_zero = false;
    if (d != 1) all_ones = false;
  }
  if (all_zero) return BlockPattern::AllZero;
  if (all_ones) return BlockPattern::AllOnes;
  // 1...1 2 0...0 scanning from the most significant digit: a (possibly
  // empty) run of 1s, exactly one 2, then (possibly empty) run of 0s.
  int i = n - 1;
  while (i >= 0 && block.digit(i) == 1) --i;
  if (i >= 0 && block.digit(i) == 2) {
    --i;
    while (i >= 0 && block.digit(i) == 0) --i;
    if (i < 0) return BlockPattern::OnesTwoZeros;
  }
  return BlockPattern::Other;
}

namespace {

/// Digit of x at absolute position p, or 0 beyond the window.
int digit_or_zero(const CsNum& x, int p) {
  return (p >= 0 && p < x.width()) ? x.digit(p) : 0;
}

/// May the current leading block (digits [top-B, top)) of the window
/// [0, top) be skipped?
bool leading_block_skippable(const CsNum& x, int top, int block_digits) {
  const int lo = top - block_digits;
  CSFMA_CHECK(lo >= block_digits);  // at least one block must remain
  const CsNum block = x.extract_digits(lo, block_digits);
  const BlockPattern pat = classify_block(block);
  const int d1 = digit_or_zero(x, lo - 1);  // first digit of next block
  const int d2 = digit_or_zero(x, lo - 2);  // second digit of next block
  switch (pat) {
    case BlockPattern::AllZero:
    case BlockPattern::OnesTwoZeros:
      // The block's contribution is ≡ 0 mod 2^top (for OnesTwoZeros the
      // single 2 ripples the 1s out of the window).  Skipping shrinks the
      // window; the remaining digits' unsigned weight X satisfies
      // X < 3·2^(remaining-2) < 2^(remaining-1) when the top two remaining
      // digits are 0, so the sign cannot flip (Fig 10.d safeguard).
      return d1 == 0 && d2 == 0;
    case BlockPattern::AllOnes:
      // The all-1 block contributes 2^top − 2^(top−B) ≡ −2^(top−B).  With
      // remaining weight X, full value = signed(X − 2^(top−B)); skipped
      // value = signed(X mod 2^(top−B)).  These agree iff
      // X < 3·2^(top−B−1).  d1 == 1 bounds X < 2^(top−B−1) + 2^(top−B) − 2;
      // d1 == 2 requires d2 == 0 to bound the rest below 2^(top−B−1).
      // d1 == 0 admits X < 2^(top−B−1), whose skipped value is positive
      // while the full value is negative — not skippable.
      return d1 == 1 || (d1 == 2 && d2 == 0);
    case BlockPattern::Other:
      return false;
  }
  return false;
}

/// Word-level form of leading_block_skippable for blocks of at most 63
/// digits (the datapath case: 55-digit PCS blocks): the block's digit
/// pattern and the two safeguard digits come straight out of the raw
/// planes, with the classification done on 64-bit segment masks.
bool leading_block_skippable_fast(const std::uint64_t* s,
                                  const std::uint64_t* c, int top, int B) {
  const int lo = top - B;
  const std::uint64_t sb = wide_read_bits(s, lo, B);
  const std::uint64_t cb = wide_read_bits(c, lo, B);
  const std::uint64_t ones = sb ^ cb;    // digit == 1
  const std::uint64_t twos = sb & cb;    // digit == 2
  const std::uint64_t nz = sb | cb;      // digit != 0
  const std::uint64_t all = (std::uint64_t{1} << B) - 1;
  const auto digit_at = [&](int p) {
    return (int)((s[p >> 6] >> (p & 63)) & 1) +
           (int)((c[p >> 6] >> (p & 63)) & 1);
  };
  const int d1 = digit_at(lo - 1), d2 = digit_at(lo - 2);
  if (nz == 0) return d1 == 0 && d2 == 0;                        // AllZero
  if (ones == all) return d1 == 1 || (d1 == 2 && d2 == 0);       // AllOnes
  // Exactly one 2 (a power-of-two test: std::popcount would call libgcc's
  // __popcountdi2 at the default x86-64 target).
  if (twos != 0 && (twos & (twos - 1)) == 0) {                   // 1...120...0?
    const int p = std::countr_zero(twos);
    const bool ones_above = (ones >> (p + 1)) == (all >> (p + 1));
    const bool zeros_below = (nz & ((std::uint64_t{1} << p) - 1)) == 0;
    if (ones_above && zeros_below) return d1 == 0 && d2 == 0;    // OnesTwoZeros
  }
  return false;
}

}  // namespace

int count_skippable_blocks(const CsNum& x, int block_digits, int max_skip) {
  CSFMA_CHECK(block_digits >= 2);
  CSFMA_CHECK(x.width() % block_digits == 0);
  const int blocks = x.width() / block_digits;
  CSFMA_CHECK(max_skip >= 0 && max_skip <= blocks - 1);
  int skipped = 0;
  int top = x.width();
  if (block_digits <= 63) {
    const std::uint64_t* s = x.sum().data();
    const std::uint64_t* c = x.carry().data();
    while (skipped < max_skip &&
           leading_block_skippable_fast(s, c, top, block_digits)) {
      top -= block_digits;
      ++skipped;
    }
    return skipped;
  }
  while (skipped < max_skip &&
         leading_block_skippable(x, top, block_digits)) {
    top -= block_digits;
    ++skipped;
  }
  return skipped;
}

int count_skippable_blocks(const CsNum& x, int block_digits, int max_skip,
                           EventLog* events) {
  const int k = count_skippable_blocks(x, block_digits, max_skip);
  if (events != nullptr && k < max_skip &&
      skip_preserves_value(x, block_digits, k + 1)) {
    events->raise(EventKind::ZeroDetectLate, k);
  }
  return k;
}

bool skip_preserves_value(const CsNum& x, int block_digits, int k) {
  CSFMA_CHECK(k >= 0 && k * block_digits < x.width());
  const CsNum narrowed = x.windowed(x.width() - k * block_digits);
  return narrowed.signed_value() == x.signed_value();
}

}  // namespace csfma
