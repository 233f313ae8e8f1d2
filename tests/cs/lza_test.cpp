// The LZA bound — lza_estimate <= leading_sign_run <= lza_estimate + 1 —
// is verified exhaustively for small widths and randomly at datapath widths.
// The FCS-FMA block-selection margin (Sec. III-G/H) assumes exactly this
// one-bit uncertainty.
#include "cs/lza.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "introspect/event_log.hpp"

namespace csfma {
namespace {

// ---- the bit-at-a-time scans the word-level runs replaced, kept
//      verbatim as their reference ----

int bit_scan_leading_sign_run(const CsNum& x) {
  const int w = x.width();
  const CsWord v = x.to_binary();
  const bool sign = v.bit(w - 1);
  int run = 0;
  for (int i = w - 2; i >= 0 && v.bit(i) == sign; --i) ++run;
  // `run` bits below the MSB equal the sign, so the window can shrink by
  // `run` bits; cap at w-1 (one digit always remains).
  return run > w - 1 ? w - 1 : run;
}

int bit_scan_lza_estimate(const CsNum& x) {
  const int w = x.width();
  const CsWord a = x.sum(), b = x.carry();
  const CsWord s = (a + b).truncated(w);
  // Carry-in vector of the assimilation: carry_i = s_i ^ a_i ^ b_i.
  const CsWord carry_in = (s ^ a ^ b).truncated(w);

  const bool sign = s.bit(w - 1);
  int boundary = -1;  // highest position whose bit differs from the sign
  for (int i = w - 2; i >= 0; --i) {
    if (s.bit(i) != sign) {
      boundary = i;
      break;
    }
  }
  const int run = boundary < 0 ? w - 1 : (w - 2) - boundary;
  const bool carry_hits_boundary =
      boundary < 0 ? carry_in.bit(w - 1) : carry_in.bit(boundary);
  const int est = run - (carry_hits_boundary ? 1 : 0);
  return est < 0 ? 0 : est;
}

TEST(Lza, WordLevelRunsMatchABitScan) {
  Rng rng(63);
  for (int w = 1; w <= kCsWordBits; ++w) {
    const CsWord ones = CsWord::mask(w);
    std::vector<CsNum> xs = {CsNum(w, CsWord(), CsWord()),
                             CsNum(w, ones, CsWord()),
                             CsNum(w, CsWord(), ones)};
    // A single one or a single zero at every position, in either plane.
    for (int p = 0; p < w; ++p) {
      const CsWord one = CsWord::bit_at(p), zero = ones ^ one;
      xs.emplace_back(w, one, CsWord());
      xs.emplace_back(w, zero, CsWord());
      xs.emplace_back(w, CsWord(), one);
      xs.emplace_back(w, CsWord(), zero);
    }
    for (int r = 0; r < 16; ++r) {
      xs.emplace_back(w, rng.next_wide_bits<7>(w), rng.next_wide_bits<7>(w));
    }
    for (const CsNum& x : xs) {
      const int run = bit_scan_leading_sign_run(x);
      const int est = bit_scan_lza_estimate(x);
      ASSERT_EQ(leading_sign_run(x), run) << w << " " << x.to_digit_string();
      ASSERT_EQ(lza_estimate(x), est) << w << " " << x.to_digit_string();
      // The instrumented form raises a mispredict exactly where the scans
      // disagree, with their difference as detail.
      EventLog log(4);
      ASSERT_EQ(lza_estimate(x, &log), est);
      ASSERT_EQ(log.raised(), run != est ? 1u : 0u);
      if (run != est) {
        ASSERT_EQ(log.events().front().detail, run - est);
      }
    }
  }
}

TEST(Lza, LeadingSignRunDefinition) {
  // 8-bit examples.
  auto lsr = [](std::uint64_t s, std::uint64_t c, int w) {
    return leading_sign_run(CsNum(w, CsWord(s), CsWord(c)));
  };
  EXPECT_EQ(lsr(0b00010101, 0, 8), 2);  // 21 needs 6 bits: 2 redundant zeros
  EXPECT_EQ(lsr(0b11110101, 0, 8), 3);  // negative, 3 redundant ones
  EXPECT_EQ(lsr(0b01111111, 0, 8), 0);  // needs the full window
  EXPECT_EQ(lsr(0b10000000, 0, 8), 0);  // most negative value
  EXPECT_EQ(lsr(0, 0, 8), 7);           // zero: one digit remains
  EXPECT_EQ(lsr(0xFF, 0, 8), 7);        // -1: one digit remains
}

TEST(Lza, LeadingSignRunAllowsWindowShrink) {
  Rng rng(60);
  for (int i = 0; i < 50000; ++i) {
    int w = (int)rng.next_int(2, 60);
    CsNum x(w, rng.next_wide_bits<7>(w) >> (int)rng.next_below((unsigned)w),
            rng.next_wide_bits<7>(w) >> (int)rng.next_below((unsigned)w));
    int run = leading_sign_run(x);
    // Shrinking the window by `run` preserves the signed value...
    EXPECT_EQ(x.windowed(w - run).signed_value(), x.signed_value());
    // ...and by run+1 does not (unless already at 1 digit).
    if (run < w - 1) {
      EXPECT_NE(x.windowed(w - run - 1).signed_value(), x.signed_value());
    }
  }
}

void exhaustive_bound(int w) {
  for (std::uint64_t s = 0; s < (1ull << w); ++s) {
    for (std::uint64_t c = 0; c < (1ull << w); ++c) {
      CsNum x(w, CsWord(s), CsWord(c));
      int est = lza_estimate(x);
      int act = leading_sign_run(x);
      ASSERT_LE(est, act) << x.to_digit_string();
      ASSERT_LE(act - est, kLzaMaxError) << x.to_digit_string();
    }
  }
}

TEST(Lza, ExhaustiveBoundW4) { exhaustive_bound(4); }
TEST(Lza, ExhaustiveBoundW7) { exhaustive_bound(7); }
TEST(Lza, ExhaustiveBoundW9) { exhaustive_bound(9); }

TEST(Lza, RandomBoundDatapathWidths) {
  Rng rng(61);
  for (int i = 0; i < 100000; ++i) {
    int w = (int)rng.next_int(30, 440);
    // Bias toward long sign runs by shifting magnitudes down.
    int sh = (int)rng.next_below((unsigned)w);
    CsWord s = rng.next_wide_bits<7>(w) >> sh;
    CsWord c = rng.next_wide_bits<7>(w) >> (int)rng.next_below((unsigned)w);
    if (rng.next_bool()) s = (~s).truncated(w);
    CsNum x(w, s, c);
    int est = lza_estimate(x);
    int act = leading_sign_run(x);
    ASSERT_LE(est, act) << w << " " << x.to_digit_string();
    ASSERT_LE(act - est, kLzaMaxError) << w << " " << x.to_digit_string();
  }
}

TEST(Lza, CancellationCase) {
  // x + (-x): the sum is zero — the LZA must report (nearly) the whole
  // window as sign run so the unit detects total cancellation (Sec. III-G
  // requires reliable all-zero detection on top of this).
  Rng rng(62);
  for (int i = 0; i < 10000; ++i) {
    int w = (int)rng.next_int(8, 60);
    CsWord v = rng.next_wide_bits<7>(w - 2);
    CsNum x(w, v, (-v).truncated(w));
    int est = lza_estimate(x);
    EXPECT_GE(est, w - 1 - kLzaMaxError);
  }
}

}  // namespace
}  // namespace csfma
