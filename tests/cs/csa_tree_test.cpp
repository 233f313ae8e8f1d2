#include "cs/csa_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace csfma {
namespace {

// ---- the dense tree the span tree replaced, kept verbatim as its
//      reference: every row is a whole CsWord, zeroed and masked, and every
//      3:2 step runs over all of its words ----

CsNum dense_reduce_rows_inplace(int width, CsWord* rows, int n,
                                CsaTreeStats* stats) {
  CSFMA_CHECK(width >= 1 && width <= kCsWordBits);
  CSFMA_CHECK(n >= 0);
  if (stats != nullptr) {
    stats->rows = n;
    stats->levels = 0;
    stats->compressors = 0;
  }
  if (n == 0) return CsNum::zero(width);
  if (n == 1) return CsNum::from_binary(width, rows[0]);

  // Each level rewrites the array front-to-back: a triple at i,i+1,i+2
  // lands as (sum, carry) at o,o+1 with o <= i, so reads stay ahead of
  // writes and no per-level buffer is needed.  The carry plane's top
  // majority bit falls off the window ((maj << 1) mod 2^width), exactly
  // like compress3.
  const CsWord wmask = CsWord::mask(width);
  while (n > 2) {
    int i = 0, o = 0;
    for (; i + 3 <= n; i += 3, o += 2) {
      const CsWord a = rows[i], b = rows[i + 1], c = rows[i + 2];
      rows[o] = a ^ b ^ c;
      rows[o + 1] = ((((a & b) | (c & (a | b))) << 1) & wmask);
      if (stats != nullptr) stats->compressors += width;
    }
    for (; i < n; ++i, ++o) rows[o] = rows[i];
    n = o;
    if (stats != nullptr) ++stats->levels;
  }
  return CsNum(width, rows[0], n > 1 ? rows[1] : CsWord());
}

CsNum dense_multiply_dsp_tiled(const CsNum& multiplicand,
                               const CsWord& multiplier, int multiplier_width,
                               int cand_chunk, int mult_chunk, int out_width,
                               int offset, CsaTreeStats* stats) {
  const int wc = multiplicand.width();
  CSFMA_CHECK(cand_chunk >= 2 && cand_chunk <= 30);
  CSFMA_CHECK(mult_chunk >= 2 && mult_chunk <= 30);
  CSFMA_CHECK(multiplier_width >= 1 && multiplier_width <= 63);
  CSFMA_CHECK(offset >= 0 && offset + wc + multiplier_width <= out_width + 1);
  CSFMA_CHECK(out_width <= kCsWordBits);
  CSFMA_CHECK((multiplier & ~CsWord::mask(multiplier_width)).is_zero());

  // Assimilate the multiplicand planes (DSP pre-adder step), then slice its
  // two's-complement representation.  All slices are unsigned except the
  // top one, which carries the sign.
  const CsWord m = multiplicand.to_binary();
  const int n_cand = (wc + cand_chunk - 1) / cand_chunk;
  const int n_mult = (multiplier_width + mult_chunk - 1) / mult_chunk;

  const CsWord wmask = CsWord::mask(out_width);
  const int total = n_cand * n_mult;
  CsWord stack_rows[64];
  std::vector<CsWord> heap_rows;
  CsWord* rows = stack_rows;
  if (total > 64) {
    heap_rows.resize((size_t)total);
    rows = heap_rows.data();
  }
  int nrows = 0;
  for (int j = 0; j < n_cand; ++j) {
    const int c_lo = j * cand_chunk;
    const int c_len = std::min(cand_chunk, wc - c_lo);
    std::int64_t c_val = (std::int64_t)wide_read_bits(m.data(), c_lo, c_len);
    const bool c_signed = (j == n_cand - 1);
    if (c_signed && ((c_val >> (c_len - 1)) & 1)) c_val -= (std::int64_t)1 << c_len;
    for (int i = 0; i < n_mult; ++i) {
      const int b_lo = i * mult_chunk;
      const int b_len = std::min(mult_chunk, multiplier_width - b_lo);
      const std::int64_t b_val =
          (std::int64_t)wide_read_bits(multiplier.data(), b_lo, b_len);
      const std::int64_t prod = c_val * b_val;  // <= 30+30 bits, exact
      // Sign-extend the tile product into the window at its weight: place
      // the 64-bit product at bit `t`, fill ones above it when negative,
      // then truncate — identical to the shift-a-sext-512b formulation.
      CsWord& row = rows[nrows++];
      row = CsWord();
      std::uint64_t* rw = row.data();
      const int t = offset + c_lo + b_lo;
      const int wi = t >> 6, sh = t & 63;
      rw[wi] = (std::uint64_t)prod << sh;
      if (wi + 1 < CsWord::kWords) {
        rw[wi + 1] = sh != 0 ? (std::uint64_t)prod >> (64 - sh) : 0;
        if (prod < 0) {
          rw[wi + 1] |= sh != 0 ? ~std::uint64_t{0} << sh : ~std::uint64_t{0};
          for (int q = wi + 2; q < CsWord::kWords; ++q) rw[q] = ~std::uint64_t{0};
        }
      }
      row &= wmask;
    }
  }
  return dense_reduce_rows_inplace(out_width, rows, nrows, stats);
}

bool same_stats(const CsaTreeStats& a, const CsaTreeStats& b) {
  return a.rows == b.rows && a.levels == b.levels &&
         a.compressors == b.compressors;
}

/// One DSP-tiled multiply through both trees: both planes (not only their
/// sum, which a wrong split between them would keep) and the stats.
void expect_tiled_like_dense(const CsNum& cand, const CsWord& mult, int wb,
                             int cc, int mc, int wo, int ofs) {
  CsaTreeStats got_stats, want_stats;
  const CsNum got =
      multiply_dsp_tiled(cand, mult, wb, cc, mc, wo, ofs, &got_stats);
  const CsNum want =
      dense_multiply_dsp_tiled(cand, mult, wb, cc, mc, wo, ofs, &want_stats);
  const std::string at = std::to_string(cand.width()) + "x" +
                         std::to_string(wb) + " in " + std::to_string(cc) +
                         "/" + std::to_string(mc) + " tiles, window " +
                         std::to_string(wo) + " at " + std::to_string(ofs);
  ASSERT_EQ(got.width(), want.width()) << at;
  ASSERT_EQ(got.sum(), want.sum()) << at;
  ASSERT_EQ(got.carry(), want.carry()) << at;
  ASSERT_TRUE(same_stats(got_stats, want_stats)) << at;
}

TEST(CsaTree, SpanTreeMatchesTheDenseTree) {
  Rng rng(34);
  // Random tile shapes: chunks 2-30, offsets up to the window top, and
  // redundant two-plane multiplicands, whose top slice is negative about
  // half the time.  Small chunks over wide operands run past 64 tiles.
  int over_64 = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int cc = (int)rng.next_int(2, 30), mc = (int)rng.next_int(2, 30);
    const int wb = (int)rng.next_int(1, 63);
    const int wo = (int)rng.next_int(wb + 1, kCsWordBits);
    const int wc = (int)rng.next_int(1, wo + 1 - wb);
    const int ofs = (int)rng.next_int(0, wo + 1 - wb - wc);
    const CsNum cand(wc, rng.next_wide_bits<7>(wc), rng.next_wide_bits<7>(wc));
    const CsWord mult = rng.next_wide_bits<7>(wb);
    const int tiles = ((wc + cc - 1) / cc) * ((wb + mc - 1) / mc);
    if (tiles > 64) ++over_64;
    expect_tiled_like_dense(cand, mult, wb, cc, mc, wo, ofs);
  }
  EXPECT_GT(over_64, 100);
  // The three unit geometries: PCS 110x53 in 17/24 tiles in 385 bits, FCS
  // 87x53 in 23/17 tiles in 377 bits (each at its product offset, the
  // mantissa width) and classic 54x53 in 17/24 tiles in 161 bits.
  const struct {
    int wc, cc, mc, wo, ofs;
  } units[] = {{110, 17, 24, 385, 110}, {87, 23, 17, 377, 87},
               {54, 17, 24, 161, 0}};
  for (const auto& u : units) {
    for (int trial = 0; trial < 2000; ++trial) {
      const CsNum cand(u.wc, rng.next_wide_bits<7>(u.wc),
                       rng.next_wide_bits<7>(u.wc));
      const CsWord mult = rng.next_wide_bits<7>(53) | CsWord::bit_at(52);
      expect_tiled_like_dense(cand, mult, 53, u.cc, u.mc, u.wo, u.ofs);
    }
  }
  // Dense rows through reduce_rows_inplace, at every width and 0-80 rows.
  for (int w = 1; w <= kCsWordBits; ++w) {
    for (int rep = 0; rep < 4; ++rep) {
      const int n = (int)rng.next_int(0, 80);
      std::vector<CsWord> rows, ref;
      for (int i = 0; i < n; ++i) rows.push_back(rng.next_wide_bits<7>(w));
      ref = rows;
      CsaTreeStats got_stats, want_stats;
      const CsNum got =
          reduce_rows_inplace(w, rows.data(), n, &got_stats);
      const CsNum want =
          dense_reduce_rows_inplace(w, ref.data(), n, &want_stats);
      ASSERT_EQ(got.sum(), want.sum()) << w << " bits, " << n << " rows";
      ASSERT_EQ(got.carry(), want.carry()) << w << " bits, " << n << " rows";
      ASSERT_TRUE(same_stats(got_stats, want_stats))
          << w << " bits, " << n << " rows";
    }
  }
}

TEST(CsaTree, LevelsFormula) {
  EXPECT_EQ(csa_levels_for_rows(0), 0);
  EXPECT_EQ(csa_levels_for_rows(2), 0);
  EXPECT_EQ(csa_levels_for_rows(3), 1);
  EXPECT_EQ(csa_levels_for_rows(4), 2);
  EXPECT_EQ(csa_levels_for_rows(6), 3);
  EXPECT_EQ(csa_levels_for_rows(9), 4);
  // 53 partial products (binary64 multiplier): Dadda heights run
  // 2,3,4,6,9,13,19,28,42,63 — nine 3:2 levels reach two rows.
  EXPECT_EQ(csa_levels_for_rows(53), 9);
}

TEST(CsaTree, ReduceMatchesPlainSum) {
  Rng rng(30);
  for (int trial = 0; trial < 2000; ++trial) {
    int w = (int)rng.next_int(8, 200);
    int n = (int)rng.next_int(0, 20);
    std::vector<CsWord> rows;
    CsWord expect;
    for (int i = 0; i < n; ++i) {
      rows.push_back(rng.next_wide_bits<7>(w));
      expect = (expect + rows.back()).truncated(w);
    }
    CsaTreeStats stats;
    CsNum r = reduce_rows_inplace(w, rows.data(), n, &stats);
    EXPECT_EQ(r.to_binary(), expect);
    EXPECT_EQ(stats.rows, n);
    EXPECT_EQ(stats.levels, csa_levels_for_rows(n));
  }
}

TEST(CsaTree, ReduceDegenerateCases) {
  CsNum z = reduce_rows_inplace(16, nullptr, 0);
  EXPECT_TRUE(z.to_binary().is_zero());
  CsWord one_row[] = {CsWord(7ull)};
  CsNum one = reduce_rows_inplace(16, one_row, 1);
  EXPECT_EQ(one.to_binary().lo64(), 7u);
  EXPECT_TRUE(one.is_binary());
}

/// multiply_dsp_tiled's product value: the multiplicand's signed value
/// times the multiplier, at `offset` in the window, mod 2^out_width.
CsWord tiled_product_value(const CsNum& c, const CsWord& b, int out_width,
                           int offset) {
  return ((c.signed_value().truncated(out_width) * b) << offset)
      .truncated(out_width);
}

TEST(CsaTree, MultiplySmallExhaustive) {
  // Exhaustive 6x5-bit signed x unsigned multiply against host arithmetic,
  // in 2- and 3-bit tiles.
  for (int m = -32; m < 32; ++m) {
    for (unsigned b = 0; b < 32; ++b) {
      CsNum c = CsNum::from_signed(7, m < 0, CsWord((std::uint64_t)(m < 0 ? -m : m)));
      CsNum p = multiply_dsp_tiled(c, CsWord(b), 5, 3, 2, 12, 0);
      std::int64_t expect = (std::int64_t)m * (std::int64_t)b;
      std::uint64_t got = p.to_binary().lo64();
      std::uint64_t want = (std::uint64_t)expect & 0xFFF;
      EXPECT_EQ(got, want) << m << " * " << b;
    }
  }
}

TEST(CsaTree, MultiplyRedundantMultiplicand) {
  // A two-plane multiplicand is assimilated (the DSP pre-adders) before
  // it is sliced: the product is its signed value times B, for any tile
  // shape and offset.
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    int wc = (int)rng.next_int(4, 40);
    int wb = (int)rng.next_int(1, 20);
    int cc = (int)rng.next_int(2, 30), mc = (int)rng.next_int(2, 30);
    int ofs = (int)rng.next_int(0, 20);
    CsNum c(wc, rng.next_wide_bits<7>(wc), rng.next_wide_bits<7>(wc));
    CsWord b = rng.next_wide_bits<7>(wb);
    int wo = ofs + wc + wb;
    CsNum p = multiply_dsp_tiled(c, b, wb, cc, mc, wo, ofs);
    EXPECT_EQ(p.to_binary(), tiled_product_value(c, b, wo, ofs))
        << c.to_digit_string();
  }
}

TEST(CsaTree, MultiplyPaperWidths) {
  // The three unit multipliers, each at its product offset in its adder
  // window: PCS 110x53 in 17/24 tiles (the paper's 21 DSPs, Sec. III-D),
  // FCS 87x53 in 23/17 tiles (16) and classic 54x53 in 17/24 tiles (12).
  const struct {
    int wc, cc, mc, wo, ofs, tiles;
  } units[] = {{110, 17, 24, 385, 110, 21},
               {87, 23, 17, 377, 87, 16},
               {54, 17, 24, 161, 0, 12}};
  Rng rng(32);
  for (const auto& u : units) {
    for (int i = 0; i < 500; ++i) {
      CsNum c(u.wc, rng.next_wide_bits<7>(u.wc), rng.next_wide_bits<7>(u.wc));
      CsWord b = rng.next_wide_bits<7>(53) | CsWord::bit_at(52);  // implied 1
      CsaTreeStats stats;
      CsNum p = multiply_dsp_tiled(c, b, 53, u.cc, u.mc, u.wo, u.ofs, &stats);
      EXPECT_EQ(p.to_binary(), tiled_product_value(c, b, u.wo, u.ofs));
      EXPECT_EQ(stats.rows, u.tiles);
      EXPECT_EQ(stats.levels, csa_levels_for_rows(u.tiles));
    }
  }
}

}  // namespace
}  // namespace csfma
