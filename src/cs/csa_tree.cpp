#include "cs/csa_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace csfma {

namespace {

/// Where a tree row holds data: words [lo, hi) of its storage, zeros below
/// lo and `fill` in every word from hi up to the window's top word (0, or
/// all ones for a negative tile's sign extension).  Words outside [lo, hi)
/// are never read, so a row costs only as many words as its data.
struct Span {
  int lo, hi;
  std::uint64_t fill;
};

/// Word q of a row, read through its span.
inline std::uint64_t span_word(const std::uint64_t* row, const Span& s,
                               int q) {
  return q < s.lo ? 0 : q < s.hi ? row[q] : s.fill;
}

/// The Wallace tree of every multiplier here: reduces the `n` rows IN
/// PLACE (`row(r)` is row r's word storage; rows and spans are clobbered)
/// with layers of 3:2 compressors, and returns the CS pair truncated to
/// `width`.  Each 3:2 step runs only over the union of its three rows'
/// spans, and spans stop at the window's top word.  Bits above `width` in
/// that word may hold sign fill until the final truncation; that is exact,
/// because xor, majority and the carry's one-bit left shift never move a
/// bit downward.
template <class RowAt>
CsNum reduce_spans(int width, RowAt row, Span* spans, int n,
                   CsaTreeStats* stats) {
  if (stats != nullptr) {
    stats->rows = n;
    stats->levels = 0;
    stats->compressors = 0;
  }
  const int top = (width + 63) / 64;
  // Each level rewrites the array front-to-back: a triple at i,i+1,i+2
  // lands as (sum, carry) at o,o+1 with o <= i, and each word is read from
  // all three rows before either output word is written, so no per-level
  // buffer is needed.
  while (n > 2) {
    int i = 0, o = 0;
    for (; i + 3 <= n; i += 3, o += 2) {
      const Span sa = spans[i], sb = spans[i + 1], sc = spans[i + 2];
      const int lo = std::min({sa.lo, sb.lo, sc.lo});
      const int hi = std::max({sa.hi, sb.hi, sc.hi});
      const std::uint64_t *a = row(i), *b = row(i + 1), *c = row(i + 2);
      std::uint64_t* s = row(o);
      std::uint64_t* cy = row(o + 1);
      std::uint64_t maj = 0;  // the carry into the lowest word is 0
      for (int q = lo; q < hi; ++q) {
        const std::uint64_t x = span_word(a, sa, q), y = span_word(b, sb, q),
                            z = span_word(c, sc, q);
        const std::uint64_t m = (x & y) | (z & (x | y));
        s[q] = x ^ y ^ z;
        cy[q] = (m << 1) | (maj >> 63);
        maj = m;
      }
      const std::uint64_t s_fill = sa.fill ^ sb.fill ^ sc.fill;
      const std::uint64_t c_fill =
          (sa.fill & sb.fill) | (sc.fill & (sa.fill | sb.fill));
      // The majority bit shifted out of word hi - 1 lands in word hi; the
      // carry gains that word only where it differs from the fill.  At the
      // window's top word it falls off (mod 2^width).
      int c_hi = hi;
      if (hi < top && (maj >> 63) != (c_fill & 1)) {
        cy[hi] = (c_fill << 1) | (maj >> 63);
        c_hi = hi + 1;
      }
      spans[o] = {lo, hi, s_fill};
      spans[o + 1] = {lo, c_hi, c_fill};
      if (stats != nullptr) stats->compressors += width;
    }
    for (; i < n; ++i, ++o) {
      const Span sp = spans[i];
      std::copy(row(i) + sp.lo, row(i) + sp.hi, row(o) + sp.lo);
      spans[o] = sp;
    }
    n = o;
    if (stats != nullptr) ++stats->levels;
  }
  CsWord planes[2];
  for (int r = 0; r < n; ++r) {
    for (int q = 0; q < top; ++q)
      planes[r].set_word(q, span_word(row(r), spans[r], q));
    planes[r] &= CsWord::mask(width);
  }
  return CsNum(width, planes[0], planes[1]);
}

}  // namespace

int csa_levels_for_rows(int n) {
  int levels = 0;
  while (n > 2) {
    n = (n / 3) * 2 + (n % 3);
    ++levels;
  }
  return levels;
}

CsNum reduce_rows_inplace(int width, CsWord* rows, int n,
                          CsaTreeStats* stats) {
  CSFMA_CHECK(width >= 1 && width <= kCsWordBits);
  CSFMA_CHECK(n >= 0);
  Span stack_spans[64];
  std::vector<Span> heap_spans;
  Span* spans = stack_spans;
  if (n > 64) {
    heap_spans.resize((std::size_t)n);
    spans = heap_spans.data();
  }
  std::fill(spans, spans + n, Span{0, (width + 63) / 64, 0});
  return reduce_spans(
      width, [rows](int r) { return rows[r].data(); }, spans, n, stats);
}

CsNum multiply_dsp_tiled(const CsNum& multiplicand, const CsWord& multiplier,
                         int multiplier_width, int cand_chunk, int mult_chunk,
                         int out_width, int offset,
                         CsaTreeStats* stats) {
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

  // Each tile product goes straight into its one or two words, with its
  // sign as the row's fill above them: no row is zeroed or masked.
  constexpr int kW = CsWord::kWords;
  const int top = (out_width + 63) / 64;
  const int total = n_cand * n_mult;
  std::uint64_t stack_rows[64 * kW];
  Span stack_spans[64];
  std::vector<std::uint64_t> heap_rows;
  std::vector<Span> heap_spans;
  std::uint64_t* rows = stack_rows;
  Span* spans = stack_spans;
  if (total > 64) {
    heap_rows.resize((std::size_t)total * kW);
    heap_spans.resize((std::size_t)total);
    rows = heap_rows.data();
    spans = heap_spans.data();
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
      // The product at bit t of the window, sign-extended: its low word at
      // t / 64, the next word (the arithmetic shift keeps the sign) where
      // it differs from the fill.
      const int t = offset + c_lo + b_lo;
      const int wi = t >> 6, sh = t & 63;
      const std::uint64_t fill = prod < 0 ? ~std::uint64_t{0} : 0;
      const std::uint64_t up =
          sh != 0 ? (std::uint64_t)(prod >> (64 - sh)) : fill;
      std::uint64_t* rw = rows + nrows * kW;
      rw[wi] = (std::uint64_t)prod << sh;
      int hi = wi + 1;
      if (hi < top && up != fill) rw[hi++] = up;
      spans[nrows++] = {wi, hi, fill};
    }
  }
  return reduce_spans(
      out_width, [rows](int r) { return rows + r * kW; }, spans, nrows, stats);
}

}  // namespace csfma
