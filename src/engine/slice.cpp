#include "engine/slice.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace csfma::slice {

namespace {

inline std::uint64_t lanes_mask(int n) {
  return n >= kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

}  // namespace

void transpose64(std::uint64_t m[kLanes]) {
  // Masked block-swap transpose (Hacker's Delight 7-3 family), oriented so
  // that element (r, c) = bit c of m[r]: at each level, block (r, c+j) of
  // rows with bit j clear swaps with block (r+j, c) — the high half of
  // m[k] trades places with the low half of m[k+j].
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < kLanes; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

void pack_words(const std::uint64_t* lanes, int stride_words, int n,
                int width_bits, std::uint64_t* planes) {
  CSFMA_CHECK(n >= 0 && n <= kLanes && width_bits >= 0);
  CSFMA_CHECK(stride_words * 64 >= width_bits);
  std::uint64_t tmp[kLanes];
  const int wcols = (width_bits + 63) / 64;
  for (int wc = 0; wc < wcols; ++wc) {
    for (int L = 0; L < n; ++L) tmp[L] = lanes[L * stride_words + wc];
    for (int L = n; L < kLanes; ++L) tmp[L] = 0;
    transpose64(tmp);
    const int nb = width_bits - wc * 64 < 64 ? width_bits - wc * 64 : 64;
    std::uint64_t* p = planes + wc * 64;
    for (int b = 0; b < nb; ++b) p[b] = tmp[b];
  }
}

void unpack_words(const std::uint64_t* planes, int width_bits, int n,
                  std::uint64_t* lanes, int stride_words) {
  CSFMA_CHECK(n >= 0 && n <= kLanes && width_bits >= 0);
  CSFMA_CHECK(stride_words * 64 >= width_bits);
  std::uint64_t tmp[kLanes];
  const int wcols = (width_bits + 63) / 64;
  for (int wc = 0; wc < wcols; ++wc) {
    const int nb = width_bits - wc * 64 < 64 ? width_bits - wc * 64 : 64;
    const std::uint64_t* p = planes + wc * 64;
    for (int b = 0; b < nb; ++b) tmp[b] = p[b];
    for (int b = nb; b < kLanes; ++b) tmp[b] = 0;  // bits past width read 0
    transpose64(tmp);
    for (int L = 0; L < n; ++L) lanes[L * stride_words + wc] = tmp[L];
  }
}

void compress3(int width, const std::uint64_t* a, const std::uint64_t* b,
               const std::uint64_t* c, std::uint64_t* out_s,
               std::uint64_t* out_c) {
  // Majority shifts up one bit position; the top majority drops off the
  // window, exactly like compress3's (maj << 1).truncated(width).
  std::uint64_t prev_maj = 0;
  for (int i = 0; i < width; ++i) {
    const std::uint64_t ai = a[i], bi = b[i], ci = c[i];
    out_s[i] = ai ^ bi ^ ci;
    out_c[i] = prev_maj;
    prev_maj = (ai & bi) | (ci & (ai | bi));
  }
}

void carry_reduce(int width, int group, const std::uint64_t* s,
                  const std::uint64_t* c, std::uint64_t* out_s,
                  std::uint64_t* out_c) {
  CSFMA_CHECK(group >= 1 && group <= width);
  for (int i = 0; i < width; ++i) out_c[i] = 0;
  for (int lo = 0; lo < width; lo += group) {
    const int len = lo + group <= width ? group : width - lo;
    // Plane-form ripple adder over the segment: per lane this assimilates
    // the group's sum+carry digits, matching the scalar segment addition.
    std::uint64_t carry = 0;
    for (int j = 0; j < len; ++j) {
      const std::uint64_t a = s[lo + j], b = c[lo + j];
      out_s[lo + j] = a ^ b ^ carry;
      carry = (a & b) | (carry & (a | b));
    }
    if (lo + group < width) out_c[lo + group] = carry;
  }
}

std::uint64_t assimilate(int width, const std::uint64_t* s,
                         const std::uint64_t* c, std::uint64_t* out) {
  std::uint64_t carry = 0;
  for (int i = 0; i < width; ++i) {
    const std::uint64_t a = s[i], b = c[i];
    out[i] = a ^ b ^ carry;
    carry = (a & b) | (carry & (a | b));
  }
  return carry;
}

void count_skippable_blocks(int width, int block, int max_skip,
                            const std::uint64_t* s, const std::uint64_t* c,
                            std::uint64_t* alive_after) {
  CSFMA_CHECK(block >= 2 && block <= 63);
  CSFMA_CHECK(width % block == 0);
  CSFMA_CHECK(max_skip >= 0 && max_skip <= width / block - 1);
  // Digit predicates per plane position: Z (digit 0), X (digit 1),
  // T (digit 2).  Each step's skip decision depends only on fixed plane
  // positions, so steps evaluate independently; the cumulative AND
  // replicates the scalar while-loop (a lane stops at its first
  // non-skippable block).
  std::uint64_t alive = ~std::uint64_t{0};
  for (int step = 1; step <= max_skip; ++step) {
    const int lo = width - block * step;
    // Prefix-of-zeros below each in-block position (exclusive).
    std::uint64_t pz[64];
    std::uint64_t run_z = ~std::uint64_t{0};
    for (int j = 0; j < block; ++j) {
      pz[j] = run_z;
      run_z &= ~(s[lo + j] | c[lo + j]);
    }
    // Descending scan: suffix-of-ones above each position, plus the
    // all-zero / all-ones / ones-then-2-then-zeros block patterns.
    std::uint64_t all_zero = ~std::uint64_t{0};
    std::uint64_t all_ones = ~std::uint64_t{0};
    std::uint64_t suffix_ones = ~std::uint64_t{0};
    std::uint64_t otz = 0;
    for (int j = block - 1; j >= 0; --j) {
      const std::uint64_t sj = s[lo + j], cj = c[lo + j];
      const std::uint64_t x = sj ^ cj, t = sj & cj, z = ~(sj | cj);
      otz |= suffix_ones & t & pz[j];
      suffix_ones &= x;
      all_zero &= z;
      all_ones &= x;
    }
    // Fig 10.d safeguards on the first two digits of the next block.
    const std::uint64_t s1 = s[lo - 1], c1 = c[lo - 1];
    const std::uint64_t x1 = s1 ^ c1, t1 = s1 & c1, z1 = ~(s1 | c1);
    const std::uint64_t z2 = ~(s[lo - 2] | c[lo - 2]);
    const std::uint64_t skip = ((all_zero | otz) & z1 & z2) |
                               (all_ones & (x1 | (t1 & z2)));
    alive &= skip;
    alive_after[step - 1] = alive;
  }
}

void leading_sign_run(int width, const std::uint64_t* bin, int n,
                      std::uint16_t* run) {
  CSFMA_CHECK(width >= 1 && n >= 0 && n <= kLanes);
  const std::uint64_t sign = bin[width - 1];
  std::uint64_t undecided = lanes_mask(n);
  for (int L = 0; L < n; ++L) run[L] = (std::uint16_t)(width - 1);
  for (int b = width - 2; b >= 0 && undecided != 0; --b) {
    std::uint64_t newly = (bin[b] ^ sign) & undecided;
    undecided &= ~newly;
    while (newly != 0) {
      const int L = std::countr_zero(newly);
      newly &= newly - 1;
      run[L] = (std::uint16_t)(width - 2 - b);
    }
  }
}

void lza_estimate(int width, const std::uint64_t* s, const std::uint64_t* c,
                  int n, std::uint16_t* est, std::uint64_t* scratch) {
  CSFMA_CHECK(width >= 1 && n >= 0 && n <= kLanes);
  // Mirror of the scalar behavioural model (cs/lza.cpp): assimilate, find
  // the boundary bit, then fall one short exactly when the assimilation
  // carry reaches the boundary.
  std::uint64_t* bin = scratch;
  std::uint64_t* carry_in = scratch + width;
  assimilate(width, s, c, bin);
  for (int b = 0; b < width; ++b) carry_in[b] = bin[b] ^ s[b] ^ c[b];
  const std::uint64_t sign = bin[width - 1];
  std::uint64_t undecided = lanes_mask(n);
  int boundary[kLanes];
  for (int L = 0; L < n; ++L) boundary[L] = -1;
  for (int b = width - 2; b >= 0 && undecided != 0; --b) {
    std::uint64_t newly = (bin[b] ^ sign) & undecided;
    undecided &= ~newly;
    while (newly != 0) {
      const int L = std::countr_zero(newly);
      newly &= newly - 1;
      boundary[L] = b;
    }
  }
  for (int L = 0; L < n; ++L) {
    const int run = boundary[L] < 0 ? width - 1 : (width - 2) - boundary[L];
    const int hit_pos = boundary[L] < 0 ? width - 1 : boundary[L];
    const int hit = (int)((carry_in[hit_pos] >> L) & 1u);
    const int e = run - hit;
    est[L] = (std::uint16_t)(e < 0 ? 0 : e);
  }
}

void tile_products(const TileGeometry& g, const std::uint64_t* cand,
                   std::uint64_t mult, int lane, std::int64_t* tiles) {
  const int n_cand = g.cand_slices(), n_mult = g.mult_slices();
  for (int j = 0; j < n_cand; ++j) {
    const int c_lo = j * g.cand_chunk;
    const int c_len = std::min(g.cand_chunk, g.cand_width - c_lo);
    std::int64_t c_val = (std::int64_t)wide_read_bits(cand, c_lo, c_len);
    if (j == n_cand - 1 && ((c_val >> (c_len - 1)) & 1))
      c_val -= (std::int64_t)1 << c_len;
    for (int i = 0; i < n_mult; ++i) {
      const int b_lo = i * g.mult_chunk;
      const int b_len = std::min(g.mult_chunk, g.mult_width - b_lo);
      const std::int64_t b_val =
          (std::int64_t)((mult >> b_lo) & ((std::uint64_t{1} << b_len) - 1));
      tiles[(j * n_mult + i) * kLanes + lane] = c_val * b_val;
    }
  }
}

void tiled_multiply(const TileGeometry& g, const std::int64_t* tiles, int n,
                    std::uint64_t* rows, std::uint64_t* out_s,
                    std::uint64_t* out_c, CsaTreeStats* stats) {
  CSFMA_CHECK(n >= 0 && n <= kLanes);
  CSFMA_CHECK(g.offset >= 0 &&
              g.offset + g.cand_width + g.mult_width <= g.width + 1);
  // The rows live at the product offset and above, so the tree only runs
  // over the top row_planes() planes of the window.
  const int n_mult = g.mult_slices(), total = g.tiles();
  const int prod_w = g.row_planes();
  const auto row = [&](int r) { return rows + r * prod_w; };
  for (int r = 0; r < total; ++r) {
    std::uint64_t tp[kLanes];
    pack_words((const std::uint64_t*)(tiles + r * kLanes), 1, n, 64, tp);
    const int t = (r / n_mult) * g.cand_chunk + (r % n_mult) * g.mult_chunk;
    std::uint64_t* rw = row(r);
    const int top = std::min(t + 64, prod_w);
    for (int b = 0; b < t; ++b) rw[b] = 0;
    for (int b = t; b < top; ++b) rw[b] = tp[b - t];
    for (int b = top; b < prod_w; ++b) rw[b] = tp[63];
  }
  if (stats != nullptr) *stats = CsaTreeStats{total, 0, 0};
  int nr = total;
  while (nr > 2) {
    int i = 0, o = 0;
    for (; i + 3 <= nr; i += 3, o += 2) {
      const std::uint64_t* ra = row(i);
      const std::uint64_t* rb = row(i + 1);
      const std::uint64_t* rc = row(i + 2);
      std::uint64_t* os = row(o);
      std::uint64_t* oc = row(o + 1);
      std::uint64_t prev_maj = 0;  // carry into the product lsb is 0
      for (int b = 0; b < prod_w; ++b) {
        const std::uint64_t x = ra[b], y = rb[b], z = rc[b];
        os[b] = x ^ y ^ z;  // reads precede writes: o <= i, o+1 <= i+1
        oc[b] = prev_maj;
        prev_maj = (x & y) | (z & (x | y));  // top majority drops (mod 2^W)
      }
      if (stats != nullptr) stats->compressors += g.width;
    }
    for (; i < nr; ++i, ++o) {
      if (o != i) std::copy(row(i), row(i) + prod_w, row(o));
    }
    nr = o;
    if (stats != nullptr) ++stats->levels;
  }
  for (int b = 0; b < g.offset; ++b) out_s[b] = out_c[b] = 0;
  std::copy(row(0), row(0) + prod_w, out_s + g.offset);
  if (nr > 1) {
    std::copy(row(1), row(1) + prod_w, out_c + g.offset);
  } else {
    std::fill(out_c + g.offset, out_c + g.width, 0);
  }
}

void cs_negate(int width, std::uint64_t lanes, std::uint64_t* s,
               std::uint64_t* c) {
  // -x = ~S + ~C + 2 is one 3:2 layer: its sum plane is S^C with bit 1
  // flipped, its carry plane ~(S|C) shifted up one, with ~(S&C) at bit 2
  // (the constant's majority).  Descending, so bit b-1 is still the input
  // when bit b reads it.
  if (lanes == 0) return;
  for (int b = width - 1; b >= 0; --b) {
    const std::uint64_t sb = s[b], cb = c[b];
    const std::uint64_t ns = b == 1 ? ~(sb ^ cb) : sb ^ cb;
    const std::uint64_t nc = b == 0   ? 0
                             : b == 2 ? ~(s[1] & c[1])
                                      : ~(s[b - 1] | c[b - 1]);
    s[b] = (sb & ~lanes) | (ns & lanes);
    c[b] = (cb & ~lanes) | (nc & lanes);
  }
}

}  // namespace csfma::slice
