// Property tests for the bit-sliced (SoA) batch layer: every kernel in
// engine/slice.hpp must be bit-exact with its scalar counterpart in src/cs
// applied lane-by-lane, for every width class the datapaths use (including
// buses wider than 512 bits, where the lane-major values span 9+ words)
// and for batches whose lane count is not a multiple of 64.
#include "engine/slice.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/activity.hpp"
#include "common/rng.hpp"
#include "cs/cs_num.hpp"
#include "cs/csa_tree.hpp"
#include "cs/lza.hpp"
#include "cs/pcs.hpp"
#include "cs/zero_detect.hpp"

namespace csfma {
namespace {

// Width classes: sub-word, the PCS tail (55), one word, the PCS mantissa
// (110), unaligned multi-word, the 385b adder, the full CsWord, and a
// >512b bus (9 words per lane).
const int kWidths[] = {1, 7, 55, 64, 110, 121, 385, 448, 576};
// Lane counts: single lane, odd remainders, one-short, and a full batch.
const int kLaneCounts[] = {1, 3, 27, 63, 64};

int words_for(int width_bits) { return (width_bits + 63) / 64; }

/// Random lane-major values of `width_bits` bits (top bits of the last
/// word zero), `stride` words per lane.
std::vector<std::uint64_t> random_lanes(Rng& rng, int n, int width_bits,
                                        int stride) {
  std::vector<std::uint64_t> lanes((std::size_t)(n * stride), 0);
  const int nw = words_for(width_bits);
  for (int L = 0; L < n; ++L) {
    for (int w = 0; w < nw; ++w) {
      std::uint64_t v = rng.next_u64();
      // Bias toward long runs of equal bits so sign-run / zero-detect
      // predicates see interesting inputs, not just dense noise.
      if (rng.next_below(3) == 0) v = rng.next_bool() ? ~std::uint64_t{0} : 0;
      if (w == nw - 1 && (width_bits & 63) != 0)
        v &= (std::uint64_t{1} << (width_bits & 63)) - 1;
      lanes[(std::size_t)(L * stride + w)] = v;
    }
  }
  return lanes;
}

/// Bit b of lane L, read straight from the lane-major array (the naive
/// reference the transpose is checked against).
int lane_bit(const std::vector<std::uint64_t>& lanes, int stride, int L,
             int b) {
  return (int)((lanes[(std::size_t)(L * stride + b / 64)] >> (b % 64)) & 1);
}

CsWord cs_of_lane(const std::vector<std::uint64_t>& lanes, int stride,
                  int L) {
  CsWord v;
  for (int w = 0; w < stride && w < CsWord::kWords; ++w)
    v.data()[w] = lanes[(std::size_t)(L * stride + w)];
  return v;
}

TEST(Slice, Transpose64MatchesNaiveAndIsInvolution) {
  Rng rng(1);
  std::uint64_t m[64], orig[64];
  for (int r = 0; r < 64; ++r) orig[r] = m[r] = rng.next_u64();
  slice::transpose64(m);
  for (int r = 0; r < 64; ++r)
    for (int c = 0; c < 64; ++c)
      ASSERT_EQ((m[r] >> c) & 1, (orig[c] >> r) & 1) << r << "," << c;
  slice::transpose64(m);
  for (int r = 0; r < 64; ++r) ASSERT_EQ(m[r], orig[r]);
}

TEST(Slice, PackUnpackRoundTripEveryWidthClass) {
  Rng rng(2);
  for (int width : kWidths) {
    const int stride = words_for(width);
    for (int n : kLaneCounts) {
      const auto lanes = random_lanes(rng, n, width, stride);
      std::vector<std::uint64_t> planes((std::size_t)width, ~std::uint64_t{0});
      slice::pack_words(lanes.data(), stride, n, width, planes.data());
      for (int b = 0; b < width; ++b) {
        for (int L = 0; L < n; ++L)
          ASSERT_EQ((planes[(std::size_t)b] >> L) & 1,
                    (std::uint64_t)lane_bit(lanes, stride, L, b))
              << "width " << width << " n " << n << " b " << b << " L " << L;
        // Lanes n..63 of every plane must be zero (the layout contract).
        if (n < 64) {
          ASSERT_EQ(planes[(std::size_t)b] >> n, 0u)
              << "width " << width << " n " << n << " b " << b;
        }
      }
      std::vector<std::uint64_t> back((std::size_t)(n * stride), 0);
      slice::unpack_words(planes.data(), width, n, back.data(), stride);
      ASSERT_EQ(back, lanes) << "width " << width << " n " << n;
    }
  }
}

TEST(Slice, Compress3MatchesScalarPerLane) {
  Rng rng(3);
  for (int width : {55, 110, 385, 448}) {
    const int stride = CsWord::kWords;
    const int n = 63;  // odd remainder on purpose
    const auto la = random_lanes(rng, n, width, stride);
    const auto lb = random_lanes(rng, n, width, stride);
    const auto lc = random_lanes(rng, n, width, stride);
    std::vector<std::uint64_t> pa((std::size_t)width), pb((std::size_t)width),
        pc((std::size_t)width), os((std::size_t)width), oc((std::size_t)width);
    slice::pack_words(la.data(), stride, n, width, pa.data());
    slice::pack_words(lb.data(), stride, n, width, pb.data());
    slice::pack_words(lc.data(), stride, n, width, pc.data());
    slice::compress3(width, pa.data(), pb.data(), pc.data(), os.data(),
                     oc.data());
    std::vector<std::uint64_t> ls((std::size_t)(n * stride), 0);
    std::vector<std::uint64_t> lcar((std::size_t)(n * stride), 0);
    slice::unpack_words(os.data(), width, n, ls.data(), stride);
    slice::unpack_words(oc.data(), width, n, lcar.data(), stride);
    for (int L = 0; L < n; ++L) {
      const CsNum want = compress3(width, cs_of_lane(la, stride, L),
                                   cs_of_lane(lb, stride, L),
                                   cs_of_lane(lc, stride, L));
      EXPECT_EQ(cs_of_lane(ls, stride, L), want.sum())
          << "width " << width << " lane " << L;
      EXPECT_EQ(cs_of_lane(lcar, stride, L), want.carry())
          << "width " << width << " lane " << L;
    }
  }
}

// The >512b bus class: no CsWord-based scalar reference exists above 448
// bits, so the compressor is checked against its bit-level definition
// (sum = a^b^c; carry = majority shifted up one, MSB majority dropped).
TEST(Slice, Compress3WidePlanesMatchDefinition) {
  Rng rng(4);
  const int width = 576, stride = words_for(width), n = 64;
  const auto la = random_lanes(rng, n, width, stride);
  const auto lb = random_lanes(rng, n, width, stride);
  const auto lc = random_lanes(rng, n, width, stride);
  std::vector<std::uint64_t> pa((std::size_t)width), pb((std::size_t)width),
      pc((std::size_t)width), os((std::size_t)width), oc((std::size_t)width);
  slice::pack_words(la.data(), stride, n, width, pa.data());
  slice::pack_words(lb.data(), stride, n, width, pb.data());
  slice::pack_words(lc.data(), stride, n, width, pc.data());
  slice::compress3(width, pa.data(), pb.data(), pc.data(), os.data(),
                   oc.data());
  for (int b = 0; b < width; ++b) {
    ASSERT_EQ(os[(std::size_t)b], pa[(std::size_t)b] ^ pb[(std::size_t)b] ^
                                      pc[(std::size_t)b])
        << b;
    const std::uint64_t maj_below =
        b == 0 ? 0
               : (pa[(std::size_t)(b - 1)] & pb[(std::size_t)(b - 1)]) |
                     (pc[(std::size_t)(b - 1)] &
                      (pa[(std::size_t)(b - 1)] | pb[(std::size_t)(b - 1)]));
    ASSERT_EQ(oc[(std::size_t)b], maj_below) << b;
  }
}

TEST(Slice, CarryReduceMatchesScalarPerLane) {
  Rng rng(5);
  const int width = 385, group = 11, stride = CsWord::kWords, n = 27;
  const auto ls = random_lanes(rng, n, width, stride);
  const auto lc = random_lanes(rng, n, width, stride);
  std::vector<std::uint64_t> ps((std::size_t)width), pc((std::size_t)width),
      rs((std::size_t)width), rc((std::size_t)width);
  slice::pack_words(ls.data(), stride, n, width, ps.data());
  slice::pack_words(lc.data(), stride, n, width, pc.data());
  slice::carry_reduce(width, group, ps.data(), pc.data(), rs.data(),
                      rc.data());
  std::vector<std::uint64_t> os((std::size_t)(n * stride), 0);
  std::vector<std::uint64_t> oc((std::size_t)(n * stride), 0);
  slice::unpack_words(rs.data(), width, n, os.data(), stride);
  slice::unpack_words(rc.data(), width, n, oc.data(), stride);
  for (int L = 0; L < n; ++L) {
    const PcsNum want = carry_reduce(
        CsNum(width, cs_of_lane(ls, stride, L), cs_of_lane(lc, stride, L)),
        group);
    EXPECT_EQ(cs_of_lane(os, stride, L), want.sum()) << "lane " << L;
    EXPECT_EQ(cs_of_lane(oc, stride, L), want.carries()) << "lane " << L;
  }
}

TEST(Slice, AssimilateMatchesToBinaryPerLane) {
  Rng rng(6);
  for (int width : {55, 385, 448}) {
    const int stride = CsWord::kWords, n = 63;
    const auto ls = random_lanes(rng, n, width, stride);
    const auto lc = random_lanes(rng, n, width, stride);
    std::vector<std::uint64_t> ps((std::size_t)width), pc((std::size_t)width),
        bin((std::size_t)width);
    slice::pack_words(ls.data(), stride, n, width, ps.data());
    slice::pack_words(lc.data(), stride, n, width, pc.data());
    slice::assimilate(width, ps.data(), pc.data(), bin.data());
    std::vector<std::uint64_t> lb((std::size_t)(n * stride), 0);
    slice::unpack_words(bin.data(), width, n, lb.data(), stride);
    for (int L = 0; L < n; ++L) {
      const CsWord want =
          CsNum(width, cs_of_lane(ls, stride, L), cs_of_lane(lc, stride, L))
              .to_binary();
      EXPECT_EQ(cs_of_lane(lb, stride, L), want)
          << "width " << width << " lane " << L;
    }
  }
}

TEST(Slice, CountSkippableBlocksMatchesScalarPerLane) {
  Rng rng(7);
  const int width = 385, block = 55, max_skip = 5;
  const int stride = CsWord::kWords, n = 63;
  for (int round = 0; round < 8; ++round) {
    auto ls = random_lanes(rng, n, width, stride);
    auto lc = random_lanes(rng, n, width, stride);
    // Force small / sign-extended values into some lanes so every skip
    // count in [0, max_skip] actually occurs.
    for (int L = 0; L < n; ++L) {
      if (L % 3 != 0) continue;
      const int keep = (int)rng.next_below((std::uint64_t)width);
      CsWord s = cs_of_lane(ls, stride, L).truncated(keep + 1);
      if (rng.next_bool())  // sign-extended negative: ones above `keep`
        s = s | (CsWord::mask(width) & ~CsWord::mask(keep + 1));
      CsWord c;  // an already-assimilated lane stresses the carry logic
      for (int w = 0; w < stride; ++w) {
        ls[(std::size_t)(L * stride + w)] = s.data()[w];
        lc[(std::size_t)(L * stride + w)] = c.data()[w];
      }
    }
    std::vector<std::uint64_t> ps((std::size_t)width), pc((std::size_t)width);
    std::uint64_t alive[5];
    slice::pack_words(ls.data(), stride, n, width, ps.data());
    slice::pack_words(lc.data(), stride, n, width, pc.data());
    slice::count_skippable_blocks(width, block, max_skip, ps.data(),
                                  pc.data(), alive);
    for (int L = 0; L < n; ++L) {
      int got = 0;
      for (int k = 0; k < max_skip; ++k) got += (int)((alive[k] >> L) & 1);
      const int want = count_skippable_blocks(
          CsNum(width, cs_of_lane(ls, stride, L), cs_of_lane(lc, stride, L)),
          block, max_skip);
      EXPECT_EQ(got, want) << "round " << round << " lane " << L;
    }
  }
}

TEST(Slice, LeadingSignRunMatchesScalarPerLane) {
  Rng rng(8);
  const int width = 385, stride = CsWord::kWords, n = 63;
  const auto lb = random_lanes(rng, n, width, stride);
  std::vector<std::uint64_t> bin((std::size_t)width);
  slice::pack_words(lb.data(), stride, n, width, bin.data());
  std::uint16_t run[64];
  slice::leading_sign_run(width, bin.data(), n, run);
  for (int L = 0; L < n; ++L) {
    const int want =
        leading_sign_run(CsNum::from_binary(width, cs_of_lane(lb, stride, L)));
    EXPECT_EQ((int)run[L], want) << "lane " << L;
  }
}

TEST(Slice, LzaEstimateMatchesScalarPerLane) {
  Rng rng(9);
  const int width = 385, stride = CsWord::kWords, n = 27;
  const auto ls = random_lanes(rng, n, width, stride);
  const auto lc = random_lanes(rng, n, width, stride);
  std::vector<std::uint64_t> ps((std::size_t)width), pc((std::size_t)width),
      scratch((std::size_t)(2 * width));
  slice::pack_words(ls.data(), stride, n, width, ps.data());
  slice::pack_words(lc.data(), stride, n, width, pc.data());
  std::uint16_t est[64];
  slice::lza_estimate(width, ps.data(), pc.data(), n, est, scratch.data());
  for (int L = 0; L < n; ++L) {
    const int want = lza_estimate(
        CsNum(width, cs_of_lane(ls, stride, L), cs_of_lane(lc, stride, L)));
    EXPECT_EQ((int)est[L], want) << "lane " << L;
  }
}

// The plane multiplier and the lane-masked negation against
// multiply_dsp_tiled and cs_negate applied lane by lane, at the three
// geometries that use them: classic (a 54-digit multiplicand in 17-bit
// slices times 53 bits in 24-bit slices, the 161-bit window at offset 0),
// PCS (110 digits, 17/24, 385 bits at 110) and FCS (87 digits, 23/17,
// 377 bits at 87).
TEST(Slice, TiledProductMatchesScalarPerLane) {
  Rng rng(11);
  const slice::TileGeometry geometries[] = {{54, 17, 53, 24, 161, 0},
                                            {110, 17, 53, 24, 385, 110},
                                            {87, 23, 53, 17, 377, 87}};
  for (const slice::TileGeometry& g : geometries) {
    const int stride = CsWord::kWords;
    for (int n : {1, 37, 63, 64}) {
      const auto cands = random_lanes(rng, n, g.cand_width, stride);
      std::vector<std::uint64_t> mults((std::size_t)n);
      std::vector<std::int64_t> tiles((std::size_t)(g.tiles() * 64));
      for (int L = 0; L < n; ++L) {
        mults[(std::size_t)L] = rng.next_u64() >> (64 - g.mult_width);
        slice::tile_products(g, &cands[(std::size_t)(L * stride)],
                             mults[(std::size_t)L], L, tiles.data());
      }
      std::vector<std::uint64_t> rows((std::size_t)(g.tiles() *
                                                    g.row_planes()));
      std::vector<std::uint64_t> ps((std::size_t)g.width),
          pc((std::size_t)g.width);
      CsaTreeStats stats;
      slice::tiled_multiply(g, tiles.data(), n, rows.data(), ps.data(),
                            pc.data(), &stats);
      const std::uint64_t neg =
          n == 64 ? rng.next_u64()
                  : rng.next_u64() & ((std::uint64_t{1} << n) - 1);
      std::vector<std::uint64_t> ns = ps, nc = pc;
      slice::cs_negate(g.width, neg, ns.data(), nc.data());

      std::vector<std::uint64_t> lps((std::size_t)(n * stride), 0),
          lpc = lps, lns = lps, lnc = lps;
      slice::unpack_words(ps.data(), g.width, n, lps.data(), stride);
      slice::unpack_words(pc.data(), g.width, n, lpc.data(), stride);
      slice::unpack_words(ns.data(), g.width, n, lns.data(), stride);
      slice::unpack_words(nc.data(), g.width, n, lnc.data(), stride);
      const std::string at = std::to_string(g.cand_width) + "x" +
                             std::to_string(g.mult_width) + " n " +
                             std::to_string(n);
      CsaTreeStats want_stats;
      for (int L = 0; L < n; ++L) {
        const CsNum want = multiply_dsp_tiled(
            CsNum::from_binary(g.cand_width, cs_of_lane(cands, stride, L)),
            CsWord(mults[(std::size_t)L]), g.mult_width, g.cand_chunk,
            g.mult_chunk, g.width, g.offset, &want_stats);
        EXPECT_EQ(cs_of_lane(lps, stride, L), want.sum()) << at << " L " << L;
        EXPECT_EQ(cs_of_lane(lpc, stride, L), want.carry())
            << at << " L " << L;
        const CsNum want_neg = ((neg >> L) & 1) != 0 ? cs_negate(want) : want;
        EXPECT_EQ(cs_of_lane(lns, stride, L), want_neg.sum())
            << at << " L " << L;
        EXPECT_EQ(cs_of_lane(lnc, stride, L), want_neg.carry())
            << at << " L " << L;
      }
      EXPECT_EQ(stats.rows, want_stats.rows) << at;
      EXPECT_EQ(stats.levels, want_stats.levels) << at;
      EXPECT_EQ(stats.compressors, want_stats.compressors) << at;
      // Lanes n..63 stay zero through both kernels (the layout contract).
      for (int b = 0; n < 64 && b < g.width; ++b) {
        ASSERT_EQ((ps[(std::size_t)b] | pc[(std::size_t)b] |
                   ns[(std::size_t)b] | nc[(std::size_t)b]) >> n,
                  0u)
            << at << " b " << b;
      }
    }
  }
}

/// The lane mask of lanes [0, n).
std::uint64_t first_lanes(int n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

// Toggle accounting: one observe_planes() call must count exactly what n
// sequential per-lane observe() calls count — across batches (the seam
// between batch k's last lane and batch k+1's first), for odd-remainder
// batches, and for plane widths narrower than the scalar observation's
// word count (the scalar side zero-extends).
TEST(Slice, ObservePlanesMatchesSequentialObserve) {
  Rng rng(10);
  for (int width : {110, 385, 448}) {
    const int stride = CsWord::kWords;
    ActivityProbe scalar_probe, sliced_probe;
    for (int n : {64, 63, 27, 1, 3}) {
      const auto lanes = random_lanes(rng, n, width, stride);
      for (int L = 0; L < n; ++L)
        scalar_probe.observe(cs_of_lane(lanes, stride, L));
      std::vector<std::uint64_t> planes((std::size_t)width);
      slice::pack_words(lanes.data(), stride, n, width, planes.data());
      sliced_probe.observe_planes(planes.data(), width, first_lanes(n));
      ASSERT_EQ(sliced_probe.toggles(), scalar_probe.toggles())
          << "width " << width << " after batch of " << n;
      ASSERT_EQ(sliced_probe.observations(), scalar_probe.observations());
    }
  }
  // One probe pair across changing widths: each batch's seam meets a
  // stored baseline wider or narrower than itself.
  const int stride = CsWord::kWords;
  ActivityProbe scalar_probe, sliced_probe;
  const std::pair<int, int> batches[] = {
      {448, 40}, {110, 1}, {385, 64}, {161, 1}, {64, 17}, {448, 1}};
  for (const auto& [width, n] : batches) {
    const auto lanes = random_lanes(rng, n, width, stride);
    for (int L = 0; L < n; ++L)
      scalar_probe.observe(cs_of_lane(lanes, stride, L));
    std::vector<std::uint64_t> planes((std::size_t)width);
    slice::pack_words(lanes.data(), stride, n, width, planes.data());
    sliced_probe.observe_planes(planes.data(), width, first_lanes(n));
    ASSERT_EQ(sliced_probe.toggles(), scalar_probe.toggles())
        << "width " << width << " after batch of " << n;
    ASSERT_EQ(sliced_probe.observations(), scalar_probe.observations());
  }
}

// Under a lane mask, one observe_planes() call must count exactly what
// observe() calls of the set lanes count, in lane order: the seam against
// the first set lane, toggles between successive set lanes across every
// gap, the last set lane as the new baseline, whatever the unset lanes
// hold.  Widths change between calls, and scalar observations between
// blocks move the baseline the next seam meets.
TEST(Slice, ObservePlanesUnderALaneMaskMatchesSequentialObserve) {
  Rng rng(11);
  const int stride = CsWord::kWords;
  const int widths[] = {1, 63, 64, 65, 161, 385, 448};
  const std::uint64_t all = ~std::uint64_t{0};
  const std::uint64_t masks[] = {
      0,                                   // empty
      1, std::uint64_t{1} << 17, std::uint64_t{1} << 63,  // one lane
      all << 1,                            // lane 0 clear
      all >> 1,                            // lane 63 clear
      all << 9,                            // a gap from lane 0 up
      0x5555555555555555ull, 0xaaaaaaaaaaaaaaaaull,  // alternating
      0x00ffff00000ffff0ull,               // long runs, gaps at both ends
      0xfffffff00000000full,               // long runs, one long gap
      0x8000000000000001ull,               // the two end lanes
      0x7ffffffffffffffeull,               // one run, both ends clear
      all,                                 // every lane
  };
  ActivityProbe scalar_probe, sliced_probe;
  for (int rep = 0; rep < 6; ++rep) {
    std::vector<std::uint64_t> block_masks(std::begin(masks), std::end(masks));
    for (int i = 0; i < 8; ++i) block_masks.push_back(rng.next_u64());
    for (const std::uint64_t mask : block_masks) {
      const int width = widths[rng.next_below(std::size(widths))];
      const auto lanes = random_lanes(rng, 64, width, stride);
      for (int L = 0; L < 64; ++L)
        if (((mask >> L) & 1u) != 0)
          scalar_probe.observe(cs_of_lane(lanes, stride, L));
      std::vector<std::uint64_t> planes((std::size_t)width);
      slice::pack_words(lanes.data(), stride, 64, width, planes.data());
      sliced_probe.observe_planes(planes.data(), width, mask);
      ASSERT_EQ(sliced_probe.toggles(), scalar_probe.toggles())
          << "width " << width << ", mask " << std::hex << mask;
      ASSERT_EQ(sliced_probe.observations(), scalar_probe.observations())
          << "width " << width << ", mask " << std::hex << mask;
      if (rng.next_bool()) {
        const int w = widths[rng.next_below(std::size(widths))];
        const CsWord v = cs_of_lane(random_lanes(rng, 1, w, stride), stride, 0);
        scalar_probe.observe(v);
        sliced_probe.observe(v);
      }
    }
  }
  // An empty mask leaves a fresh probe without a baseline.
  ActivityProbe fresh;
  std::vector<std::uint64_t> planes(64, ~std::uint64_t{0});
  fresh.observe_planes(planes.data(), 64, 0);
  EXPECT_EQ(fresh.observations(), 0u);
  fresh.observe(CsWord());
  EXPECT_EQ(fresh.toggles(), 0u);
}

}  // namespace
}  // namespace csfma
