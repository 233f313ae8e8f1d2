// The unified FmaUnit interface: factory wiring, metadata, and agreement
// of the adapters with the concrete unit simulators they wrap.
#include "fma/fma_unit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fma/classic_fma.hpp"
#include "fma/cs_fma.hpp"
#include "fma/discrete.hpp"
#include "introspect/event_log.hpp"

namespace csfma {
namespace {

PFloat rand_op(Rng& rng) {
  return PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8));
}

TEST(FmaUnit, UnitKindNamesRoundTrip) {
  for (UnitKind kind : kAllUnitKinds) {
    UnitKind parsed = kind == UnitKind::Pcs ? UnitKind::Fcs : UnitKind::Pcs;
    ASSERT_TRUE(parse_unit_kind(to_string(kind), &parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  UnitKind untouched = UnitKind::Classic;
  for (const char* bad : {"", "PCS", "pcs ", "fused"}) {
    EXPECT_FALSE(parse_unit_kind(bad, &untouched)) << bad;
    EXPECT_EQ(untouched, UnitKind::Classic);
  }
}

TEST(FmaUnit, FactoryCoversEveryKindWithStableMetadata) {
  for (UnitKind kind : kAllUnitKinds) {
    auto unit = make_fma_unit(kind);
    ASSERT_NE(unit, nullptr) << to_string(kind);
    EXPECT_EQ(unit->kind(), kind);
    EXPECT_FALSE(unit->name().empty());
  }
  EXPECT_EQ(make_fma_unit(UnitKind::Discrete)->latency_class(),
            LatencyClass::DiscretePair);
  EXPECT_EQ(make_fma_unit(UnitKind::Classic)->latency_class(),
            LatencyClass::FusedClassic);
  EXPECT_EQ(make_fma_unit(UnitKind::Pcs)->latency_class(),
            LatencyClass::CarrySave);
  EXPECT_EQ(make_fma_unit(UnitKind::Fcs)->latency_class(),
            LatencyClass::CarrySave);
}

TEST(FmaUnit, AdaptersAgreeWithConcreteUnits) {
  Rng rng(300);
  auto discrete = make_fma_unit(UnitKind::Discrete);
  auto classic = make_fma_unit(UnitKind::Classic);
  auto pcs = make_fma_unit(UnitKind::Pcs);
  auto fcs = make_fma_unit(UnitKind::Fcs);
  DiscreteMulAdd discrete_ref;
  ClassicFma classic_ref;
  CsFma pcs_ref(kPcsGeometry);
  CsFma fcs_ref(kFcsGeometry);
  for (int i = 0; i < 500; ++i) {
    PFloat a = rand_op(rng), b = rand_op(rng), c = rand_op(rng);
    const Round rm = Round::HalfAwayFromZero;
    EXPECT_TRUE(PFloat::same_value(discrete->fma_ieee(a, b, c, rm),
                                   discrete_ref.mul_add(a, b, c)));
    EXPECT_TRUE(PFloat::same_value(classic->fma_ieee(a, b, c, rm),
                                   classic_ref.fma(a, b, c)));
    EXPECT_TRUE(PFloat::same_value(pcs->fma_ieee(a, b, c, rm),
                                   pcs_ref.fma_ieee(a, b, c, rm)));
    EXPECT_TRUE(PFloat::same_value(fcs->fma_ieee(a, b, c, rm),
                                   fcs_ref.fma_ieee(a, b, c, rm)));
  }
}

TEST(FmaUnit, LiftLowerRoundTripsIeeeValues) {
  Rng rng(301);
  for (UnitKind kind : kAllUnitKinds) {
    auto unit = make_fma_unit(kind);
    for (int i = 0; i < 200; ++i) {
      PFloat v = rand_op(rng);
      PFloat back = unit->lower(unit->lift(v), Round::NearestEven);
      EXPECT_TRUE(PFloat::same_value(back, v))
          << to_string(kind) << " " << v.to_double();
    }
  }
}

TEST(FmaUnit, NativeChainMatchesExplicitPcsChain) {
  // The lift/fma/lower view wires the same datapath a hand-written
  // CsOperand chain does.
  Rng rng(302);
  auto unit = make_fma_unit(UnitKind::Pcs);
  CsFma ref(kPcsGeometry);
  const auto lift = [](const PFloat& x) { return ieee_to_cs(kPcsGeometry, x); };
  for (int i = 0; i < 50; ++i) {
    PFloat a = rand_op(rng), b1 = rand_op(rng), c = rand_op(rng),
           b2 = rand_op(rng), d = rand_op(rng);
    // Two chained ops through the interface...
    FmaOperand acc = unit->fma(unit->lift(a), b1, unit->lift(c));
    acc = unit->fma(acc, b2, unit->lift(d));
    PFloat got = unit->lower(acc, Round::HalfAwayFromZero);
    // ...and through the concrete unit.
    CsOperand r = ref.fma(lift(a), b1, lift(c));
    r = ref.fma(r, b2, lift(d));
    PFloat want = cs_to_ieee(r, kBinary64, Round::HalfAwayFromZero);
    EXPECT_TRUE(PFloat::same_value(got, want));
  }
}

TEST(FmaUnit, OperandUnwrapIsTypeChecked) {
  auto pcs = make_fma_unit(UnitKind::Pcs);
  auto fcs = make_fma_unit(UnitKind::Fcs);
  FmaOperand v = pcs->lift(PFloat::from_double(kBinary64, 1.5));
  EXPECT_TRUE(v.is_cs());
  EXPECT_FALSE(v.is_ieee());
  EXPECT_EQ(v.cs().geometry(), kPcsGeometry);
  EXPECT_THROW(v.ieee(), CheckError);
  // A carry-save operand only feeds a unit of its own geometry.
  const PFloat one = PFloat::from_double(kBinary64, 1.0);
  EXPECT_THROW(fcs->fma(v, one, fcs->lift(one)), CheckError);
  EXPECT_EQ(make_cs_unit(CsGeometry::pcs(44, 11))->kind(), UnitKind::Pcs);
  EXPECT_EQ(make_cs_unit(CsGeometry::fcs(BlockSelect::Zd))->kind(),
            UnitKind::Fcs);
}

std::uint64_t fnv_bytes(const void* p, std::size_t n, std::uint64_t h) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// A seeded stream mixing every path of the CS datapath: balanced ops,
/// A pass-through, exact and near cancellation, zero/inf/NaN operands,
/// exponent extremes (subnormal flush, overflow) and power-of-two B/C.
/// A and C are drawn in `ac`, B in `b` (each value rounded from a double).
std::vector<OperandTriple> adversarial_stream(std::size_t n,
                                              FloatFormat ac = kBinary64,
                                              FloatFormat b_fmt = kBinary64) {
  Rng rng(4243);
  std::vector<OperandTriple> ops;
  for (std::size_t i = 0; i < n; ++i) {
    double a = rng.next_fp_in_exp_range(-60, 60);
    double b = rng.next_fp_in_exp_range(-60, 60);
    double c = rng.next_fp_in_exp_range(-60, 60);
    const std::uint64_t cls = rng.next_below(100);
    if (cls < 4) {
      a = rng.next_fp_in_exp_range(150, 400);
    } else if (cls < 10) {
      a = -(b * c);
    } else if (cls < 14) {
      a = -(b * c) * (1.0 + rng.next_double(-0x1p-40, 0x1p-40));
    } else if (cls < 16) {
      const double specials[] = {0.0, -0.0, INFINITY, -INFINITY, NAN};
      double* slot[] = {&a, &b, &c};
      *slot[rng.next_below(3)] = specials[rng.next_below(5)];
    } else if (cls < 20) {
      a = rng.next_fp_in_exp_range(-1020, 1020);
      b = rng.next_fp_in_exp_range(-1020, 1020);
      c = rng.next_fp_in_exp_range(-1020, 1020);
    } else if (cls < 24) {
      b = std::ldexp(rng.next_bool() ? 1.0 : -1.0, (int)rng.next_int(-30, 30));
      c = std::ldexp(rng.next_bool() ? 1.0 : -1.0, (int)rng.next_int(-30, 30));
    }
    ops.push_back({PFloat::from_double(ac, a), PFloat::from_double(b_fmt, b),
                   PFloat::from_double(ac, c)});
  }
  return ops;
}

/// One operation of a lane class the sliced blocks mask: 'd' runs the
/// whole datapath (every unit), 'p' has A far left of the product (a CS
/// pass-through, a classic multiplier-only lane), 's' has a NaN or
/// infinite operand or a zero B or C (no probe on any unit).
OperandTriple lane_op(Rng& rng, char kind) {
  double a = rng.next_fp_in_exp_range(-15, 15);
  double b = rng.next_fp_in_exp_range(-15, 15);
  double c = rng.next_fp_in_exp_range(-15, 15);
  if (kind == 'p') {
    a = std::ldexp(rng.next_double(1.0, 2.0) * (rng.next_bool() ? 1 : -1),
                   std::ilogb(b) + std::ilogb(c) + (int)rng.next_int(200, 300));
  } else if (kind == 's') {
    const double specials[] = {0.0, -0.0, INFINITY, -INFINITY, NAN};
    switch (rng.next_below(4)) {
      case 0: b = specials[rng.next_below(2)]; break;  // zero product
      case 1: c = specials[rng.next_below(2)]; break;
      case 2: a = specials[2 + rng.next_below(3)]; break;  // A inf or NaN
      default: {
        double* slot[] = {&b, &c};
        *slot[rng.next_below(2)] = specials[2 + rng.next_below(3)];
      }
    }
  }
  return {PFloat::from_double(kBinary64, a), PFloat::from_double(kBinary64, b),
          PFloat::from_double(kBinary64, c)};
}

/// `n` operations, `pass_pct` percent of them with A far left of the
/// product and the rest ordinary.
std::vector<OperandTriple> pass_through_stream(std::size_t n, int pass_pct) {
  Rng rng(4244 + (std::uint64_t)pass_pct);
  std::vector<OperandTriple> ops;
  for (std::size_t i = 0; i < n; ++i)
    ops.push_back(
        lane_op(rng, (int)rng.next_below(100) < pass_pct ? 'p' : 'd'));
  return ops;
}

/// One 64-op block per pattern (lane L takes kind pattern[L]): the first,
/// last or only datapath lane next to masked lanes of both kinds.
std::vector<OperandTriple> masked_blocks() {
  const std::string d(64, 'd');
  const std::string masked = std::string(32, 'p') + std::string(32, 's');
  const std::string patterns[] = {
      "d" + masked.substr(1),                      // only lane 0
      masked.substr(1) + "d",                      // only lane 63
      masked.substr(0, 31) + "d" + masked.substr(32),  // only lane 31
      "s" + d.substr(2) + "p",                     // both end lanes masked
      "ps" + d.substr(4) + "sp",
      "pdsdpdsdddsssdddpppd" + std::string(40, 'd') + "pdps",
      std::string(32, 's') + std::string(32, 'd'),  // first at lane 32
      std::string(32, 'd') + std::string(32, 'p'),  // last at lane 31
  };
  Rng rng(4245);
  std::vector<OperandTriple> ops;
  for (const std::string& pat : patterns)
    for (char kind : pat) ops.push_back(lane_op(rng, kind));
  // Alternating lanes.
  for (int L = 0; L < 64; ++L) ops.push_back(lane_op(rng, "dp"[L & 1]));
  for (int L = 0; L < 64; ++L) ops.push_back(lane_op(rng, "sd"[L & 1]));
  return ops;
}

/// `n` operations every unit resolves on its side wires: no probe fires.
std::vector<OperandTriple> side_wire_stream(std::size_t n) {
  Rng rng(4246);
  std::vector<OperandTriple> ops;
  for (std::size_t i = 0; i < n; ++i) ops.push_back(lane_op(rng, 's'));
  return ops;
}

using UnitFactory = std::function<std::unique_ptr<FmaUnit>(
    ActivityRecorder*, const IntrospectHooks*)>;

/// FNV-1a over a unit's results, activity JSON and event-log JSON on the
/// stream (by default 4096 adversarial binary64 triples rounded half away
/// from zero), through its own batch path or the base-class scalar loop.
std::uint64_t digest_of(const UnitFactory& make, bool scalar,
                        const std::vector<OperandTriple>& ops,
                        Round rm = Round::HalfAwayFromZero) {
  ActivityRecorder rec;
  EventLog events(1 << 16);
  IntrospectHooks hooks;
  hooks.events = &events;
  auto unit = make(&rec, &hooks);
  std::vector<PFloat> out(ops.size());
  FmaBatchHooks bh;
  bh.rm = rm;
  bh.events = &events;
  if (scalar) {
    unit->FmaUnit::fma_ieee_batch(ops.data(), ops.size(), out.data(), bh);
  } else {
    unit->fma_ieee_batch(ops.data(), ops.size(), out.data(), bh);
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (const PFloat& r : out) {
    const std::uint64_t bits = r.to_bits().lo64();
    h = fnv_bytes(&bits, sizeof bits, h);
  }
  const std::string act = rec.to_json(), ev = events.to_json();
  h = fnv_bytes(act.data(), act.size(), h);
  return fnv_bytes(ev.data(), ev.size(), h);
}

std::uint64_t unit_digest(const CsGeometry& g, bool scalar,
                          const std::vector<OperandTriple>& ops =
                              adversarial_stream(4096),
                          Round rm = Round::HalfAwayFromZero) {
  return digest_of(
      [&](ActivityRecorder* rec, const IntrospectHooks* hooks) {
        return make_cs_unit(g, rec, hooks);
      },
      scalar, ops, rm);
}

std::uint64_t unit_digest(UnitKind kind, bool scalar) {
  return digest_of(
      [&](ActivityRecorder* rec, const IntrospectHooks* hooks) {
        return make_fma_unit(kind, rec, hooks);
      },
      scalar, adversarial_stream(4096));
}

TEST(FmaUnit, FusedUnitsMatchRecordedDigests) {
  // The classic, PCS, FCS and FCS-ZD units' results, per-probe toggles and
  // event logs on an adversarial stream, pinned to recorded digests: a
  // change that moves one result bit, toggle or event of any of them — on
  // the sliced or the scalar path — fails here.
  EXPECT_EQ(unit_digest(UnitKind::Classic, false), 0x7d528c21bdcf838aULL);
  EXPECT_EQ(unit_digest(UnitKind::Classic, true), 0x7d528c21bdcf838aULL);
  const CsGeometry fcs_zd = CsGeometry::fcs(BlockSelect::Zd);
  EXPECT_EQ(unit_digest(kPcsGeometry, false), 0x35548100ebfc5557ULL);
  EXPECT_EQ(unit_digest(kPcsGeometry, true), 0x35548100ebfc5557ULL);
  EXPECT_EQ(unit_digest(kFcsGeometry, false), 0xbd6293315a0dba6eULL);
  EXPECT_EQ(unit_digest(kFcsGeometry, true), 0xbd6293315a0dba6eULL);
  EXPECT_EQ(unit_digest(fcs_zd, false), 0x63049b881d5ccfaeULL);
  EXPECT_EQ(unit_digest(fcs_zd, true), 0x63049b881d5ccfaeULL);
}

TEST(FmaUnit, SlicedBatchMatchesScalarAtEveryGeometry) {
  // One plane-form block serves every design point: small and Sec. V
  // blocks, sparse and dense carry grids, both FCS selects.
  for (const CsGeometry& g :
       {CsGeometry::pcs(8, 2), CsGeometry::pcs(22, 11),
        CsGeometry::pcs(44, 4), CsGeometry::pcs(55, 55),
        CsGeometry::pcs(56, 8), CsGeometry::pcs(62, 31),
        CsGeometry::fcs(BlockSelect::Zd)}) {
    EXPECT_EQ(unit_digest(g, false), unit_digest(g, true))
        << g.block() << "/" << g.group() << " " << to_string(g.select());
  }
  // Every rounding mode through the plane-form readout...
  const std::vector<OperandTriple> b64 = adversarial_stream(1024);
  for (const CsGeometry& g : {kPcsGeometry, kFcsGeometry}) {
    for (Round rm : {Round::NearestEven, Round::HalfAwayFromZero,
                     Round::TowardZero, Round::TowardPositive,
                     Round::TowardNegative}) {
      EXPECT_EQ(unit_digest(g, false, b64, rm), unit_digest(g, true, b64, rm))
          << g.block() << "/" << g.group() << " " << to_string(rm);
    }
  }
  // ...and operands narrower than binary64, and 54-bit A and C.
  const FloatFormat binary32{8, 23}, wide54{11, 53};
  const std::vector<OperandTriple> b32 =
      adversarial_stream(1024, binary32, binary32);
  const std::vector<OperandTriple> w54 = adversarial_stream(1024, wide54);
  for (const CsGeometry& g :
       {CsGeometry::pcs(8, 2), CsGeometry::pcs(22, 11), kPcsGeometry,
        kFcsGeometry, CsGeometry::fcs(BlockSelect::Zd)}) {
    EXPECT_EQ(unit_digest(g, false, b32), unit_digest(g, true, b32))
        << "binary32 " << g.block() << "/" << g.group();
    EXPECT_EQ(unit_digest(g, false, w54), unit_digest(g, true, w54))
        << "54-bit A, C " << g.block() << "/" << g.group() << " "
        << to_string(g.select());
  }
  // Every lane class in every block: pass-through densities from none to
  // all, a side-wire-only stream, and blocks whose first, last or only
  // datapath lane sits next to masked lanes.
  const std::pair<std::string, std::vector<OperandTriple>> streams[] = {
      {"0% pass-through", pass_through_stream(512, 0)},
      {"10% pass-through", pass_through_stream(512, 10)},
      {"50% pass-through", pass_through_stream(512, 50)},
      {"100% pass-through", pass_through_stream(512, 100)},
      {"side wires only", side_wire_stream(256)},
      {"masked blocks", masked_blocks()},
  };
  std::vector<std::pair<std::string, UnitFactory>> units = {
      {"classic", [](ActivityRecorder* rec, const IntrospectHooks* hooks) {
         return make_fma_unit(UnitKind::Classic, rec, hooks);
       }}};
  for (const CsGeometry& g :
       {kPcsGeometry, CsGeometry::pcs(62, 31), CsGeometry::pcs(8, 2),
        kFcsGeometry, CsGeometry::fcs(BlockSelect::Zd)}) {
    units.push_back({std::to_string(g.block()) + "/" +
                         std::to_string(g.group()) + " " +
                         to_string(g.select()),
                     [g](ActivityRecorder* rec, const IntrospectHooks* hooks) {
                       return make_cs_unit(g, rec, hooks);
                     }});
  }
  for (const auto& [unit, make] : units) {
    for (const auto& [stream, ops] : streams) {
      for (Round rm : {Round::NearestEven, Round::HalfAwayFromZero}) {
        EXPECT_EQ(digest_of(make, false, ops, rm),
                  digest_of(make, true, ops, rm))
            << unit << ", " << stream << ", " << to_string(rm);
      }
    }
    // Side wires drive no probe, so neither path lists one.
    for (bool scalar : {false, true}) {
      ActivityRecorder rec;
      auto u = make(&rec, nullptr);
      const std::vector<OperandTriple>& ops = streams[4].second;
      std::vector<PFloat> out(ops.size());
      if (scalar) {
        u->FmaUnit::fma_ieee_batch(ops.data(), ops.size(), out.data(), {});
      } else {
        u->fma_ieee_batch(ops.data(), ops.size(), out.data(), {});
      }
      EXPECT_TRUE(rec.probes().empty())
          << unit << (scalar ? " scalar" : " sliced") << ": "
          << rec.to_json();
    }
  }
}

TEST(FmaUnit, ActivityRecorderReceivesToggles) {
  Rng rng(303);
  for (UnitKind kind : kAllUnitKinds) {
    ActivityRecorder rec;
    auto unit = make_fma_unit(kind, &rec);
    for (int i = 0; i < 16; ++i) {
      unit->fma_ieee(rand_op(rng), rand_op(rng), rand_op(rng),
                     Round::NearestEven);
    }
    EXPECT_GT(rec.total_toggles(), 0u) << to_string(kind);
  }
}

}  // namespace
}  // namespace csfma
