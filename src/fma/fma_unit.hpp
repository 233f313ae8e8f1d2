// Unified interface over the four multiply-add architectures.
//
// Every experiment in the repo pushes operand triples R = A + B*C through
// one of the bit-accurate unit simulators, but the concrete classes expose
// divergent APIs: ClassicFma::fma is IEEE-in/IEEE-out, the PCS/FCS units
// natively consume and produce carry-save operands, and DiscreteMulAdd is
// a mul/add pair.  FmaUnit erases those differences behind one interface
// so batch drivers (src/engine), accuracy sweeps and fuzzers can be written
// once and run against any architecture:
//
//   * `fma_ieee` — the single-operation view with IEEE 754 boundaries
//     (convert in, run the unit once, convert out), and
//   * `lift` / `fma` / `lower` — the chained view: values stay in the
//     unit's NATIVE operand format between operations (carry-save with
//     deferred rounding for PCS/FCS, plain binary64 for the IEEE units),
//     which is exactly how the paper's Sec. IV-B chains are wired.
//
// Units are selected by `UnitKind` through `make_fma_unit`, which also
// wires an optional ActivityRecorder for the energy model's toggle counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <variant>

#include "common/activity.hpp"
#include "fma/cs_format.hpp"
#include "fp/pfloat.hpp"
#include "introspect/hooks.hpp"

namespace csfma {

/// One work item: R = A + B*C (B stays IEEE in every architecture).  Lives
/// with the unit interface (not the engine) so batch entry points can
/// consume operand arrays directly.
struct OperandTriple {
  PFloat a, b, c;
};

/// Per-batch bundle for fma_ieee_batch: the final rounding mode, the event
/// log (null = off) and the stream index of the batch's first operation —
/// operation i of the batch logs under index base_index + i.
struct FmaBatchHooks {
  Round rm = Round::NearestEven;
  EventLog* events = nullptr;
  std::uint64_t base_index = 0;

  /// Opens operation i of the batch in the event log (a no-op when off).
  void begin_op(std::size_t i, const OperandTriple& t) const;
};

/// The four Table I architectures.
enum class UnitKind {
  Discrete,  // Xilinx CoreGen discrete multiplier + adder (two roundings)
  Classic,   // classic fused FMA (Hokenek/Montoye/Cook; FloPoCo-style)
  Pcs,       // partial-carry-save FMA (Sec. III-F, Fig 9)
  Fcs,       // full-carry-save FMA (Sec. III-G/H, Fig 11)
};

const char* to_string(UnitKind kind);
/// Parse a unit name ("discrete", "classic", "pcs", "fcs"); returns false
/// (leaving *out untouched) on anything else.
bool parse_unit_kind(std::string_view name, UnitKind* out);

/// All kinds, for sweeps over the whole ladder.
inline constexpr UnitKind kAllUnitKinds[] = {UnitKind::Discrete,
                                             UnitKind::Classic, UnitKind::Pcs,
                                             UnitKind::Fcs};

/// Coarse pipeline-depth class (the Table I / Fig 13 contrast).  The exact
/// cycle counts live in the fpga/ synthesis model; this classifies the
/// architectural reason for them.
enum class LatencyClass {
  DiscretePair,  // separate mul and add pipelines; latencies add up
  FusedClassic,  // one fused pipeline with full normalization + rounding
  CarrySave,     // normalization/rounding deferred out of the loop (P/FCS)
};

const char* to_string(LatencyClass lc);

/// A value in a unit's native inter-operation format: plain IEEE for the
/// Discrete/Classic units, a carry-save operand (in the unit's geometry)
/// for PCS/FCS.  Opaque to generic callers; unit-specific code may unwrap
/// the concrete format.
class FmaOperand {
 public:
  FmaOperand() : v_(PFloat()) {}
  explicit FmaOperand(PFloat v) : v_(std::move(v)) {}
  explicit FmaOperand(CsOperand v) : v_(std::move(v)) {}

  bool is_ieee() const { return std::holds_alternative<PFloat>(v_); }
  bool is_cs() const { return std::holds_alternative<CsOperand>(v_); }

  /// Unwrap; checked against the stored alternative.
  const PFloat& ieee() const;
  const CsOperand& cs() const;

 private:
  std::variant<PFloat, CsOperand> v_;
};

/// Abstract multiply-add unit: R = A + B*C.  B is always IEEE binary64 (the
/// non-critical operand stays standard in every architecture, Sec. III-D).
class FmaUnit {
 public:
  virtual ~FmaUnit() = default;

  virtual UnitKind kind() const = 0;
  /// Human-readable architecture name (matches the Table I row labels).
  virtual std::string_view name() const = 0;
  virtual LatencyClass latency_class() const = 0;

  /// Convert an IEEE value into the unit's native inter-operation format.
  virtual FmaOperand lift(const PFloat& v) const = 0;
  /// Convert a native value out to IEEE.  `rm` is the final (deferred)
  /// rounding for the carry-save units; the IEEE units' values are already
  /// rounded by the hardware, so it is a no-op re-round there.
  virtual PFloat lower(const FmaOperand& v, Round rm) const = 0;
  /// One multiply-add in the native format: returns a + b*c.  For PCS/FCS
  /// the result keeps its unrounded tail for the next chained operation.
  virtual FmaOperand fma(const FmaOperand& a, const PFloat& b,
                         const FmaOperand& c) = 0;

  /// Single-operation convenience with IEEE boundaries:
  /// lower(fma(lift(a), b, lift(c)), rm).
  virtual PFloat fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                          Round rm);

  /// Batched fma_ieee over `n` independent triples: out[i] = a_i + b_i*c_i,
  /// with stream semantics identical to the per-operation loop — when
  /// hooks.events is non-null each operation contributes
  /// begin_op(hooks.base_index + i, ...) followed by its events, in
  /// operation order.  The base implementation IS that loop, and the
  /// engine's backend=scalar knob calls it explicitly as the reference
  /// oracle.  The fused units (classic, PCS, FCS) override it with their
  /// bit-sliced blocks (engine/slice.hpp), which take the batch 64
  /// operations at a time, every operation in its lane; the discrete pair
  /// keeps the loop.  Overrides must keep results, per-probe toggle counts
  /// and the event sequence bit-identical to it.
  virtual void fma_ieee_batch(const OperandTriple* ops, std::size_t n,
                              PFloat* out, const FmaBatchHooks& hooks);
};

/// Construct the unit simulator for `kind`.  `activity` (optional) receives
/// per-component toggle counts and must outlive the unit.  `hooks`
/// (optional) attaches signal taps / the numerical event log; the struct
/// and anything it points to must outlive the unit, and a null (or
/// all-null) hooks costs one pointer check per operation.
std::unique_ptr<FmaUnit> make_fma_unit(UnitKind kind,
                                       ActivityRecorder* activity = nullptr,
                                       const IntrospectHooks* hooks = nullptr);

/// A carry-save unit of any geometry behind the same interface (Pcs kind
/// for group > 1, Fcs for full carry-save).  make_fma_unit(Pcs/Fcs) is
/// this at kPcsGeometry / kFcsGeometry.
std::unique_ptr<FmaUnit> make_cs_unit(const CsGeometry& g,
                                      ActivityRecorder* activity = nullptr,
                                      const IntrospectHooks* hooks = nullptr);

}  // namespace csfma
