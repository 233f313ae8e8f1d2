#include "fma/fma_unit.hpp"

#include "common/check.hpp"
#include "fma/classic_fma.hpp"
#include "fma/cs_fma.hpp"
#include "fma/discrete.hpp"
#include "introspect/event_log.hpp"

namespace csfma {

const char* to_string(UnitKind kind) {
  switch (kind) {
    case UnitKind::Discrete:
      return "discrete";
    case UnitKind::Classic:
      return "classic";
    case UnitKind::Pcs:
      return "pcs";
    case UnitKind::Fcs:
      return "fcs";
  }
  return "?";
}

bool parse_unit_kind(std::string_view name, UnitKind* out) {
  for (UnitKind k : kAllUnitKinds) {
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* to_string(LatencyClass lc) {
  switch (lc) {
    case LatencyClass::DiscretePair:
      return "discrete-pair";
    case LatencyClass::FusedClassic:
      return "fused-classic";
    case LatencyClass::CarrySave:
      return "carry-save";
  }
  return "?";
}

const PFloat& FmaOperand::ieee() const {
  CSFMA_CHECK_MSG(is_ieee(), "FmaOperand does not hold an IEEE value");
  return std::get<PFloat>(v_);
}

const CsOperand& FmaOperand::cs() const {
  CSFMA_CHECK_MSG(is_cs(), "FmaOperand does not hold a carry-save operand");
  return std::get<CsOperand>(v_);
}

PFloat FmaUnit::fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                         Round rm) {
  return lower(fma(lift(a), b, lift(c)), rm);
}

void FmaBatchHooks::begin_op(std::size_t i, const OperandTriple& t) const {
  if (events == nullptr) return;
  events->begin_op(base_index + i, t.a.to_bits().lo64(), t.b.to_bits().lo64(),
                   t.c.to_bits().lo64());
}

void FmaUnit::fma_ieee_batch(const OperandTriple* ops, std::size_t n,
                             PFloat* out, const FmaBatchHooks& hooks) {
  for (std::size_t i = 0; i < n; ++i) {
    hooks.begin_op(i, ops[i]);
    out[i] = fma_ieee(ops[i].a, ops[i].b, ops[i].c, hooks.rm);
  }
}

namespace {

/// Shared base for the two IEEE-boundary units: native format == IEEE.
class IeeeUnitBase : public FmaUnit {
 public:
  FmaOperand lift(const PFloat& v) const override { return FmaOperand(v); }
  PFloat lower(const FmaOperand& v, Round rm) const override {
    // The unit already rounded to binary64; re-rounding is exact.
    return v.ieee().round_to(kBinary64, rm);
  }
};

class DiscreteUnit final : public IeeeUnitBase {
 public:
  DiscreteUnit(ActivityRecorder* activity, const IntrospectHooks* hooks)
      : unit_(activity, hooks) {}
  UnitKind kind() const override { return UnitKind::Discrete; }
  std::string_view name() const override { return "Xilinx CoreGen"; }
  LatencyClass latency_class() const override {
    return LatencyClass::DiscretePair;
  }
  FmaOperand fma(const FmaOperand& a, const PFloat& b,
                 const FmaOperand& c) override {
    return FmaOperand(unit_.mul_add(a.ieee(), b, c.ieee()));
  }

 private:
  DiscreteMulAdd unit_;
};

class ClassicUnit final : public IeeeUnitBase {
 public:
  ClassicUnit(ActivityRecorder* activity, const IntrospectHooks* hooks)
      : unit_(activity, hooks) {}
  UnitKind kind() const override { return UnitKind::Classic; }
  std::string_view name() const override { return "FloPoCo FPPipeline"; }
  LatencyClass latency_class() const override {
    return LatencyClass::FusedClassic;
  }
  FmaOperand fma(const FmaOperand& a, const PFloat& b,
                 const FmaOperand& c) override {
    return FmaOperand(unit_.fma(a.ieee(), b, c.ieee()));
  }
  void fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                      const FmaBatchHooks& hooks) override {
    unit_.fma_ieee_batch(ops, n, out, hooks);
  }

 private:
  ClassicFma unit_;
};

class CsUnit final : public FmaUnit {
 public:
  CsUnit(const CsGeometry& g, ActivityRecorder* activity,
         const IntrospectHooks* hooks)
      : unit_(g, activity, hooks) {}
  UnitKind kind() const override {
    return unit_.geometry().group() == 1 ? UnitKind::Fcs : UnitKind::Pcs;
  }
  std::string_view name() const override {
    return kind() == UnitKind::Fcs ? "FCS-FMA" : "PCS-FMA";
  }
  LatencyClass latency_class() const override {
    return LatencyClass::CarrySave;
  }
  FmaOperand lift(const PFloat& v) const override {
    return FmaOperand(ieee_to_cs(unit_.geometry(), v));
  }
  PFloat lower(const FmaOperand& v, Round rm) const override {
    return cs_to_ieee(v.cs(), kBinary64, rm);
  }
  FmaOperand fma(const FmaOperand& a, const PFloat& b,
                 const FmaOperand& c) override {
    return FmaOperand(unit_.fma(a.cs(), b, c.cs()));
  }
  PFloat fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c,
                  Round rm) override {
    return unit_.fma_ieee(a, b, c, rm);
  }
  void fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                      const FmaBatchHooks& hooks) override {
    unit_.fma_ieee_batch(ops, n, out, hooks);
  }

 private:
  CsFma unit_;
};

}  // namespace

std::unique_ptr<FmaUnit> make_cs_unit(const CsGeometry& g,
                                      ActivityRecorder* activity,
                                      const IntrospectHooks* hooks) {
  return std::make_unique<CsUnit>(g, activity, hooks);
}

std::unique_ptr<FmaUnit> make_fma_unit(UnitKind kind,
                                       ActivityRecorder* activity,
                                       const IntrospectHooks* hooks) {
  switch (kind) {
    case UnitKind::Discrete:
      return std::make_unique<DiscreteUnit>(activity, hooks);
    case UnitKind::Classic:
      return std::make_unique<ClassicUnit>(activity, hooks);
    case UnitKind::Pcs:
      return make_cs_unit(kPcsGeometry, activity, hooks);
    case UnitKind::Fcs:
      return make_cs_unit(kFcsGeometry, activity, hooks);
  }
  CSFMA_CHECK_MSG(false, "unknown UnitKind");
  return nullptr;
}

}  // namespace csfma
