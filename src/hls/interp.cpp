#include "hls/interp.hpp"

#include <vector>

#include "fma/cs_fma.hpp"
#include "fma/dot_product.hpp"

namespace csfma {

namespace {

/// A wire value: IEEE or a CS operand in its style's geometry.
struct Val {
  ValueType type = ValueType::Ieee;
  FmaStyle style = FmaStyle::None;
  PFloat ieee;
  CsOperand cs;
};

}  // namespace

std::map<std::string, double> Evaluator::run(
    const std::map<std::string, double>& inputs) const {
  return run_batch({inputs}).front();
}

std::vector<std::map<std::string, double>> Evaluator::run_batch(
    const std::vector<std::map<std::string, double>>& inputs_batch) const {
  // Per-sample setup is hoisted out of the sample loop: the wire-value
  // workspace, the unit simulators and the topological order are built once
  // for the whole batch (kernel sweeps push thousands of samples through
  // the same CDFG).
  std::vector<Val> vals((size_t)g_.num_nodes());
  CsFma pcs_unit(kPcsGeometry);
  CsFma fcs_unit(kFcsGeometry);
  auto unit = [&](FmaStyle s) -> CsFma& {
    return s == FmaStyle::Pcs ? pcs_unit : fcs_unit;
  };
  PcsDotProduct dot_unit;
  const Round exit_rm = Round::HalfAwayFromZero;
  const std::vector<int> topo = g_.topo_order();

  TraceSpan span(trace_, "interp", "hls");
  span.arg("samples", (std::uint64_t)inputs_batch.size());
  if (metrics_ != nullptr && !inputs_batch.empty()) {
    // Executed op mix = static per-kind node counts x sample count; a pure
    // function of the CDFG, so these counters are Deterministic.
    const std::uint64_t samples = inputs_batch.size();
    std::map<OpKind, std::uint64_t> mix;
    for (int id : topo) mix[g_.node(id).kind] += 1;
    for (const auto& [kind, count] : mix) {
      metrics_->counter(std::string("hls.interp.ops.") + to_string(kind))
          .add(count * samples);
    }
    metrics_->counter("hls.interp.samples").add(samples);
    metrics_->counter("hls.interp.batches").add(1);
  }

  auto eval_one = [&](const std::map<std::string, double>& inputs) {
    std::map<std::string, double> outputs;
    for (int id : topo) {
      const Node& n = g_.node(id);
      Val& v = vals[(size_t)id];
      auto in = [&](int i) -> const Val& {
        return vals[(size_t)n.args[(size_t)i]];
      };
      auto bin64 = [&](OpKind k, const PFloat& a, const PFloat& b) {
        switch (k) {
          case OpKind::Add:
            return PFloat::add(a, b, kBinary64, Round::NearestEven);
          case OpKind::Sub:
            return PFloat::sub(a, b, kBinary64, Round::NearestEven);
          case OpKind::Mul:
            return PFloat::mul(a, b, kBinary64, Round::NearestEven);
          case OpKind::Div:
            return PFloat::div(a, b, kBinary64, Round::NearestEven);
          default:
            CSFMA_CHECK(false);
            return PFloat::nan(kBinary64);
        }
      };
      switch (n.kind) {
        case OpKind::Input: {
          auto it = inputs.find(n.name);
          CSFMA_CHECK_MSG(it != inputs.end(), "missing input " << n.name);
          v.ieee = PFloat::from_double(kBinary64, it->second);
          break;
        }
        case OpKind::Const:
          v.ieee = PFloat::from_double(kBinary64, n.const_value);
          break;
        case OpKind::Output:
          outputs[n.name] = in(0).ieee.to_double();
          break;
        case OpKind::Add:
        case OpKind::Sub:
        case OpKind::Mul:
        case OpKind::Div:
          v.ieee = bin64(n.kind, in(0).ieee, in(1).ieee);
          break;
        case OpKind::Neg:
          v.ieee = in(0).ieee.negated();
          break;
        case OpKind::CvtToCs:
          v.type = ValueType::Cs;
          v.style = n.style;
          v.cs = ieee_to_cs(unit(n.style).geometry(), in(0).ieee);
          break;
        case OpKind::CvtFromCs:
          v.ieee = cs_to_ieee(in(0).cs, kBinary64, exit_rm);
          break;
        case OpKind::Dot: {
          v.type = ValueType::Cs;
          v.style = n.style;
          std::vector<std::pair<PFloat, PFloat>> terms;
          for (int i = 0; i + 1 < n.arity(); i += 2)
            terms.emplace_back(in(i).ieee, in(i + 1).ieee);
          v.cs = dot_unit.dot(terms);
          break;
        }
        case OpKind::Fma:
          v.type = ValueType::Cs;
          v.style = n.style;
          v.cs = unit(n.style).fma(in(0).cs, in(1).ieee, in(2).cs);
          break;
      }
    }
    return outputs;
  };

  std::vector<std::map<std::string, double>> outputs_batch;
  outputs_batch.reserve(inputs_batch.size());
  for (const auto& inputs : inputs_batch)
    outputs_batch.push_back(eval_one(inputs));
  return outputs_batch;
}

}  // namespace csfma
