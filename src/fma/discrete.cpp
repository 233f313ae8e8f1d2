#include "fma/discrete.hpp"

#include "introspect/signal_tap.hpp"

namespace csfma {

void DiscreteMulAdd::probe(Probe p, const PFloat& v) {
  if (probes_) probes_[p].observe(v.to_bits());
  if (hooks_ != nullptr && hooks_->tap != nullptr) {
    SignalTap* tap = hooks_->tap;
    tap->begin_stage(kProbeNames[p].stage);
    tap->tap(kProbeNames[p].name, v.to_bits(), 64);
  }
}

PFloat DiscreteMulAdd::mul(const PFloat& a, const PFloat& b) {
  PFloat r = PFloat::mul(a, b, kBinary64, Round::NearestEven);
  probe(kMulOut, r);
  return r;
}

PFloat DiscreteMulAdd::add(const PFloat& a, const PFloat& b) {
  PFloat r = PFloat::add(a, b, kBinary64, Round::NearestEven);
  probe(kAddOut, r);
  return r;
}

PFloat DiscreteMulAdd::mul_add(const PFloat& a, const PFloat& b,
                               const PFloat& c) {
  return add(a, mul(b, c));
}

}  // namespace csfma
