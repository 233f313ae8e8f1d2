#include "cs/lza.hpp"

#include "common/check.hpp"
#include "introspect/event_log.hpp"

namespace csfma {

namespace {

/// Leading sign run of a w-bit two's-complement word, by word: the
/// sign-folded value's bit width, below the sign bit.  Returns w - 1 for 0
/// and -1 (one digit always remains).
int sign_run(const CsWord& v, int w) {
  const CsWord folded = (v.bit(w - 1) ? ~v : v).truncated(w);
  return w - 1 - folded.bit_width();
}

/// lza_estimate, with the exact run it is anticipating (the run of the
/// same assimilated sum).
struct Anticipated {
  int run, est;
};

Anticipated anticipate(const CsNum& x) {
  // Behavioural model of a Schmookler/Nowka-class leading-zero anticipator.
  //
  // A gate-level LZA examines (propagate, generate, kill) patterns without
  // waiting for the carry chain; its classic failure mode is firing one
  // position *below* the true sign-run boundary exactly when an incoming
  // carry flips the anticipated boundary bit.  We model that behaviour
  // directly: compute the true boundary, then subtract one position iff the
  // assimilation carry arrives at the boundary — a deterministic function
  // of the operand planes with the same error signature (0 or 1 bit, and
  // the same inputs that trip real anticipators, e.g. full cancellation,
  // trip this one).  The bound est <= run <= est + kLzaMaxError is what the
  // FCS-FMA's widened blocks absorb (Sec. III-G).
  const int w = x.width();
  const CsWord& a = x.sum();
  const CsWord& b = x.carry();
  const CsWord s = (a + b).truncated(w);
  const int run = sign_run(s, w);
  // The boundary is the highest position whose bit differs from the sign
  // (the sign bit itself when there is none); the assimilation's carry
  // into it is s ^ a ^ b there.
  const int boundary = run == w - 1 ? w - 1 : (w - 2) - run;
  const bool carry_hits_boundary =
      s.bit(boundary) != (a.bit(boundary) != b.bit(boundary));
  const int est = run - (carry_hits_boundary ? 1 : 0);
  return {run, est < 0 ? 0 : est};
}

}  // namespace

int leading_sign_run(const CsNum& x) {
  return sign_run(x.to_binary(), x.width());
}

int lza_estimate(const CsNum& x) { return anticipate(x).est; }

int lza_estimate(const CsNum& x, EventLog* events) {
  const Anticipated r = anticipate(x);
  if (events != nullptr && r.run != r.est) {
    events->raise(EventKind::LzaMispredict, r.run - r.est);
  }
  return r.est;
}

}  // namespace csfma
