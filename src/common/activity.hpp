// Switching-activity probes.
//
// The paper's energy numbers (Table II) come from recording the actual
// switching activity of the post-layout netlist (VCD/SAIF via ISim) and
// feeding it to XPower.  The simulator equivalent: every major component
// output is an ActivityProbe that accumulates the Hamming distance between
// the values it carries on successive evaluations — per-net toggle counts.
// The energy model (src/energy) weights these by per-primitive-class
// coefficients.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/wide_uint.hpp"

namespace csfma {

/// Set bits of `x`, by the SWAR idiom: GCC folds it to one popcnt where the
/// target has that instruction, and otherwise keeps it inline (about 20
/// instructions), where std::popcount calls into libgcc once per word.
constexpr int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (int)((x * 0x0101010101010101ull) >> 56);
}

class ActivityProbe {
 public:
  /// Record the next value of the probed bus; accumulates toggled bits.
  /// Width-faithful for any bus width; successive observations of different
  /// widths are compared zero-extended to the wider of the two.
  template <int W>
  void observe(const WideUint<W>& v) {
    if (has_prev_) {
      const std::size_t n = prev_.size() > (std::size_t)W ? prev_.size()
                                                          : (std::size_t)W;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t p = i < prev_.size() ? prev_[i] : 0;
        const std::uint64_t c = i < (std::size_t)W ? v.word((int)i) : 0;
        toggles_ += (std::uint64_t)popcount64(p ^ c);
      }
    }
    prev_.resize((std::size_t)W);
    for (int i = 0; i < W; ++i) prev_[(std::size_t)i] = v.word(i);
    has_prev_ = true;
    ++observations_;
  }

  /// Bulk observation in bit-plane (SoA) form: planes[b] bit L holds bit b
  /// of lane L's value (engine/slice.hpp layout), and the set bits of
  /// `lanes` name the lanes that drive this bus.  Exactly equivalent to
  /// observe() calls of width `width_bits` for the set lanes, in lane
  /// order, in one pass over the planes: each plane yields the first set
  /// lane's bit (the seam against the stored baseline, compared
  /// zero-extended as observe() does), the toggles between successive set
  /// lanes, and the last set lane's bit (the new baseline).  Unset lanes
  /// may hold anything; an empty mask observes nothing.
  void observe_planes(const std::uint64_t* planes, int width_bits,
                      std::uint64_t lanes) {
    if (lanes == 0) return;
    const int first = std::countr_zero(lanes);
    const int last = 63 - std::countl_zero(lanes);
    const std::uint64_t run = lanes >> first;
    if ((run & (run + 1)) == 0) {
      // No gap: each set lane past the first follows its neighbour.
      count_planes(planes, width_bits, lanes, first, last,
                   [](std::uint64_t p) { return p; });
    } else {
      // Gaps: fill each unset lane with the last set lane below it (the
      // carry of ~lanes + c runs up each unset run that a set 1 starts),
      // so that a set lane's neighbour holds its predecessor's bit.
      const std::uint64_t idle = ~lanes;
      count_planes(planes, width_bits, lanes, first, last,
                   [lanes, idle](std::uint64_t p) {
                     const std::uint64_t a = p & lanes;
                     const std::uint64_t c = (a << 1) & idle;
                     return a | (((idle + c) ^ idle) & idle);
                   });
    }
    observations_ += (std::uint64_t)popcount64(lanes);
  }

  std::uint64_t toggles() const { return toggles_; }
  std::uint64_t observations() const { return observations_; }

  /// Pipeline-stage label ("mul", "add", ...) for per-stage attribution;
  /// empty = unattributed.  Labels classify a probe, they do not affect
  /// counting, so merge adopts a label rather than summing it.
  const std::string& stage() const { return stage_; }
  void set_stage(const std::string& stage) { stage_ = stage; }

  /// Fold another probe's accumulated counts into this one.  Totals add;
  /// the last-value baseline is NOT transferred, so no cross-probe toggle
  /// is invented at the seam (each shard of a partitioned run sets its own
  /// baseline, exactly as independent hardware captures would).
  void merge_from(const ActivityProbe& o) {
    toggles_ += o.toggles_;
    observations_ += o.observations_;
    if (stage_.empty()) stage_ = o.stage_;
  }

  void reset() {
    toggles_ = 0;
    observations_ = 0;
    has_prev_ = false;
    prev_.clear();
  }

 private:
  /// observe_planes' pass: `fill` maps a plane to one whose lanes between
  /// `first` and `last` each hold the bit of the last set lane at or below
  /// them, so a set lane's toggle is its bit XOR its neighbour's.
  template <class Fill>
  void count_planes(const std::uint64_t* planes, int width_bits,
                    std::uint64_t lanes, int first, int last, Fill fill) {
    const std::size_t words = ((std::size_t)width_bits + 63) / 64;
    // Every set lane but the first toggles against its predecessor; the
    // first one's toggle is the seam.
    const std::uint64_t pairs = lanes & (lanes - 1);
    std::uint64_t t = 0;
    // A wider baseline's extra words meet zeros; a narrower one reads as
    // zero-extended.
    if (has_prev_)
      for (std::size_t wi = words; wi < prev_.size(); ++wi)
        t += (std::uint64_t)popcount64(prev_[wi]);
    prev_.resize(words);
    for (std::size_t wi = 0; wi < words; ++wi) {
      const std::uint64_t* p = planes + wi * 64;
      const int nb = width_bits - (int)wi * 64 < 64 ? width_bits - (int)wi * 64
                                                    : 64;
      std::uint64_t seam = 0, newest = 0;
      for (int b = 0; b < nb; ++b) {
        seam |= ((p[b] >> first) & 1u) << b;
        newest |= ((p[b] >> last) & 1u) << b;
        const std::uint64_t f = fill(p[b]);
        t += (std::uint64_t)popcount64((f ^ (f << 1)) & pairs);
      }
      if (has_prev_) t += (std::uint64_t)popcount64(prev_[wi] ^ seam);
      prev_[wi] = newest;
    }
    toggles_ += t;
    has_prev_ = true;
  }

  std::vector<std::uint64_t> prev_;
  bool has_prev_ = false;
  std::uint64_t toggles_ = 0;
  std::uint64_t observations_ = 0;
  std::string stage_;
};

/// A named collection of probes, one per component output of a unit.
class ActivityRecorder {
 public:
  ActivityProbe& probe(const std::string& name) { return probes_[name]; }
  /// Probe lookup that also (idempotently) labels the probe's pipeline
  /// stage — the instrumentation sites' entry point for stage attribution.
  ActivityProbe& probe(const std::string& name, const std::string& stage) {
    ActivityProbe& p = probes_[name];
    if (p.stage().empty()) p.set_stage(stage);
    return p;
  }
  const std::map<std::string, ActivityProbe>& probes() const { return probes_; }

  /// Sum of toggle counts over all probes.
  std::uint64_t total_toggles() const {
    std::uint64_t t = 0;
    for (const auto& [name, p] : probes_) t += p.toggles();
    return t;
  }

  /// Per-stage rollup of the probe counts.  Unlabelled probes land under
  /// the empty-string stage, so the values always sum to total_toggles().
  struct StageTotals {
    std::uint64_t toggles = 0;
    std::uint64_t observations = 0;
  };
  std::map<std::string, StageTotals> stage_totals() const {
    std::map<std::string, StageTotals> out;
    for (const auto& [name, p] : probes_) {
      StageTotals& st = out[p.stage()];
      st.toggles += p.toggles();
      st.observations += p.observations();
    }
    return out;
  }

  /// Fold another recorder's counts into this one, probe by probe (probes
  /// absent here are created).  Used to combine per-shard recorders of a
  /// partitioned run into one deterministic aggregate.
  void merge_from(const ActivityRecorder& o) {
    for (const auto& [name, p] : o.probes_) probes_[name].merge_from(p);
  }

  /// Snapshot as a JSON object — the per-probe and per-stage view of the
  /// Table II toggle data, embeddable in experiment reports.  Probe and
  /// stage order is sorted (map order) and all values are integers (stage
  /// labels escape like probe names), so equal recorders render to
  /// byte-identical JSON whatever the capture's thread count.
  std::string to_json() const {
    auto quoted = [](const std::string& s) {
      std::string q = "\"";
      for (char c : s) {  // names are identifiers; escape minimally
        if (c == '"' || c == '\\') q += '\\';
        q += c;
      }
      q += '"';
      return q;
    };
    std::string out = "{\"total_toggles\":" + std::to_string(total_toggles()) +
                      ",\"stages\":{";
    bool first = true;
    for (const auto& [stage, st] : stage_totals()) {
      if (!first) out += ',';
      first = false;
      out += quoted(stage) + ":{\"toggles\":" + std::to_string(st.toggles) +
             ",\"observations\":" + std::to_string(st.observations) + "}";
    }
    out += "},\"probes\":{";
    first = true;
    for (const auto& [name, p] : probes_) {
      if (!first) out += ',';
      first = false;
      out += quoted(name) + ":{\"stage\":" + quoted(p.stage()) +
             ",\"toggles\":" + std::to_string(p.toggles()) +
             ",\"observations\":" + std::to_string(p.observations()) + "}";
    }
    out += "}}";
    return out;
  }

  void reset() {
    for (auto& [name, p] : probes_) p.reset();
  }

 private:
  std::map<std::string, ActivityProbe> probes_;
};

/// A probe's name and pipeline-stage label, as a unit's instrumentation
/// names it.
struct ProbeName {
  const char* name;
  const char* stage;
};

/// A unit's probes, looked up by name once: slot i points at the
/// recorder's probe names[i] from that probe's first observation on
/// (std::map nodes never move), so later observations skip the string
/// building and the map search.  A probe is created at its first
/// observation, not before, so the recorder lists exactly the probes the
/// unit observed.  A null recorder turns the unit's activity off.
template <std::size_t N>
class ProbeHandles {
 public:
  ProbeHandles(ActivityRecorder* rec, const ProbeName (&names)[N])
      : rec_(rec), names_(names) {}

  explicit operator bool() const { return rec_ != nullptr; }

  ActivityProbe& operator[](std::size_t i) {
    ActivityProbe* p = probes_[i];
    return p != nullptr ? *p : resolve(i);
  }

 private:
  ActivityProbe& resolve(std::size_t i) {
    probes_[i] = &rec_->probe(names_[i].name, names_[i].stage);
    return *probes_[i];
  }

  ActivityRecorder* rec_;
  const ProbeName* names_;
  std::array<ActivityProbe*, N> probes_{};
};

}  // namespace csfma
