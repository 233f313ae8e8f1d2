#include "engine/watch.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "introspect/hooks.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
  return buf;
}

/// Header comments describing the watched op: the operands `events` was
/// stamped with, the result and the op's events.
void annotate(SignalTap& tap, const EventLog& events, const PFloat& r) {
  const NumEvent& op = events.context();
  tap.vcd().comment("watched op " + std::to_string(op.op) +
                    ": a=" + hex64(op.a_bits) + " b=" + hex64(op.b_bits) +
                    " c=" + hex64(op.c_bits) +
                    " r=" + hex64(r.to_bits().lo64()));
  for (const NumEvent& e : events.events()) {
    tap.vcd().comment(std::string("event ") + to_string(e.kind) +
                      " detail=" + std::to_string(e.detail));
  }
}

}  // namespace

WatchOptions extract_watch_args(std::vector<std::string>& args) {
  WatchOptions opts;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--vcd" || a == "--watch" || a == "--unit") {
      CSFMA_CHECK_MSG(i + 1 < args.size(), "missing value after --vcd/--watch/--unit");
      const std::string& v = args[++i];
      if (a == "--vcd") {
        opts.vcd_path = v;
      } else if (a == "--watch") {
        opts.watch_op = (std::uint64_t)std::strtoull(v.c_str(), nullptr, 10);
      } else {
        CSFMA_CHECK_MSG(parse_unit_kind(v, &opts.unit),
                        "--unit must be one of: discrete classic pcs fcs");
        opts.unit_set = true;
      }
    } else {
      rest.push_back(a);
    }
  }
  args = std::move(rest);
  return opts;
}

WatchOptions extract_watch_args(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return extract_watch_args(args);
}

PFloat run_watched_op(const WatchOptions& opts, const OperandSource& src,
                      Round rm, SignalTap* tap, EventLog* events) {
  CSFMA_CHECK(opts.enabled());
  CSFMA_CHECK_MSG(opts.watch_op < src.size(), "--watch index out of range");
  OperandTriple t;
  src.fill(opts.watch_op, &t, 1);

  SignalTap own_tap(to_string(opts.unit));
  EventLog own_events(64);
  SignalTap& tp = tap != nullptr ? *tap : own_tap;
  EventLog& ev = events != nullptr ? *events : own_events;
  IntrospectHooks hooks;
  hooks.tap = &tp;
  hooks.events = &ev;
  auto unit = make_fma_unit(opts.unit, nullptr, &hooks);

  tp.begin_op(opts.watch_op);
  ev.begin_op(opts.watch_op, t.a.to_bits().lo64(), t.b.to_bits().lo64(),
              t.c.to_bits().lo64());
  PFloat r = unit->fma_ieee(t.a, t.b, t.c, rm);
  annotate(tp, ev, r);
  if (tap == nullptr) tp.write(opts.vcd_path);
  return r;
}

PFloat run_watched_chained(const WatchOptions& opts, const ChainSource& src,
                           Round rm) {
  CSFMA_CHECK(opts.enabled());
  const std::uint64_t opc = src.ops_per_chain();
  CSFMA_CHECK(opc >= 1);
  CSFMA_CHECK_MSG(opts.watch_op < src.chains() * opc,
                  "--watch index out of range");
  const std::uint64_t g = opts.watch_op / opc;
  const std::uint64_t jw = opts.watch_op % opc;
  std::vector<ChainedOp> ops((std::size_t)opc);
  src.fill_chain(g, ops.data());
  std::vector<FmaOperand> natives((std::size_t)opc);
  std::vector<PFloat> results((std::size_t)opc);

  SignalTap tap(to_string(opts.unit));
  EventLog events(64);
  // Hooks stay attached through the whole chain but with null members until
  // the watched op — the documented flip-between-ops pattern.
  IntrospectHooks hooks;
  auto unit = make_fma_unit(opts.unit, nullptr, &hooks);
  FmaBatchHooks bh;
  bh.rm = rm;
  bh.base_index = g * opc;
  step_chain(*unit, ops.data(), 0, jw, natives.data(), results.data(), bh);
  hooks.tap = &tap;
  hooks.events = &events;
  bh.events = &events;
  tap.begin_op(opts.watch_op);
  step_chain(*unit, ops.data(), jw, jw + 1, natives.data(), results.data(),
             bh);
  annotate(tap, events, results[(std::size_t)jw]);
  tap.write(opts.vcd_path);
  return results[(std::size_t)jw];
}

}  // namespace csfma
