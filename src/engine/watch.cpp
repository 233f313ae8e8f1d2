#include "engine/watch.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "introspect/event_log.hpp"
#include "introspect/hooks.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
  return buf;
}

/// Header comments describing the watched op: operands, result, events.
void annotate(SignalTap& tap, const EventLog& events, std::uint64_t op,
              std::uint64_t a, std::uint64_t b, std::uint64_t c,
              const PFloat& r) {
  tap.vcd().comment("watched op " + std::to_string(op) + ": a=" + hex64(a) +
                    " b=" + hex64(b) + " c=" + hex64(c) +
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
                      Round rm) {
  CSFMA_CHECK(opts.enabled());
  CSFMA_CHECK_MSG(opts.watch_op < src.size(), "--watch index out of range");
  OperandTriple t;
  src.fill(opts.watch_op, &t, 1);

  SignalTap tap(to_string(opts.unit));
  EventLog events(64);
  IntrospectHooks hooks;
  hooks.tap = &tap;
  hooks.events = &events;
  auto unit = make_fma_unit(opts.unit, nullptr, &hooks);

  const std::uint64_t a = t.a.to_bits().lo64();
  const std::uint64_t b = t.b.to_bits().lo64();
  const std::uint64_t c = t.c.to_bits().lo64();
  tap.begin_op(opts.watch_op);
  events.begin_op(opts.watch_op, a, b, c);
  PFloat r = unit->fma_ieee(t.a, t.b, t.c, rm);
  annotate(tap, events, opts.watch_op, a, b, c, r);
  tap.write(opts.vcd_path);
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

  SignalTap tap(to_string(opts.unit));
  EventLog events(64);
  // Hooks stay attached through the whole chain but with null members until
  // the watched op — the documented flip-between-ops pattern.
  IntrospectHooks hooks;
  auto unit = make_fma_unit(opts.unit, nullptr, &hooks);

  std::vector<FmaOperand> natives((std::size_t)opc);
  PFloat watched;
  for (std::uint64_t j = 0; j <= jw; ++j) {
    const ChainedOp& op = ops[(std::size_t)j];
    CSFMA_CHECK(op.a_ref < (std::int64_t)j && op.c_ref < (std::int64_t)j);
    if (j == jw) {
      hooks.tap = &tap;
      hooks.events = &events;
      tap.begin_op(opts.watch_op);
      events.begin_op(opts.watch_op, op.a.to_bits().lo64(),
                      op.b.to_bits().lo64(), op.c.to_bits().lo64());
    }
    FmaOperand a =
        op.a_ref >= 0 ? natives[(std::size_t)op.a_ref] : unit->lift(op.a);
    FmaOperand c =
        op.c_ref >= 0 ? natives[(std::size_t)op.c_ref] : unit->lift(op.c);
    FmaOperand res = unit->fma(a, op.b, c);
    if (j == jw) watched = unit->lower(res, rm);
    natives[(std::size_t)j] = std::move(res);
  }
  annotate(tap, events, opts.watch_op, ops[(std::size_t)jw].a.to_bits().lo64(),
           ops[(std::size_t)jw].b.to_bits().lo64(),
           ops[(std::size_t)jw].c.to_bits().lo64(), watched);
  tap.write(opts.vcd_path);
  return watched;
}

}  // namespace csfma
