// `--vcd <file> --watch <op-index>` support (fig13_latency's flags).
//
// Signal-level introspection of ONE operation of an operand stream: the
// selected op is re-simulated on a fresh unit instance with a SignalTap
// and an EventLog attached, and the captured waveform is written as a VCD
// file (docs/observability.md has the GTKWave quick-start).  Because
// operand sources are pure functions of the index, the watched op is
// bit-identical to the one the engine simulated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/sim_engine.hpp"

namespace csfma {

struct WatchOptions {
  std::string vcd_path;         // empty = no watch requested
  std::uint64_t watch_op = 0;   // stream index of the operation to record
  bool unit_set = false;        // --unit was given
  UnitKind unit = UnitKind::Pcs;

  bool enabled() const { return !vcd_path.empty(); }
};

/// Strip `--vcd <file>`, `--watch <index>` and `--unit <name>` from an
/// argv-style vector (leaving every other argument in place, in order) and
/// return the parsed options.  CHECK-fails on a missing value or a bad
/// unit name.
WatchOptions extract_watch_args(std::vector<std::string>& args);
WatchOptions extract_watch_args(int argc, char** argv);

/// Simulate operation `opts.watch_op` of `src` on a fresh unit of kind
/// `opts.unit` with a SignalTap + EventLog attached, and write the VCD to
/// `opts.vcd_path`.  The op's operands, result and any events it raised
/// are embedded as header comments.  Returns the op's IEEE result.  A
/// caller that passes its own `tap` (to trace more behind the op) writes
/// it itself; `events`, when given, is the log the op records into.
PFloat run_watched_op(const WatchOptions& opts, const OperandSource& src,
                      Round rm = Round::NearestEven, SignalTap* tap = nullptr,
                      EventLog* events = nullptr);

/// Chained-stream variant: re-simulates the chain containing
/// `opts.watch_op` through step_chain, as run_chained does (operands may
/// be native results of earlier chain ops), and records ONLY the watched
/// operation's cycles.  Returns the watched op's IEEE readout.
PFloat run_watched_chained(const WatchOptions& opts, const ChainSource& src,
                           Round rm = Round::NearestEven);

}  // namespace csfma
