// Scheduling of CDFGs onto the operator library.
//
// ASAP/ALAP give per-node mobility and the critical path (zero-slack
// nodes); the resource-constrained list scheduler time-multiplexes a
// limited pool of operator instances (the paper shares "up to 39" FMA
// units across the ldlsolve datapath, Sec. IV-D).  Operators are fully
// pipelined (initiation interval 1): an instance accepts a new operation
// every cycle, so the resource constraint limits *issues per cycle* per
// operator class.
#pragma once

#include <limits>
#include <map>
#include <vector>

#include "hls/ir.hpp"
#include "hls/oplib.hpp"
#include "telemetry/metrics.hpp"

namespace csfma {

struct Schedule {
  std::vector<int> start;  // indexed by node id; -1 for dead nodes
  int length = 0;          // cycles until the last result is available
};

/// What every sweep below walks: one topological order and one latency
/// per node.  A pass that asks several questions of one unchanged graph
/// (FMA insertion: ASAP, ALAP, criticality, its candidate scan) computes
/// it once and passes it to the overloads that take it.
struct TopoTiming {
  std::vector<int> order;    // g.topo_order()
  std::vector<int> latency;  // cycles, by node id; 0 for dead nodes
};
TopoTiming topo_timing(const Cdfg& g, const OperatorLibrary& lib);

/// Unlimited-resource as-soon-as-possible schedule.
Schedule schedule_asap(const Cdfg& g, const OperatorLibrary& lib);
Schedule schedule_asap(const Cdfg& g, const TopoTiming& t);

/// As-late-as-possible schedule against the ASAP length.
Schedule schedule_alap(const Cdfg& g, const OperatorLibrary& lib,
                       int target_length);
Schedule schedule_alap(const Cdfg& g, const TopoTiming& t, int target_length);

/// Zero-slack (critical) node mask from ASAP/ALAP.
std::vector<bool> critical_nodes(const Cdfg& g, const OperatorLibrary& lib);
/// The same, reusing the graph's timing and ASAP schedule.
std::vector<bool> critical_nodes(const Cdfg& g, const TopoTiming& t,
                                 const Schedule& asap);

/// Per-cycle issue limits per operator class (0 = unlimited).
struct ResourceLimits {
  int mul = 0;
  int add_sub = 0;
  int div = 0;
  int fma = 0;  // shared pool across PCS/FCS instances
};

/// Resource-constrained list scheduling (priority: longest path to sink).
Schedule schedule_list(const Cdfg& g, const OperatorLibrary& lib,
                       const ResourceLimits& limits);

/// Human-readable schedule summary: per-kind operation counts with their
/// start-cycle spans and a per-cycle issue histogram — the "schedule view"
/// an HLS report would print.
std::string schedule_report(const Cdfg& g, const OperatorLibrary& lib,
                            const Schedule& s);

/// The machine-readable companion of schedule_report: records
/// <prefix>.length and <prefix>.peak_issue_width gauges, per-kind
/// <prefix>.ops.<kind> counters and a <prefix>.issue_width histogram into
/// `m`.  Everything is a pure function of (CDFG, schedule), so all entries
/// are Deterministic.
void record_schedule_metrics(const Cdfg& g, const OperatorLibrary& lib,
                             const Schedule& s, MetricsRegistry& m,
                             const std::string& prefix = "hls.schedule");

}  // namespace csfma
