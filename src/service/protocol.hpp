// JSON-lines service protocol: typed requests, replies and error codes.
//
// csfma_serve speaks newline-delimited JSON on stdin/stdout or a Unix
// socket: one request object per line in, one reply/event object per line
// out (docs/service.md documents every schema).  This header is the typed
// boundary between the wire format and the scheduler: parse_request_line()
// turns a line into a validated Request (or a typed error a session can
// answer with instead of crashing), and the *_reply() renderers produce
// byte-stable reply lines through telemetry/json.hpp's deterministic rules.
//
// Cache-key canonicalization: SubmitRequest::cache_key() hashes only the
// RESULT-DETERMINING fields (mode, unit, rounding, seed, stream geometry,
// shard size — results and activity are functions of these alone).  The
// worker thread count is deliberately excluded: the engine's determinism
// contract makes results byte-identical for any thread count, so a 4-thread
// resubmit of a 1-thread job is a legitimate cache hit.  Requests that
// differ only in JSON member order, whitespace, or explicitly-spelled
// defaults produce the same key.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dse/config.hpp"
#include "engine/sim_engine.hpp"
#include "fma/fma_unit.hpp"
#include "fp/rounding.hpp"

namespace csfma {

/// Wire protocol version.  Requests and replies carry a "proto" field;
/// a request naming any other version is answered with a typed
/// `unsupported_version` error instead of being misinterpreted.  Requests
/// without the field are treated as version 1 (the last unversioned
/// protocol was wire-compatible with version 1).
inline constexpr int kProtoVersion = 1;

/// Upper bound on the points one sweep may expand to (cross-product of
/// its axes) — a hostile or fat-fingered sweep is a bad_request, not an
/// unbounded server-side fan-out.
inline constexpr std::size_t kMaxSweepPoints = 4096;

/// FNV-1a 64-bit running hash; fold more bytes into `h` to chain (the
/// cache key, journal record checksums and sweep digests all use this).
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t h = 0xcbf29ce484222325ULL);
/// A uint64 as 16 lowercase hex digits (the wire spelling of hashes).
std::string hex16(std::uint64_t v);

/// Simulation flavours a job can run (the three SimEngine drivers plus
/// the DSE design-point evaluator).
enum class SimMode {
  Batch,    // run_batch over seeded random triples
  Stream,   // run_stream (memory-bounded; results reduced to a checksum)
  Chained,  // run_chained over the Sec. IV-B recurrence workload
  Model,    // dse::eval_design: timing/area/energy of one design point
};

const char* to_string(SimMode m);
bool parse_sim_mode(std::string_view s, SimMode* out);
bool parse_round(std::string_view s, Round* out);

/// Typed error codes for error replies (docs/service.md#errors).
enum class ServiceError {
  ParseError,    // the line is not a JSON object
  BadRequest,    // missing / ill-typed / out-of-range field
  UnknownType,   // "type" is not submit|sweep|status|cancel|shutdown|stats
  UnknownJob,    // status/cancel named a job id the service never issued
  ShuttingDown,  // submit received after shutdown
  Busy,          // admission control: the pending-job queue is full
  UnsupportedVersion,  // "proto" names a version this daemon cannot speak
  Internal,      // a job failed with an internal error (bug, not bad input)
};

const char* to_string(ServiceError code);

struct SubmitRequest {
  SimMode mode = SimMode::Batch;
  UnitKind unit = UnitKind::Pcs;
  Round rm = Round::NearestEven;
  std::uint64_t seed = 1;
  std::uint64_t ops = 0;     // batch/stream: operation count
                             // model: energy-workload multiply-adds
  std::uint64_t chains = 0;  // chained: independent recurrence chains
  int depth = 18;            // chained: recurrence depth (>= 3)
                             // model: target pipeline depth (>= 1)
  std::uint64_t shard_ops = 8192;
  int threads = 1;     // engine worker threads; 0 = hardware concurrency
  int emin = -8;       // batch/stream operand exponent range
  int emax = 8;
  // Model mode only: the DSE design knobs (dse/config.hpp).
  int block = 55;   // carry-save block size (digits)
  int group = 11;   // explicit-carry spacing (must divide block for pcs)
  int rwidth = 0;   // rounding examination width in bits; 0 = one block
  dse::BlockSelect select = dse::BlockSelect::Lza;  // fcs block selection

  /// Total operations the job will simulate (progress denominator).
  std::uint64_t total_ops() const;

  /// The model-mode design point this request names (mode == Model).
  dse::DseConfig model_config() const;

  /// The canonical result-determining field string (mode-specific fields
  /// only, fixed order, defaults applied) — the memoization identity.
  std::string canonical_key() const;
  /// FNV-1a 64-bit hash of canonical_key(), as 16 lowercase hex digits.
  std::string cache_key() const;
};

/// A server-side parameter sweep: one request fanning into the cross
/// product of its axes.  Axis fields accept a scalar or an array on the
/// wire; parsing normalizes both to a non-empty vector.  Expansion order
/// is fixed (unit outermost, then rounding, seed, ops|chains, depth) so a
/// sweep's point indices — and therefore its streamed `sweep_point`
/// lines and its digest — are deterministic (sweep.hpp).  Model sweeps
/// additionally cross the DSE knob axes (block, group, rwidth, select)
/// between seed and depth.
struct SweepRequest {
  SimMode mode = SimMode::Batch;
  std::vector<UnitKind> units;          // required, >= 1
  std::vector<Round> rms{Round::NearestEven};
  std::vector<std::uint64_t> seeds;     // required, >= 1
  std::vector<std::uint64_t> ops;       // batch/stream: required, >= 1
                                        // model: optional, default {32}
  std::vector<std::uint64_t> chains;    // chained: required, >= 1
  std::vector<int> depths{18};          // chained; model default {8}
  // Model mode only: the DSE knob axes.
  std::vector<int> blocks{55};
  std::vector<int> groups{11};
  std::vector<int> rwidths{0};
  std::vector<dse::BlockSelect> selects{dse::BlockSelect::Lza};
  std::uint64_t shard_ops = 8192;
  int threads = 1;  // engine threads per point
  int emin = -8;
  int emax = 8;

  /// Cross-product cardinality (what kMaxSweepPoints bounds).
  std::size_t point_count() const;
};

struct StatusRequest {
  std::string job;  // "" = report every job
};

struct CancelRequest {
  std::string job;
};

struct ShutdownRequest {};

/// Read-only observability probe: answered inline from the metrics
/// registry, never queued behind the worker pool (docs/service.md#stats).
struct StatsRequest {};

struct Request {
  std::string id;  // client correlation id, echoed verbatim in replies
  /// Optional client-supplied trace correlation id, echoed on every
  /// reply/progress/sweep_point line of this request ("" = absent).
  std::string trace_id;
  /// Optional distributed-tracing parent span id: the caller's span this
  /// request hangs under.  Echoed on every line of the request (like
  /// trace_id) and stamped on the server's req-N span tree so an offline
  /// merge can re-parent it under the caller ("" = absent; legacy clients
  /// simply never send it).
  std::string parent_span;
  std::variant<SubmitRequest, SweepRequest, StatusRequest, CancelRequest,
               ShutdownRequest, StatsRequest>
      op;
};

/// Outcome of parsing one request line: either a Request or a typed error
/// (with the client id echoed when it could still be recovered).
struct ParseOutcome {
  bool ok = false;
  Request request;           // valid iff ok
  ServiceError code = ServiceError::ParseError;  // valid iff !ok
  std::string message;       // valid iff !ok
  std::string id;            // best-effort echo for error replies
  std::string trace_id;      // best-effort echo for error replies
  std::string parent_span;   // best-effort echo for error replies
};

ParseOutcome parse_request_line(const std::string& line);

// ---- reply / event rendering (one JSON line each, no trailing \n) ----
// Every reply/event line starts {"type":...,"proto":1[,"id":...
// [,"trace_id":...][,"parent_span":...]]} — the version stamp lets clients
// assert compatibility on every line, and the trace context (echoed only
// when the request supplied it) lets a client correlate every line of a
// request across interleaved jobs and daemons.  Renderers take the trace
// context as trailing defaulted parameters so trace-less callers render
// the pre-trace bytes.

class JsonWriter;
struct MetricsSnapshot;

/// Open a reply object and emit the shared type/proto/id/trace_id/
/// parent_span prefix (id, trace_id and parent_span are omitted when
/// empty).  The sweep renderers (sweep.cpp) share it.  Keeping the trace
/// context in the PREFIX preserves the "report is the last member" splice
/// convention of result/sweep_point lines.
void begin_reply(JsonWriter& w, const char* type, const std::string& id,
                 const std::string& trace_id = "",
                 const std::string& parent_span = "");

std::string error_reply(const std::string& id, ServiceError code,
                        const std::string& message,
                        const std::string& trace_id = "",
                        const std::string& parent_span = "");

std::string accepted_reply(const std::string& id, const std::string& job,
                           const std::string& cache_key,
                           const std::string& trace_id = "",
                           const std::string& parent_span = "");

/// Structured progress event: EngineConfig::progress lifted onto the wire
/// with the owning job attached (the machine-readable successor of the
/// benches' stderr heartbeat).
struct ProgressEvent {
  std::string job;
  std::string trace_id;     // the owning request's trace id ("" = none)
  std::string parent_span;  // the owning request's parent span ("" = none)
  EngineProgress progress;
};

std::string progress_event_line(const ProgressEvent& ev);

/// Terminal success reply.  `report_json` is a pre-rendered csfma-report-v1
/// document spliced in verbatim — a cache hit therefore repeats the ORIGINAL
/// bytes, which is what makes "byte-identical repeat" testable.
std::string result_reply(const std::string& id, const std::string& job,
                         bool cache_hit, double elapsed_s,
                         const std::string& report_json,
                         const std::string& trace_id = "",
                         const std::string& parent_span = "");

/// Immediate acknowledgement of a cancel request (the job itself terminates
/// with a separate cancelled_reply once its workers stop).
std::string cancel_ok_reply(const std::string& id, const std::string& job,
                            const std::string& state,
                            const std::string& trace_id = "",
                            const std::string& parent_span = "");

/// Terminal reply of a cancelled job: ops_done is observational; partial
/// results are never emitted (BatchStats::aborted contract).
std::string cancelled_reply(const std::string& id, const std::string& job,
                            std::uint64_t ops_done,
                            const std::string& trace_id = "",
                            const std::string& parent_span = "");

struct JobStatus {
  std::string job;
  std::string state;  // queued | running | done | cancelled | failed
  std::uint64_t ops_done = 0;
  std::uint64_t ops_total = 0;
  std::string cache_key;  // empty for sweep jobs (each point has its own)
  // Sweep jobs only (points_total > 0): per-point completion.
  std::uint64_t points_done = 0;
  std::uint64_t points_total = 0;
};

std::string status_reply(const std::string& id,
                         const std::vector<JobStatus>& jobs,
                         const std::string& trace_id = "",
                         const std::string& parent_span = "");

std::string bye_reply(const std::string& id, std::uint64_t completed,
                      std::uint64_t cancelled, std::uint64_t failed,
                      const std::string& trace_id = "",
                      const std::string& parent_span = "");

/// Live stats reply (docs/service.md#stats): daemon uptime, a percentile
/// summary (count/p50/p90/p99 per histogram, from
/// HistogramSnapshot::percentile) and the full metrics registry snapshot
/// in the metrics-file JSON shape.  Everything here is operator-facing
/// Timing data; the reply is not part of the determinism contract.
std::string stats_reply(const std::string& id, double uptime_s,
                        const MetricsSnapshot& metrics,
                        const std::string& trace_id = "",
                        const std::string& parent_span = "");

}  // namespace csfma
