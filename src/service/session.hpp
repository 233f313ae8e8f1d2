// The simulation service: a JSON-lines session multiplexing submitted jobs
// onto a bounded SimEngine worker pool.
//
// One ServiceSession owns one request/reply stream (stdin/stdout, one Unix
// socket connection, or a test harness): handle_line() parses a request,
// answers malformed input with typed error replies, and runs accepted
// submissions on `workers` pool threads — each job is a SimEngine run whose
// structured progress events (protocol.hpp ProgressEvent) stream back
// interleaved with other replies.  Completed results are rendered once as a
// csfma-report-v1 document, memoized in the ResultCache under the request's
// canonical key, and replayed byte-identically on repeat submissions.
// Cancellation sets the job's abort flag (checked by the engine at shard
// claim boundaries); a cancelled job terminates with a `cancelled` reply
// and never emits or caches partial results.
//
// Determinism: the report payload contains only Deterministic data (no
// wall clock, no thread count), so two sessions running the same request
// with different worker/thread counts produce byte-identical payloads —
// the service-path extension of the engine's determinism contract, gated
// in CI (docs/service.md).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/cache.hpp"
#include "service/log.hpp"
#include "service/protocol.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace csfma {

struct ServiceConfig {
  /// Pool threads running jobs (concurrent jobs); each job may itself use
  /// SubmitRequest::threads engine workers.
  int workers = 2;
  /// Result-cache capacity in entries; 0 disables memoization.  Ignored
  /// when a shared `cache` is supplied.
  std::size_t cache_entries = 64;
  /// Admission control: submissions beyond this many queued-not-yet-
  /// running jobs are rejected with a typed `busy` error instead of
  /// queueing without bound (a full queue must surface as backpressure,
  /// never as a hang).  0 = unlimited.  Cache hits bypass the queue and
  /// are never rejected.
  std::size_t max_pending = 256;
  /// Progress heartbeat interval handed to EngineConfig::progress_interval_s.
  double progress_interval_s = 0.5;
  /// Optional shared sinks (not owned; must outlive the session).  The
  /// session counts service.requests / service.errors /
  /// service.jobs.{submitted,completed,cancelled,failed}, per-request-type
  /// counters, per-type/per-outcome latency histograms, queue-wait
  /// histograms and the cache's service.cache.*.  When null the session
  /// owns a private registry, so the `stats` request always has something
  /// to report.
  MetricsRegistry* metrics = nullptr;
  ResultCache* cache = nullptr;  // null = the session owns a private cache
  /// Request-scoped tracing sink (not owned).  Each request contributes
  /// parse / cache-lookup / queue-wait / engine-run / render spans tagged
  /// with its server request id, and EngineConfig::trace is pointed here
  /// so engine shard spans nest in the same timeline.  Null = no tracing
  /// (pointer-test cost only).
  TraceSession* trace = nullptr;
  /// Structured server log (not owned).  Null = no logging.
  ServiceLog* log = nullptr;
  /// Connection name stamped on this session's log lines ("stdio" for the
  /// stdio transport; serve_connections assigns "conn-N").
  std::string conn = "stdio";
  /// Log a supplementary slow_request line when a request's latency
  /// exceeds this many milliseconds; 0 disables.
  double slow_ms = 0.0;
  /// Daemon start time reported as `uptime_s` by the stats reply.
  /// Default (epoch) = the session's own construction time.
  std::chrono::steady_clock::time_point start_time{};
};

class ServiceSession {
 public:
  /// `write` receives one rendered reply/event line (no trailing newline),
  /// serialized — never invoked concurrently.
  using WriteFn = std::function<void(const std::string&)>;

  ServiceSession(ServiceConfig cfg, WriteFn write);
  ~ServiceSession();
  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;

  /// Handle one request line (sans newline).  Every line gets at least one
  /// reply; malformed lines get typed error replies, never an exception.
  void handle_line(const std::string& line);

  /// Block until no job is queued or running.
  void wait_idle();

  /// Non-blocking idle probe (the transport layer's idle-timeout logic:
  /// a connection with work in flight is never "idle").
  bool idle() const;

  /// True once a shutdown request was handled; the read loop should stop
  /// feeding lines and call finish().
  bool shutdown_requested() const;

  /// Drain (wait_idle) and emit the final bye reply exactly once.
  void finish();

  std::uint64_t jobs_completed() const;
  std::uint64_t jobs_cancelled() const;

 private:
  enum class JobState { Queued, Running, Done, Cancelled, Failed };
  static const char* state_name(JobState s);

  /// The per-request context threaded from handle_line() to the terminal
  /// reply: client correlation id, trace id, server-assigned request id
  /// ("req-N"), and the arrival time the latency histograms measure from.
  struct RequestCtx {
    std::string id;
    std::string trace_id;
    std::string parent_span;  // caller's span id, echoed with the trace id
    std::string req;
    std::chrono::steady_clock::time_point t0{};
  };

  struct Job {
    std::uint64_t seq = 0;   // the N of the id
    std::string id;          // service-assigned "job-N"
    std::string request_id;  // client correlation id of the submit/sweep
    std::string trace_id;    // client trace id, echoed on every job line
    std::string parent_span;  // caller's span id, echoed on every job line
    std::string req_tag;     // server request id of the originating request
    const char* type = "submit";  // request_end type: "submit" | "sweep"
    std::chrono::steady_clock::time_point t_begin{};    // request arrival
    std::chrono::steady_clock::time_point t_enqueue{};  // queue admission
    std::uint64_t trace_enq_us = 0;  // enqueue time on the trace clock
    std::string cache_key;   // submit jobs; empty for sweeps
    SubmitRequest req;       // submit jobs; unused for sweeps
    /// Sweep jobs: the expanded points, in index order (empty = submit).
    std::vector<SubmitRequest> points;
    std::uint64_t ops_total = 0;
    std::atomic<JobState> state{JobState::Queued};
    std::atomic<bool> abort{false};
    std::atomic<std::uint64_t> ops_done{0};
    std::atomic<std::uint64_t> points_done{0};

    RequestCtx ctx() const {
      return {request_id, trace_id, parent_span, req_tag, t_begin};
    }
  };

  void emit(const std::string& line);
  /// Record a request's terminal outcome: observe its
  /// service.latency_ms.<type>.<outcome> histogram and write the
  /// request_end (and, past slow_ms, slow_request) log lines.  MUST run
  /// before the terminal reply is emitted, so a client that saw the reply
  /// can rely on the log line already existing.
  void finish_request(const char* type, const char* outcome,
                      const RequestCtx& ctx, const std::string& job_id = "");
  void worker_loop(int worker);
  void run_job(Job& job, int worker);
  void run_submit(Job& job, int worker);
  /// Sweep execution: points sequentially, each cache-deduplicated and
  /// streamed as a sweep_point line; terminal sweep_done with the digest.
  void run_sweep(Job& job, int worker);
  /// Simulate `req` and render its deterministic result payload (with
  /// `cache_key` as its identity in the report meta); returns false
  /// (without a payload) when the run was aborted.  `base_ops` offsets the
  /// job-level progress for sweep points that already completed.
  bool simulate(const SubmitRequest& req, const std::string& cache_key,
                Job& job, std::uint64_t base_ops, int worker,
                std::string* payload, std::uint64_t* ops_done);
  /// Admission control (call with mu_ held): true when the pending queue
  /// is full, in which case the caller answers `busy` instead of queueing.
  bool reject_if_busy_locked(const char* type, const RequestCtx& ctx);
  void enqueue(Job* job);
  /// Take a job whose terminal reply has been written out of the live set
  /// (call with mu_ held; frees the job): its final status joins the ring
  /// of the last kRetiredJobs, which `status` and `cancel` still answer.
  void retire_locked(Job& job);
  static JobStatus status_of(const Job& job);
  void mark_cancelled(Job& job);
  /// Adjust the running-sweep count and mirror it into the
  /// service.sweep.active gauge.
  void sweep_active(int delta);

  void on_submit(const RequestCtx& ctx, const SubmitRequest& req);
  void on_sweep(const RequestCtx& ctx, const SweepRequest& req);
  void on_status(const RequestCtx& ctx, const StatusRequest& req);
  void on_cancel(const RequestCtx& ctx, const CancelRequest& req);
  void on_shutdown(const RequestCtx& ctx);
  void on_stats(const RequestCtx& ctx);

  ServiceConfig cfg_;
  WriteFn write_;
  std::unique_ptr<ResultCache> owned_cache_;
  ResultCache* cache_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;  // never null (owned_metrics_ backs it)
  std::chrono::steady_clock::time_point start_;

  Counter* m_requests = nullptr;
  Counter* m_errors = nullptr;
  Counter* m_submitted = nullptr;
  Counter* m_sweeps = nullptr;
  Counter* m_completed = nullptr;
  Counter* m_cancelled = nullptr;
  Counter* m_failed = nullptr;
  Counter* m_rejected = nullptr;
  Counter* m_sweep_points = nullptr;
  Counter* m_sweep_points_cached = nullptr;
  Gauge* m_sweeps_active = nullptr;
  Gauge* m_queue_depth = nullptr;
  Histogram* m_queue_wait = nullptr;

  mutable std::mutex mu_;  // jobs_, queue_, flags, terminal counters
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  static constexpr std::size_t kRetiredJobs = 64;
  std::vector<std::unique_ptr<Job>> jobs_;  // live jobs, in submission order
  std::unordered_map<std::string, Job*> by_id_;
  /// (seq, terminal status) of the last kRetiredJobs retired jobs, oldest
  /// first.
  std::deque<std::pair<std::uint64_t, JobStatus>> retired_;
  std::deque<Job*> queue_;
  int active_ = 0;
  int active_sweeps_ = 0;
  bool stop_ = false;
  bool shutdown_ = false;
  bool bye_sent_ = false;
  std::string shutdown_id_;
  std::string shutdown_trace_id_;
  std::string shutdown_parent_span_;
  std::uint64_t next_job_ = 1;
  std::uint64_t next_request_ = 1;
  std::uint64_t completed_ = 0, cancelled_ = 0, failed_ = 0;

  std::mutex write_mu_;
  std::vector<std::thread> pool_;
};

}  // namespace csfma
