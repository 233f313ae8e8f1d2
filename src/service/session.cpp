#include "service/session.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "common/check.hpp"
#include "dse/eval.hpp"
#include "energy/workload.hpp"
#include "service/sweep.hpp"
#include "telemetry/report.hpp"

namespace csfma {

namespace {

/// Order-independent result digest: per-operation splitmix of (index,
/// result bits), combined by modular addition so streaming shards can be
/// folded in completion order and still match a sequential batch.
std::uint64_t mix_result(std::uint64_t index, std::uint64_t bits) {
  std::uint64_t x = index * 0x9e3779b97f4a7c15ULL ^ bits;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t checksum_range(std::uint64_t start, const PFloat* results,
                             std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i)
    sum += mix_result(start + i, results[i].to_bits().lo64());
  return sum;
}

/// Fixed request-latency bucket bounds, milliseconds.  Shared by every
/// service.latency_ms.<type>.<outcome> histogram and the queue-wait
/// histogram so stats percentiles are comparable across request types.
const std::vector<double>& latency_bounds_ms() {
  static const std::vector<double> bounds = {0.1, 0.3,  1.0,   3.0,   10.0,
                                             30.0, 100.0, 300.0, 1000.0,
                                             3000.0, 10000.0};
  return bounds;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const char* ServiceSession::state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
    case JobState::Failed: return "failed";
  }
  return "?";
}

ServiceSession::ServiceSession(ServiceConfig cfg, WriteFn write)
    : cfg_(cfg), write_(std::move(write)) {
  CSFMA_CHECK(write_ != nullptr);
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.metrics == nullptr) {
    // Always have a registry: the stats request and the queue-depth gauge
    // must work whether or not the embedder attached a shared one.
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = cfg_.metrics;
  }
  if (cfg_.cache == nullptr) {
    owned_cache_ = std::make_unique<ResultCache>(cfg_.cache_entries, metrics_);
    cache_ = owned_cache_.get();
  } else {
    cache_ = cfg_.cache;
  }
  start_ = cfg_.start_time == std::chrono::steady_clock::time_point{}
               ? std::chrono::steady_clock::now()
               : cfg_.start_time;
  // Timing stability: request/job counts track the arrival order of the
  // request stream, not the simulation seed, so they are exempt from the
  // byte-identical-export contract Deterministic metrics carry.
  m_requests = &metrics_->counter("service.requests", Stability::Timing);
  m_errors = &metrics_->counter("service.errors", Stability::Timing);
  m_submitted =
      &metrics_->counter("service.jobs.submitted", Stability::Timing);
  m_sweeps = &metrics_->counter("service.jobs.sweeps", Stability::Timing);
  m_completed =
      &metrics_->counter("service.jobs.completed", Stability::Timing);
  m_cancelled =
      &metrics_->counter("service.jobs.cancelled", Stability::Timing);
  m_failed = &metrics_->counter("service.jobs.failed", Stability::Timing);
  m_rejected =
      &metrics_->counter("service.jobs.rejected", Stability::Timing);
  // Sweep telemetry for live dashboards (service_top): points streamed,
  // points answered from cache, and sweeps currently executing.
  m_sweep_points =
      &metrics_->counter("service.sweep.points", Stability::Timing);
  m_sweep_points_cached =
      &metrics_->counter("service.sweep.points_cached", Stability::Timing);
  m_sweeps_active =
      &metrics_->gauge("service.sweep.active", Stability::Timing);
  m_sweeps_active->set(0.0);
  m_queue_depth = &metrics_->gauge("service.queue.depth", Stability::Timing);
  m_queue_depth->set(0.0);
  m_queue_wait = &metrics_->histogram("service.queue_wait_ms",
                                      latency_bounds_ms(), Stability::Timing);
  pool_.reserve((std::size_t)cfg_.workers);
  for (int w = 0; w < cfg_.workers; ++w)
    pool_.emplace_back([this, w] { worker_loop(w + 1); });
}

ServiceSession::~ServiceSession() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

void ServiceSession::emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mu_);
  write_(line);
}

namespace {

/// The wire type name of a parsed request (for per-type metrics and log
/// lines); unparsable lines are typed "invalid".
const char* request_type_name(const ParseOutcome& out) {
  if (!out.ok) return "invalid";
  if (std::holds_alternative<SubmitRequest>(out.request.op)) return "submit";
  if (std::holds_alternative<SweepRequest>(out.request.op)) return "sweep";
  if (std::holds_alternative<StatusRequest>(out.request.op)) return "status";
  if (std::holds_alternative<CancelRequest>(out.request.op)) return "cancel";
  if (std::holds_alternative<StatsRequest>(out.request.op)) return "stats";
  return "shutdown";
}

}  // namespace

void ServiceSession::finish_request(const char* type, const char* outcome,
                                    const RequestCtx& ctx,
                                    const std::string& job_id) {
  const double ms = ms_since(ctx.t0);
  metrics_
      ->histogram(
          "service.latency_ms." + std::string(type) + "." + outcome,
          latency_bounds_ms(), Stability::Timing)
      .observe(ms);
  if (cfg_.log == nullptr) return;
  {
    ServiceLog::Line l = cfg_.log->line("request_end");
    l.det("conn", cfg_.conn).det("req", ctx.req).det("type", type);
    if (!ctx.id.empty()) l.det("id", ctx.id);
    if (!ctx.trace_id.empty()) l.det("trace_id", ctx.trace_id);
    if (!ctx.parent_span.empty()) l.det("parent_span", ctx.parent_span);
    if (!job_id.empty()) l.det("job", job_id);
    l.det("outcome", outcome);
    l.timing("latency_ms", ms);
  }
  if (cfg_.slow_ms > 0.0 && ms > cfg_.slow_ms) {
    cfg_.log->line("slow_request")
        .det("conn", cfg_.conn)
        .det("req", ctx.req)
        .det("type", type)
        .timing("latency_ms", ms);
  }
}

void ServiceSession::handle_line(const std::string& line) {
  RequestCtx ctx;
  ctx.t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ctx.req = "req-" + std::to_string(next_request_++);
  }
  m_requests->add();
  ParseOutcome out;
  {
    TraceSpan span(cfg_.trace, "parse", "service");
    span.arg("req", ctx.req);
    out = parse_request_line(line);
    // The caller's trace context, stamped on every server span of this
    // request so trace_merge.py can hang the req-N tree under the caller's
    // chunk span in the merged fleet timeline.
    if (!out.trace_id.empty()) span.arg("trace", out.trace_id);
    if (!out.parent_span.empty()) span.arg("parent", out.parent_span);
  }
  ctx.id = out.id;
  ctx.trace_id = out.trace_id;
  ctx.parent_span = out.parent_span;
  const char* type = request_type_name(out);
  metrics_->counter("service.requests." + std::string(type), Stability::Timing)
      .add();
  if (cfg_.log != nullptr) {
    ServiceLog::Line l = cfg_.log->line("request_begin");
    l.det("conn", cfg_.conn).det("req", ctx.req).det("type", type);
    if (!ctx.id.empty()) l.det("id", ctx.id);
    if (!ctx.trace_id.empty()) l.det("trace_id", ctx.trace_id);
    if (!ctx.parent_span.empty()) l.det("parent_span", ctx.parent_span);
  }
  if (!out.ok) {
    m_errors->add();
    finish_request(type, "error", ctx);
    emit(error_reply(out.id, out.code, out.message, out.trace_id,
                     out.parent_span));
    return;
  }
  if (const auto* req = std::get_if<SubmitRequest>(&out.request.op)) {
    on_submit(ctx, *req);
  } else if (const auto* sw = std::get_if<SweepRequest>(&out.request.op)) {
    on_sweep(ctx, *sw);
  } else if (const auto* st = std::get_if<StatusRequest>(&out.request.op)) {
    on_status(ctx, *st);
  } else if (const auto* cn = std::get_if<CancelRequest>(&out.request.op)) {
    on_cancel(ctx, *cn);
  } else if (std::holds_alternative<StatsRequest>(out.request.op)) {
    on_stats(ctx);
  } else {
    on_shutdown(ctx);
  }
}

bool ServiceSession::reject_if_busy_locked(const char* type,
                                           const RequestCtx& ctx) {
  if (cfg_.max_pending == 0 || queue_.size() < cfg_.max_pending)
    return false;
  m_errors->add();
  m_rejected->add();
  if (cfg_.log != nullptr) {
    ServiceLog::Line l = cfg_.log->line("reject");
    l.det("conn", cfg_.conn).det("req", ctx.req).det("type", type);
    if (!ctx.id.empty()) l.det("id", ctx.id);
    l.det("reason", "busy");
  }
  finish_request(type, "busy", ctx);
  emit(error_reply(ctx.id, ServiceError::Busy,
                   "pending queue full (" + std::to_string(queue_.size()) +
                       " jobs); retry later",
                   ctx.trace_id, ctx.parent_span));
  return true;
}

void ServiceSession::enqueue(Job* job) {
  job->t_enqueue = std::chrono::steady_clock::now();
  if (cfg_.trace != nullptr) job->trace_enq_us = cfg_.trace->now_us();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(job);
    m_queue_depth->set((double)queue_.size());
  }
  queue_cv_.notify_one();
}

void ServiceSession::on_submit(const RequestCtx& ctx,
                               const SubmitRequest& req) {
  // The cache probe happens before admission control: a memoized result
  // costs no pool slot, so a full queue must not reject it.
  const std::string cache_key = req.cache_key();
  std::optional<std::string> hit;
  {
    TraceSpan span(cfg_.trace, "cache-lookup", "service");
    span.arg("req", ctx.req);
    span.arg("key", cache_key);
    if (!ctx.trace_id.empty()) span.arg("trace", ctx.trace_id);
    if (!ctx.parent_span.empty()) span.arg("parent", ctx.parent_span);
    hit = cache_->get(cache_key);
  }
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      m_errors->add();
      finish_request("submit", "error", ctx);
      emit(error_reply(ctx.id, ServiceError::ShuttingDown,
                       "service is shutting down", ctx.trace_id,
                       ctx.parent_span));
      return;
    }
    if (!hit && reject_if_busy_locked("submit", ctx)) return;
    auto j = std::make_unique<Job>();
    j->seq = next_job_++;
    j->id = "job-" + std::to_string(j->seq);
    j->request_id = ctx.id;
    j->trace_id = ctx.trace_id;
    j->parent_span = ctx.parent_span;
    j->req_tag = ctx.req;
    j->type = "submit";
    j->t_begin = ctx.t0;
    j->req = req;
    j->cache_key = cache_key;
    j->ops_total = req.total_ops();
    job = j.get();
    by_id_[j->id] = job;
    jobs_.push_back(std::move(j));
  }
  m_submitted->add();
  emit(accepted_reply(ctx.id, job->id, job->cache_key, ctx.trace_id,
                      ctx.parent_span));

  // Memoized result: replay the original payload bytes, skip the pool.
  if (hit) {
    job->ops_done.store(job->ops_total, std::memory_order_relaxed);
    job->state.store(JobState::Done, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
    }
    m_completed->add();
    finish_request("submit", "cache_hit", ctx, job->id);
    emit(result_reply(ctx.id, job->id, /*cache_hit=*/true, 0.0, *hit,
                      ctx.trace_id, ctx.parent_span));
    {
      std::lock_guard<std::mutex> lock(mu_);
      retire_locked(*job);
    }
    idle_cv_.notify_all();
    return;
  }
  enqueue(job);
}

void ServiceSession::on_sweep(const RequestCtx& ctx,
                              const SweepRequest& req) {
  std::vector<SweepPoint> points = expand_sweep(req);
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      m_errors->add();
      finish_request("sweep", "error", ctx);
      emit(error_reply(ctx.id, ServiceError::ShuttingDown,
                       "service is shutting down", ctx.trace_id,
                       ctx.parent_span));
      return;
    }
    // Sweeps always take a pool slot (each point re-probes the cache when
    // it actually runs, so hits are still free — they just stream from
    // the worker rather than inline).
    if (reject_if_busy_locked("sweep", ctx)) return;
    auto j = std::make_unique<Job>();
    j->seq = next_job_++;
    j->id = "job-" + std::to_string(j->seq);
    j->request_id = ctx.id;
    j->trace_id = ctx.trace_id;
    j->parent_span = ctx.parent_span;
    j->req_tag = ctx.req;
    j->type = "sweep";
    j->t_begin = ctx.t0;
    j->points.reserve(points.size());
    for (SweepPoint& p : points) {
      j->ops_total += p.req.total_ops();
      j->points.push_back(std::move(p.req));
    }
    job = j.get();
    by_id_[j->id] = job;
    jobs_.push_back(std::move(j));
  }
  m_submitted->add();
  m_sweeps->add();
  emit(sweep_accepted_reply(ctx.id, job->id, job->points.size(),
                            ctx.trace_id, ctx.parent_span));
  enqueue(job);
}

JobStatus ServiceSession::status_of(const Job& j) {
  JobStatus s;
  s.job = j.id;
  s.state = state_name(j.state.load(std::memory_order_relaxed));
  s.ops_done = j.ops_done.load(std::memory_order_relaxed);
  s.ops_total = j.ops_total;
  s.cache_key = j.cache_key;
  s.points_done = j.points_done.load(std::memory_order_relaxed);
  s.points_total = j.points.size();
  return s;
}

void ServiceSession::retire_locked(Job& job) {
  retired_.emplace_back(job.seq, status_of(job));
  if (retired_.size() > kRetiredJobs) retired_.pop_front();
  by_id_.erase(job.id);
  jobs_.erase(std::find_if(jobs_.begin(), jobs_.end(),
                           [&](const auto& j) { return j.get() == &job; }));
}

void ServiceSession::on_status(const RequestCtx& ctx,
                               const StatusRequest& req) {
  std::vector<std::pair<std::uint64_t, JobStatus>> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : retired_)
      if (req.job.empty() || r.second.job == req.job) found.push_back(r);
    for (const auto& j : jobs_)
      if (req.job.empty() || j->id == req.job)
        found.emplace_back(j->seq, status_of(*j));
    if (!req.job.empty() && found.empty()) {
      m_errors->add();
      finish_request("status", "error", ctx);
      emit(error_reply(ctx.id, ServiceError::UnknownJob,
                       "no such job \"" + req.job + "\"", ctx.trace_id,
                       ctx.parent_span));
      return;
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<JobStatus> statuses;
  statuses.reserve(found.size());
  for (auto& f : found) statuses.push_back(std::move(f.second));
  finish_request("status", "ok", ctx);
  emit(status_reply(ctx.id, statuses, ctx.trace_id, ctx.parent_span));
}

void ServiceSession::on_cancel(const RequestCtx& ctx,
                               const CancelRequest& req) {
  // A worker may retire a running job as soon as mu_ is released, so only
  // a job cancelled here while queued (which no worker will touch again)
  // is used past the lock.
  Job* cancelled = nullptr;
  std::string job_id, seen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_id_.find(req.job);
    if (it != by_id_.end()) {
      Job* job = it->second;
      const JobState state = job->state.load(std::memory_order_relaxed);
      job_id = job->id;
      seen = state_name(state);
      job->abort.store(true, std::memory_order_relaxed);
      if (state == JobState::Queued) {
        // Never started: cancel right here and take it out of the pending
        // queue, so the depth gauge never counts a corpse (the pool's
        // skip-on-pop check stays as a belt-and-braces fallback).
        job->state.store(JobState::Cancelled, std::memory_order_relaxed);
        auto qit = std::find(queue_.begin(), queue_.end(), job);
        if (qit != queue_.end()) queue_.erase(qit);
        m_queue_depth->set((double)queue_.size());
        ++cancelled_;
        cancelled = job;
      }
      // Running jobs stop at the next shard boundary; run_job() emits the
      // cancelled reply.  (A cancel that lands after the last shard is too
      // late by definition — the job completes normally.)
    } else {
      auto r = std::find_if(
          retired_.begin(), retired_.end(),
          [&](const auto& done) { return done.second.job == req.job; });
      if (r == retired_.end()) {
        m_errors->add();
        finish_request("cancel", "error", ctx);
        emit(error_reply(ctx.id, ServiceError::UnknownJob,
                         "no such job \"" + req.job + "\"", ctx.trace_id,
                         ctx.parent_span));
        return;
      }
      job_id = r->second.job;
      seen = r->second.state;
    }
  }
  if (cfg_.log != nullptr) {
    cfg_.log->line("cancel")
        .det("conn", cfg_.conn)
        .det("req", ctx.req)
        .det("job", job_id)
        .det("state", seen);
  }
  finish_request("cancel", "ok", ctx, job_id);
  emit(cancel_ok_reply(ctx.id, job_id, seen, ctx.trace_id, ctx.parent_span));
  if (cancelled != nullptr) {
    m_cancelled->add();
    finish_request(cancelled->type, "cancelled", cancelled->ctx(), job_id);
    emit(cancelled_reply(cancelled->request_id, job_id, 0,
                         cancelled->trace_id, cancelled->parent_span));
    {
      std::lock_guard<std::mutex> lock(mu_);
      retire_locked(*cancelled);
    }
    idle_cv_.notify_all();
  }
}

void ServiceSession::on_shutdown(const RequestCtx& ctx) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    shutdown_id_ = ctx.id;
    shutdown_trace_id_ = ctx.trace_id;
    shutdown_parent_span_ = ctx.parent_span;
  }
  // The bye reply comes from finish() once the queue drains; the request
  // itself is done the moment the flag is set.
  finish_request("shutdown", "ok", ctx);
}

void ServiceSession::on_stats(const RequestCtx& ctx) {
  // Answered inline on the session thread — never queued behind the pool,
  // so an operator can always read a busy daemon.
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  MetricsSnapshot snap = metrics_->snapshot();
  finish_request("stats", "ok", ctx);
  emit(stats_reply(ctx.id, uptime, snap, ctx.trace_id, ctx.parent_span));
}

bool ServiceSession::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

void ServiceSession::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool ServiceSession::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() && active_ == 0;
}

void ServiceSession::finish() {
  wait_idle();
  std::uint64_t completed, cancelled, failed;
  std::string id, trace_id, parent_span;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (bye_sent_) return;
    bye_sent_ = true;
    completed = completed_;
    cancelled = cancelled_;
    failed = failed_;
    id = shutdown_id_;
    trace_id = shutdown_trace_id_;
    parent_span = shutdown_parent_span_;
  }
  emit(bye_reply(id, completed, cancelled, failed, trace_id, parent_span));
}

std::uint64_t ServiceSession::jobs_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

std::uint64_t ServiceSession::jobs_cancelled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_;
}

void ServiceSession::worker_loop(int worker) {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = queue_.front();
      queue_.pop_front();
      m_queue_depth->set((double)queue_.size());
      if (job->state.load(std::memory_order_relaxed) ==
          JobState::Cancelled) {
        // Cancelled while queued; on_cancel() already replied.
        if (queue_.empty()) idle_cv_.notify_all();
        continue;
      }
      const double wait_ms = ms_since(job->t_enqueue);
      m_queue_wait->observe(wait_ms < 0.0 ? 0.0 : wait_ms);
      if (cfg_.trace != nullptr) {
        const std::uint64_t now = cfg_.trace->now_us();
        std::vector<TraceArg> args = {{"req", job->req_tag, false},
                                      {"job", job->id, false}};
        if (!job->trace_id.empty())
          args.push_back({"trace", job->trace_id, false});
        if (!job->parent_span.empty())
          args.push_back({"parent", job->parent_span, false});
        cfg_.trace->add_complete("queue-wait", "service", worker,
                                 job->trace_enq_us, now - job->trace_enq_us,
                                 std::move(args));
      }
      job->state.store(JobState::Running, std::memory_order_relaxed);
      ++active_;
    }
    run_job(*job, worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      retire_locked(*job);
      --active_;
    }
    idle_cv_.notify_all();
  }
}

void ServiceSession::run_job(Job& job, int worker) {
  try {
    if (job.points.empty())
      run_submit(job, worker);
    else
      run_sweep(job, worker);
  } catch (const std::exception& e) {
    job.state.store(JobState::Failed, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++failed_;
    }
    m_failed->add();
    finish_request(job.type, "error", job.ctx(), job.id);
    emit(error_reply(job.request_id, ServiceError::Internal,
                     std::string("job ") + job.id + " failed: " + e.what(),
                     job.trace_id, job.parent_span));
  }
}

void ServiceSession::sweep_active(int delta) {
  std::lock_guard<std::mutex> lock(mu_);
  active_sweeps_ += delta;
  m_sweeps_active->set((double)active_sweeps_);
}

void ServiceSession::mark_cancelled(Job& job) {
  job.state.store(JobState::Cancelled, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++cancelled_;
  }
  m_cancelled->add();
  finish_request(job.type, "cancelled", job.ctx(), job.id);
  emit(cancelled_reply(job.request_id, job.id,
                       job.ops_done.load(std::memory_order_relaxed),
                       job.trace_id, job.parent_span));
}

void ServiceSession::run_submit(Job& job, int worker) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  std::string payload;
  std::uint64_t ops_done = 0;
  if (!simulate(job.req, job.cache_key, job, 0, worker, &payload,
                &ops_done)) {
    job.ops_done.store(ops_done, std::memory_order_relaxed);
    mark_cancelled(job);
    return;
  }
  cache_->put(job.cache_key, payload);
  const double elapsed =
      std::chrono::duration<double>(clock::now() - t0).count();
  job.ops_done.store(job.ops_total, std::memory_order_relaxed);
  job.state.store(JobState::Done, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
  }
  m_completed->add();
  finish_request("submit", "ok", job.ctx(), job.id);
  emit(result_reply(job.request_id, job.id, /*cache_hit=*/false, elapsed,
                    payload, job.trace_id, job.parent_span));
}

void ServiceSession::run_sweep(Job& job, int worker) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  // service.sweep.active covers every exit path (done, cancelled, or a
  // thrown failure unwinding through run_job).
  struct ActiveGuard {
    ServiceSession* s;
    explicit ActiveGuard(ServiceSession* s_) : s(s_) { s->sweep_active(+1); }
    ~ActiveGuard() { s->sweep_active(-1); }
  } active_guard(this);
  const std::size_t total = job.points.size();
  std::uint64_t digest = kSweepDigestSeed;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t ops_base = 0;
  for (std::size_t i = 0; i < total; ++i) {
    // Point boundaries are cancellation points too (inner runs also stop
    // at engine shard boundaries, exactly like a plain submit).
    if (job.abort.load(std::memory_order_relaxed)) {
      mark_cancelled(job);
      return;
    }
    const SubmitRequest& point = job.points[i];
    const auto t_point = clock::now();
    const std::string key = point.cache_key();
    std::string payload;
    bool hit = false;
    std::optional<std::string> cached;
    {
      TraceSpan span(cfg_.trace, "cache-lookup", "service", worker);
      span.arg("req", job.req_tag);
      span.arg("key", key);
      if (!job.trace_id.empty()) span.arg("trace", job.trace_id);
      if (!job.parent_span.empty()) span.arg("parent", job.parent_span);
      cached = cache_->get(key);
    }
    if (cached) {
      payload = std::move(*cached);
      hit = true;
    } else {
      std::uint64_t point_ops = 0;
      if (!simulate(point, key, job, ops_base, worker, &payload,
                    &point_ops)) {
        job.ops_done.store(ops_base + point_ops, std::memory_order_relaxed);
        mark_cancelled(job);
        return;
      }
      cache_->put(key, payload);
    }
    (hit ? hits : misses) += 1;
    m_sweep_points->add();
    if (hit) m_sweep_points_cached->add();
    ops_base += point.total_ops();
    job.ops_done.store(ops_base, std::memory_order_relaxed);
    job.points_done.store(i + 1, std::memory_order_relaxed);
    digest = fold_sweep_digest(digest, payload);
    emit(sweep_point_line(job.id, i, total, hit, key, point, payload,
                          job.trace_id, job.parent_span));
    // --slow-ms applies per point too: a single pathological point inside
    // an otherwise-fast sweep should be attributable without reading every
    // sweep_point latency.
    const double point_ms = std::chrono::duration<double, std::milli>(
                                clock::now() - t_point)
                                .count();
    if (cfg_.log != nullptr && cfg_.slow_ms > 0.0 && point_ms > cfg_.slow_ms) {
      cfg_.log->line("slow_point")
          .det("conn", cfg_.conn)
          .det("req", job.req_tag)
          .det("job", job.id)
          .det("index", (std::uint64_t)i)
          .det_raw("params", point_params_json(point))
          .timing("latency_ms", point_ms);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(clock::now() - t0).count();
  job.state.store(JobState::Done, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
  }
  m_completed->add();
  finish_request("sweep", "ok", job.ctx(), job.id);
  emit(sweep_done_reply(job.request_id, job.id, total, hits, misses,
                        elapsed, digest, job.trace_id, job.parent_span));
}

bool ServiceSession::simulate(const SubmitRequest& req,
                              const std::string& cache_key, Job& job,
                              std::uint64_t base_ops, int worker,
                              std::string* payload,
                              std::uint64_t* ops_done) {
  if (req.mode == SimMode::Model) {
    // Design-point evaluation: no engine run, no shards.  The whole point
    // is cheap enough that it is not a cancellation point — abort lands at
    // the enclosing sweep's next point boundary.
    const dse::DseConfig cfg = req.model_config();
    dse::DseMetrics m;
    {
      TraceSpan span(cfg_.trace, "model-eval", "service", worker);
      span.arg("req", job.req_tag);
      span.arg("job", job.id);
      span.arg("key", cache_key);
      if (!job.trace_id.empty()) span.arg("trace", job.trace_id);
      if (!job.parent_span.empty()) span.arg("parent", job.parent_span);
      m = dse::eval_design(cfg);
    }
    *ops_done = req.total_ops();
    // Deterministic payload: every value below is a pure function of the
    // canonical key (dse::eval_design is seeded and wall-clock free), so
    // model points keep the byte-identical-replay contract.
    Report rep("csfma_serve");
    rep.meta("mode", to_string(req.mode));
    rep.meta("unit", to_string(req.unit));
    rep.meta("rounding", to_string(req.rm));
    rep.meta("seed", req.seed);
    rep.meta("block", cfg.block);
    rep.meta("group", cfg.group);
    rep.meta("rwidth", cfg.resolved_round_width());
    rep.meta("select", dse::to_string(cfg.select));
    rep.meta("depth", cfg.depth);
    rep.meta("ops", cfg.ops);
    rep.meta("cache_key", cache_key);
    rep.metric("delay_ns", m.delay_ns);
    rep.metric("cycles", (std::uint64_t)m.cycles);
    rep.metric("fmax_mhz", m.fmax_mhz);
    rep.metric("luts", (std::uint64_t)m.luts);
    rep.metric("dsps", (std::uint64_t)m.dsps);
    rep.metric("toggles_per_op", m.toggles_per_op);
    rep.metric("energy_nj", m.energy_nj);
    *payload = rep.to_json();
    return true;
  }
  EngineConfig ecfg;
  ecfg.unit = req.unit;
  ecfg.threads = req.threads;
  ecfg.rm = req.rm;
  ecfg.shard_ops = req.shard_ops;
  ecfg.abort = &job.abort;
  // Engine shard spans land in the same trace session, so a request's
  // engine-run span decomposes into the engine's shard/fill/simulate/
  // consume/merge timeline (chained jobs too) in one chrome://tracing view.
  ecfg.trace = cfg_.trace;
  ecfg.progress_interval_s = cfg_.progress_interval_s;
  ecfg.progress = [this, &job, base_ops](const EngineProgress& p) {
    // Progress is job-level: sweep points report their ops on top of the
    // points already finished, against the whole job's denominator.
    EngineProgress jp = p;
    jp.ops_done = base_ops + p.ops_done;
    jp.ops_total = job.ops_total;
    job.ops_done.store(jp.ops_done, std::memory_order_relaxed);
    emit(progress_event_line({job.id, job.trace_id, job.parent_span, jp}));
  };
  SimEngine engine(ecfg);

  std::uint64_t checksum = 0;
  BatchStats stats;
  ActivityRecorder activity;
  std::vector<PFloat> chained_results;
  {
    TraceSpan span(cfg_.trace, "engine-run", "service", worker);
    span.arg("req", job.req_tag);
    span.arg("job", job.id);
    span.arg("key", cache_key);
    if (!job.trace_id.empty()) span.arg("trace", job.trace_id);
    if (!job.parent_span.empty()) span.arg("parent", job.parent_span);
    switch (req.mode) {
      case SimMode::Batch:
      case SimMode::Stream: {
        // Both modes run the memory-bounded streaming driver: the service
        // only ever needs the order-independent checksum, and run_batch's
        // materialized result vector is O(ops) memory allocated BEFORE the
        // first abort poll — a daemon-sized submit must neither exhaust
        // memory nor stall cancellation behind a giant allocation.  The
        // stream checksum equals the batch checksum of the same operation
        // set (ServiceSession.StreamChecksumMatchesBatch), so the rendered
        // payload is unchanged.
        RandomTripleSource src(req.seed, req.ops, req.emin, req.emax);
        StreamResult r = engine.run_stream(
            src, [&checksum](std::uint64_t start, const PFloat* results,
                             std::size_t n) {
              // Serialized by the engine's consume lock; the digest is
              // order-independent, so completion order does not matter.
              checksum += checksum_range(start, results, n);
            });
        stats = std::move(r.stats);
        activity = std::move(r.activity);
        break;
      }
      case SimMode::Chained: {
        RecurrenceChainSource src(
            recurrence_inputs(req.seed, (int)req.chains), req.depth);
        BatchResult r = engine.run_chained(src);
        stats = std::move(r.stats);
        activity = std::move(r.activity);
        chained_results = std::move(r.results);
        break;
      }
      case SimMode::Model:
        CSFMA_CHECK(false);  // handled by the early return above
    }
  }
  if (req.mode == SimMode::Chained && !stats.aborted)
    checksum =
        checksum_range(0, chained_results.data(), chained_results.size());
  *ops_done = stats.ops_done;
  if (stats.aborted) return false;

  TraceSpan render_span(cfg_.trace, "render", "service", worker);
  render_span.arg("req", job.req_tag);
  render_span.arg("job", job.id);
  if (!job.trace_id.empty()) render_span.arg("trace", job.trace_id);
  if (!job.parent_span.empty()) render_span.arg("parent", job.parent_span);

  // The deterministic result payload: everything here is a function of the
  // canonical key alone (no wall clock, no thread count), so a rerun at any
  // worker count reproduces these bytes exactly.
  Report rep("csfma_serve");
  rep.meta("mode", to_string(req.mode));
  rep.meta("unit", to_string(req.unit));
  rep.meta("rounding", to_string(req.rm));
  rep.meta("seed", req.seed);
  rep.meta("shard_ops", req.shard_ops);
  if (req.mode == SimMode::Chained) {
    rep.meta("chains", req.chains);
    rep.meta("depth", req.depth);
  } else {
    rep.meta("ops_requested", req.ops);
    rep.meta("emin", req.emin);
    rep.meta("emax", req.emax);
  }
  rep.meta("cache_key", cache_key);
  rep.metric("ops", stats.ops);
  rep.metric("result_checksum", checksum);
  rep.metric("activity.total_toggles", activity.total_toggles());
  rep.section("activity", activity.to_json());
  *payload = rep.to_json();
  return true;
}

}  // namespace csfma
