// ServiceSession: the scheduler end of the tentpole contract — submit /
// progress / result round trips, byte-identical cache replay, cooperative
// cancellation that never leaks partial results, and worker-count
// determinism of the rendered payload.
#include "service/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/json_value.hpp"
#include "service/log.hpp"

namespace csfma {
namespace {

/// Thread-safe collector for the session's serialized reply stream.
class LineSink {
 public:
  ServiceSession::WriteFn fn() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    };
  }

  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

  /// Parse every line (all must be valid JSON objects) and return those
  /// whose "type" matches.
  std::vector<JsonValue> of_type(const std::string& type) const {
    std::vector<JsonValue> out;
    for (const std::string& line : lines()) {
      JsonValue v;
      JsonParseError err;
      EXPECT_TRUE(json_parse(line, &v, &err)) << line;
      if (const JsonValue* t = v.find("type");
          t != nullptr && t->as_string() == type)
        out.push_back(std::move(v));
    }
    return out;
  }

  /// Raw line of the first "result" reply for `job`, for byte comparisons.
  std::string raw_result(const std::string& job) const {
    for (const std::string& line : lines()) {
      JsonValue v;
      JsonParseError err;
      if (!json_parse(line, &v, &err)) continue;
      const JsonValue* t = v.find("type");
      const JsonValue* j = v.find("job");
      if (t != nullptr && t->as_string() == "result" && j != nullptr &&
          j->as_string() == job)
        return line;
    }
    return "";
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

/// The report object spliced into a result line, shorn of the reply
/// envelope (id / job / cache verdict / elapsed time).
std::string report_bytes(const std::string& result_line) {
  const std::string marker = "\"report\":";
  const std::size_t idx = result_line.find(marker);
  EXPECT_NE(idx, std::string::npos) << result_line;
  if (idx == std::string::npos) return "";
  return result_line.substr(idx + marker.size(),
                            result_line.size() - idx - marker.size() - 1);
}

const char* kSmallBatch =
    R"({"type":"submit","id":"r1","unit":"pcs","seed":11,"ops":600,)"
    R"("shard_ops":128})";

TEST(ServiceSession, SubmitRoundTrip) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.progress_interval_s = 0.0;  // a progress beat per shard
  ServiceSession session(cfg, sink.fn());
  session.handle_line(kSmallBatch);
  session.wait_idle();

  auto accepted = sink.of_type("accepted");
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0].find("id")->as_string(), "r1");
  EXPECT_EQ(accepted[0].find("job")->as_string(), "job-1");
  EXPECT_EQ(accepted[0].find("cache_key")->as_string().size(), 16u);

  auto progress = sink.of_type("progress");
  ASSERT_GE(progress.size(), 1u);  // 600/128 = 5 shards
  const JsonValue& last = progress.back();
  EXPECT_EQ(last.find("job")->as_string(), "job-1");
  EXPECT_EQ(last.find("ops_done")->as_int(), 600);
  EXPECT_EQ(last.find("ops_total")->as_int(), 600);
  EXPECT_EQ(last.find("shards_total")->as_int(), 5);

  auto results = sink.of_type("result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].find("id")->as_string(), "r1");
  EXPECT_EQ(results[0].find("cache")->as_string(), "miss");
  const JsonValue* report = results[0].find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("schema")->as_string(), "csfma-report-v1");
  EXPECT_EQ(report->find("meta")->find("mode")->as_string(), "batch");
  EXPECT_EQ(report->find("metrics")->find("ops")->as_int(), 600);
  EXPECT_EQ(session.jobs_completed(), 1u);
}

TEST(ServiceSession, CacheHitReplaysByteIdenticalReport) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 2;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(kSmallBatch);
  session.wait_idle();
  std::string resubmit = kSmallBatch;
  resubmit.replace(resubmit.find("r1"), 2, "r2");
  session.handle_line(resubmit);
  session.wait_idle();

  auto results = sink.of_type("result");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].find("cache")->as_string(), "miss");
  EXPECT_EQ(results[1].find("cache")->as_string(), "hit");
  EXPECT_EQ(report_bytes(sink.raw_result("job-1")),
            report_bytes(sink.raw_result("job-2")));
  EXPECT_EQ(metrics.counter("service.cache.hits", Stability::Timing).value(), 1u);
  EXPECT_EQ(metrics.counter("service.cache.misses", Stability::Timing).value(), 1u);
}

TEST(ServiceSession, WorkerAndThreadCountDoNotChangeReportBytes) {
  // The service-path determinism gate: different pool widths AND different
  // engine thread counts, byte-identical reports.  Cache off so both
  // sessions actually simulate.
  auto run = [](int workers, int threads) {
    LineSink sink;
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.cache_entries = 0;
    ServiceSession session(cfg, sink.fn());
    session.handle_line(
        R"({"type":"submit","id":"d","unit":"fcs","seed":3,"ops":900,)"
        R"("shard_ops":100,"threads":)" +
        std::to_string(threads) + "}");
    session.wait_idle();
    std::string line = sink.raw_result("job-1");
    EXPECT_NE(line, "") << "no result with workers=" << workers;
    EXPECT_NE(line.find("\"cache\":\"miss\""), std::string::npos) << line;
    return report_bytes(line);
  };
  const std::string one = run(1, 1);
  const std::string four = run(4, 4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one, "");
}

TEST(ServiceSession, ChainedAndStreamJobsComplete) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 2;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(
      R"({"type":"submit","id":"c","mode":"chained","unit":"classic",)"
      R"("seed":5,"chains":6,"depth":10})");
  session.handle_line(
      R"({"type":"submit","id":"s","mode":"stream","unit":"discrete",)"
      R"("seed":5,"ops":500,"shard_ops":100})");
  session.wait_idle();
  auto results = sink.of_type("result");
  ASSERT_EQ(results.size(), 2u);
  for (const JsonValue& r : results) {
    const JsonValue* report = r.find("report");
    ASSERT_NE(report, nullptr);
    EXPECT_NE(report->find("metrics")->find("result_checksum"), nullptr);
  }
  EXPECT_EQ(session.jobs_completed(), 2u);
}

TEST(ServiceSession, StreamChecksumMatchesBatch) {
  // Stream reduces results to an order-independent checksum; it must equal
  // the batch checksum of the same operation set (consume order differs,
  // the simulated values do not).
  auto checksum_of = [](const std::string& mode) -> std::string {
    LineSink sink;
    ServiceConfig cfg;
    cfg.cache_entries = 0;
    ServiceSession session(cfg, sink.fn());
    session.handle_line(R"({"type":"submit","id":"x","mode":")" + mode +
                        R"(","unit":"pcs","seed":21,"ops":700,)"
                        R"("shard_ops":64,"threads":3})");
    session.wait_idle();
    // Compare the raw decimal token: the checksum is a full uint64, which
    // does not round-trip through as_int()/double.
    const std::string line = sink.raw_result("job-1");
    const std::string marker = "\"result_checksum\":";
    const std::size_t i = line.find(marker);
    EXPECT_NE(i, std::string::npos) << line;
    if (i == std::string::npos) return "";
    return line.substr(i + marker.size(),
                       line.find_first_of(",}", i + marker.size()) - i -
                           marker.size());
  };
  const std::string batch = checksum_of("batch");
  EXPECT_EQ(batch, checksum_of("stream"));
  EXPECT_NE(batch, "");
}

TEST(ServiceSession, CancelRunningJobEmitsNoResult) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;
  ServiceSession session(cfg, sink.fn());
  // Big enough that the cancel always lands mid-run on one pool worker.
  session.handle_line(
      R"({"type":"submit","id":"big","unit":"pcs","seed":1,)"
      R"("ops":400000000,"shard_ops":4096})");
  session.handle_line(R"({"type":"cancel","id":"c1","job":"job-1"})");
  session.wait_idle();

  EXPECT_EQ(sink.of_type("cancel_ok").size(), 1u);
  auto cancelled = sink.of_type("cancelled");
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0].find("job")->as_string(), "job-1");
  EXPECT_LT(cancelled[0].find("ops_done")->as_int(), 400000000);
  // The partial-results contract: no result reply, nothing cached.
  EXPECT_EQ(sink.of_type("result").size(), 0u);
  EXPECT_EQ(session.jobs_cancelled(), 1u);
  EXPECT_EQ(session.jobs_completed(), 0u);

  // A resubmit after the cancel must MISS (partial runs never memoize)
  // and run to completion.
  session.handle_line(
      R"({"type":"submit","id":"ok","unit":"pcs","seed":1,"ops":500,)"
      R"("shard_ops":128})");
  session.wait_idle();
  auto results = sink.of_type("result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].find("cache")->as_string(), "miss");
}

TEST(ServiceSession, CancelQueuedJobNeverRuns) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;  // one pool thread: the second submit must queue
  ServiceSession session(cfg, sink.fn());
  session.handle_line(
      R"({"type":"submit","id":"big","unit":"pcs","seed":1,)"
      R"("ops":400000000,"shard_ops":4096})");
  session.handle_line(
      R"({"type":"submit","id":"q","unit":"pcs","seed":2,"ops":1000})");
  session.handle_line(R"({"type":"cancel","id":"c1","job":"job-2"})");
  session.handle_line(R"({"type":"cancel","id":"c2","job":"job-1"})");
  session.wait_idle();
  auto cancelled = sink.of_type("cancelled");
  ASSERT_EQ(cancelled.size(), 2u);
  // The queued job was cancelled before ever claiming a shard.
  for (const JsonValue& c : cancelled) {
    if (c.find("job")->as_string() == "job-2") {
      EXPECT_EQ(c.find("ops_done")->as_int(), 0);
    }
  }
  EXPECT_EQ(sink.of_type("result").size(), 0u);
  EXPECT_EQ(session.jobs_cancelled(), 2u);
}

TEST(ServiceSession, StatusTracksJobLifecycle) {
  LineSink sink;
  ServiceConfig cfg;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(kSmallBatch);
  session.wait_idle();
  session.handle_line(R"({"type":"status","id":"st"})");
  auto status = sink.of_type("status");
  ASSERT_EQ(status.size(), 1u);
  const auto& jobs = status[0].find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].find("job")->as_string(), "job-1");
  EXPECT_EQ(jobs[0].find("state")->as_string(), "done");
  EXPECT_EQ(jobs[0].find("ops_done")->as_int(), 600);

  session.handle_line(R"({"type":"status","id":"n","job":"job-77"})");
  auto errors = sink.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].find("code")->as_string(), "unknown_job");
}

TEST(ServiceSession, RetiresFinishedJobs) {
  // A job is dropped once its terminal reply is written; only the last 64
  // terminal statuses stay answerable, so a long-lived connection's
  // memory no longer grows with every request.
  LineSink sink;
  ServiceConfig cfg;
  ServiceSession session(cfg, sink.fn());
  const char* submit =
      R"({"type":"submit","id":"s","unit":"classic","seed":3,"ops":64})";
  session.handle_line(submit);
  session.wait_idle();
  for (int i = 1; i < 500; ++i) session.handle_line(submit);
  session.wait_idle();
  EXPECT_EQ(sink.of_type("result").size(), 500u);

  session.handle_line(R"({"type":"status","id":"all"})");
  auto status = sink.of_type("status");
  ASSERT_EQ(status.size(), 1u);
  const auto& jobs = status[0].find("jobs")->as_array();
  EXPECT_LE(jobs.size(), 64u);
  ASSERT_FALSE(jobs.empty());
  EXPECT_EQ(jobs.back().find("job")->as_string(), "job-500");

  session.handle_line(R"({"type":"status","id":"last","job":"job-500"})");
  status = sink.of_type("status");
  ASSERT_EQ(status.size(), 2u);
  const auto& last = status[1].find("jobs")->as_array();
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].find("state")->as_string(), "done");
  EXPECT_EQ(last[0].find("ops_done")->as_int(), 64);

  session.handle_line(R"({"type":"cancel","id":"c","job":"job-500"})");
  auto cancel = sink.of_type("cancel_ok");
  ASSERT_EQ(cancel.size(), 1u);
  EXPECT_EQ(cancel[0].find("state")->as_string(), "done");

  session.handle_line(R"({"type":"status","id":"first","job":"job-1"})");
  session.handle_line(R"({"type":"cancel","id":"c1","job":"job-1"})");
  auto errors = sink.of_type("error");
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].find("code")->as_string(), "unknown_job");
  EXPECT_EQ(errors[1].find("code")->as_string(), "unknown_job");
}

TEST(ServiceSession, MalformedLinesGetTypedErrorsAndCount) {
  LineSink sink;
  ServiceConfig cfg;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  ServiceSession session(cfg, sink.fn());
  session.handle_line("garbage");
  session.handle_line(R"({"type":"submit","id":"b","unit":"pcs","seed":1})");
  session.handle_line(R"({"type":"teleport"})");
  auto errors = sink.of_type("error");
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0].find("code")->as_string(), "parse_error");
  EXPECT_EQ(errors[1].find("code")->as_string(), "bad_request");
  EXPECT_EQ(errors[1].find("id")->as_string(), "b");
  EXPECT_EQ(errors[2].find("code")->as_string(), "unknown_type");
  EXPECT_EQ(metrics.counter("service.errors", Stability::Timing).value(), 3u);
  EXPECT_EQ(metrics.counter("service.requests", Stability::Timing).value(), 3u);
}

TEST(ServiceSession, ShutdownRefusesNewWorkAndSaysBye) {
  LineSink sink;
  ServiceConfig cfg;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(kSmallBatch);
  session.handle_line(R"({"type":"shutdown","id":"sd"})");
  EXPECT_TRUE(session.shutdown_requested());
  session.handle_line(
      R"({"type":"submit","id":"late","unit":"pcs","seed":9,"ops":100})");
  session.finish();
  session.finish();  // idempotent: exactly one bye

  auto errors = sink.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].find("code")->as_string(), "shutting_down");
  EXPECT_EQ(errors[0].find("id")->as_string(), "late");
  // The in-flight job still drains to a result before the bye.
  EXPECT_EQ(sink.of_type("result").size(), 1u);
  auto byes = sink.of_type("bye");
  ASSERT_EQ(byes.size(), 1u);
  EXPECT_EQ(byes[0].find("id")->as_string(), "sd");
  EXPECT_EQ(byes[0].find("jobs_completed")->as_int(), 1);
  EXPECT_EQ(sink.lines().back().find("\"type\":\"bye\""), 0u + 1u);
}

TEST(ServiceSession, FullPendingQueueAnswersBusyInsteadOfHanging) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = 0;  // hits would bypass admission control
  cfg.max_pending = 1;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  ServiceSession session(cfg, sink.fn());
  // Job 1 occupies the one worker for a long time.  Wait until it is
  // RUNNING (not merely queued) so the pending count is deterministic.
  session.handle_line(
      R"({"type":"submit","id":"big","unit":"pcs","seed":1,)"
      R"("ops":400000000,"shard_ops":4096})");
  for (int spin = 0; spin < 2000; ++spin) {
    session.handle_line(R"({"type":"status","id":"poll","job":"job-1"})");
    const auto lines = sink.lines();
    if (!lines.empty() &&
        lines.back().find("\"state\":\"running\"") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Job 2 fills the single pending slot; job 3 must bounce with a typed
  // busy error, not queue without bound and not block handle_line.
  session.handle_line(
      R"({"type":"submit","id":"fits","unit":"pcs","seed":2,)"
      R"("ops":400000000,"shard_ops":4096})");
  session.handle_line(
      R"({"type":"submit","id":"bounced","unit":"pcs","seed":3,"ops":100})");

  auto errors = sink.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].find("code")->as_string(), "busy");
  EXPECT_EQ(errors[0].find("id")->as_string(), "bounced");
  EXPECT_EQ(sink.of_type("accepted").size(), 2u);
  EXPECT_EQ(
      metrics.counter("service.jobs.rejected", Stability::Timing).value(),
      1u);

  session.handle_line(R"({"type":"cancel","id":"c1","job":"job-1"})");
  session.handle_line(R"({"type":"cancel","id":"c2","job":"job-2"})");
  session.wait_idle();
  EXPECT_EQ(session.jobs_cancelled(), 2u);

  // With the queue drained, submissions are admitted again.
  session.handle_line(
      R"({"type":"submit","id":"again","unit":"pcs","seed":3,"ops":100})");
  session.wait_idle();
  EXPECT_EQ(session.jobs_completed(), 1u);
  EXPECT_EQ(sink.of_type("error").size(), 1u);
}

TEST(ServiceSession, QueueDepthGaugeReturnsToZeroAfterDrainedBurst) {
  // The gauge must track every enqueue/dequeue — including sessions with
  // no --max-pending bound and jobs cancelled while still queued — and
  // read 0 once the burst drains.
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = 0;  // hits would bypass the queue
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  ServiceSession session(cfg, sink.fn());
  Gauge& depth = metrics.gauge("service.queue.depth", Stability::Timing);
  EXPECT_TRUE(depth.is_set());
  EXPECT_EQ(depth.value(), 0.0);
  for (int seed = 1; seed <= 4; ++seed) {
    session.handle_line(
        R"({"type":"submit","id":"b","unit":"pcs","seed":)" +
        std::to_string(seed) + R"(,"ops":600,"shard_ops":128})");
  }
  session.wait_idle();
  EXPECT_EQ(sink.of_type("result").size(), 4u);
  EXPECT_EQ(depth.value(), 0.0);

  // Cancelling a still-queued job must remove it from the queue (and the
  // gauge) immediately, not leave a ghost entry until a worker pops it.
  session.handle_line(
      R"({"type":"submit","id":"big","unit":"pcs","seed":1,)"
      R"("ops":400000000,"shard_ops":4096})");
  session.handle_line(
      R"({"type":"submit","id":"q","unit":"pcs","seed":2,"ops":1000})");
  session.handle_line(R"({"type":"cancel","id":"c1","job":"job-6"})");
  session.handle_line(R"({"type":"cancel","id":"c2","job":"job-5"})");
  session.wait_idle();
  EXPECT_EQ(session.jobs_cancelled(), 2u);
  EXPECT_EQ(depth.value(), 0.0);
}

TEST(ServiceSession, StatsReplyCarriesSnapshotAndLatencyHistograms) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;
  ServiceSession session(cfg, sink.fn());  // no registry attached: the
                                           // session's own fallback serves
  session.handle_line(kSmallBatch);
  session.wait_idle();
  std::string resubmit = kSmallBatch;
  resubmit.replace(resubmit.find("r1"), 2, "r2");
  session.handle_line(resubmit);  // cache hit, answered inline
  session.handle_line(R"({"type":"stats","id":"st"})");

  auto stats = sink.of_type("stats");
  ASSERT_EQ(stats.size(), 1u);
  const JsonValue& s = stats[0];
  EXPECT_EQ(s.find("id")->as_string(), "st");
  EXPECT_GE(s.find("uptime_s")->as_number(), 0.0);
  const JsonValue* metrics = s.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")
                ->find("service.requests")->find("value")->as_int(),
            3);
  const JsonValue* hists = metrics->find("histograms");
  ASSERT_NE(hists, nullptr);
  // One completed miss and one inline cache hit, each in its own
  // per-type/per-outcome latency histogram.
  const JsonValue* ok = hists->find("service.latency_ms.submit.ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->find("count")->as_int(), 1);
  const JsonValue* hit = hists->find("service.latency_ms.submit.cache_hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->find("count")->as_int(), 1);
  const JsonValue* pct = s.find("percentiles");
  ASSERT_NE(pct, nullptr);
  const JsonValue* ok_pct = pct->find("service.latency_ms.submit.ok");
  ASSERT_NE(ok_pct, nullptr);
  EXPECT_EQ(ok_pct->find("count")->as_int(), 1);
  EXPECT_LE(ok_pct->find("p50")->as_number(),
            ok_pct->find("p99")->as_number());
}

TEST(ServiceSession, ModelSubmitRoundTripCarriesTheDesignMetrics) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(
      R"({"type":"submit","id":"m1","mode":"model","unit":"pcs",)"
      R"("seed":1001,"ops":1920})");
  session.wait_idle();
  auto results = sink.of_type("result");
  ASSERT_EQ(results.size(), 1u);
  const JsonValue* rep = results[0].find("report");
  ASSERT_NE(rep, nullptr);
  const JsonValue* meta = rep->find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("mode")->as_string(), "model");
  EXPECT_EQ(meta->find("rwidth")->as_string(), "55");  // resolved, not 0
  const JsonValue* metrics = rep->find("metrics");
  ASSERT_NE(metrics, nullptr);
  // The paper-geometry PCS point at the Table II workload: the Fig 9 area
  // and the Table II anchor.
  EXPECT_EQ(metrics->find("luts")->as_int(), 5802);
  EXPECT_EQ(metrics->find("dsps")->as_int(), 21);
  EXPECT_NEAR(metrics->find("energy_nj")->as_number(), 2.67, 1e-9);
  EXPECT_GT(metrics->find("delay_ns")->as_number(), 0.0);

  // The same design spelled with an explicit rwidth is a cache hit.
  session.handle_line(
      R"({"type":"submit","id":"m2","mode":"model","unit":"pcs",)"
      R"("seed":1001,"ops":1920,"rwidth":55})");
  session.wait_idle();
  results = sink.of_type("result");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].find("cache")->as_string(), "hit");
}

TEST(ServiceSession, SweepMetricsCountPointsAndActiveSweeps) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 2;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  ServiceSession session(cfg, sink.fn());
  Gauge& active = metrics.gauge("service.sweep.active", Stability::Timing);
  EXPECT_TRUE(active.is_set());
  EXPECT_EQ(active.value(), 0.0);

  session.handle_line(
      R"({"type":"sweep","id":"s1","mode":"model","unit":"pcs","seed":1,)"
      R"("rwidth":[0,55,11]})");
  session.wait_idle();
  // rwidth 0 and 55 resolve to the same design: 3 points, 1 cache hit.
  EXPECT_EQ(sink.of_type("sweep_point").size(), 3u);
  EXPECT_EQ(metrics.counter("service.sweep.points",
                            Stability::Timing).value(), 3u);
  EXPECT_EQ(metrics.counter("service.sweep.points_cached",
                            Stability::Timing).value(), 1u);
  EXPECT_EQ(active.value(), 0.0);  // returned to idle after the sweep
}

TEST(ServiceSession, StatsAsFirstRequestIsWellDefined) {
  // A stats request on a completely fresh session — empty histograms,
  // every counter zero — must answer with defined values (count 0,
  // percentiles 0.0), not NaN or garbage ranks.
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;
  ServiceSession session(cfg, sink.fn());
  session.handle_line(R"({"type":"stats","id":"first"})");
  auto stats = sink.of_type("stats");
  ASSERT_EQ(stats.size(), 1u);
  const JsonValue& s = stats[0];
  EXPECT_EQ(s.find("id")->as_string(), "first");
  const JsonValue* metrics = s.find("metrics");
  ASSERT_NE(metrics, nullptr);
  // The stats request itself is the only traffic so far.
  EXPECT_EQ(metrics->find("counters")
                ->find("service.requests")->find("value")->as_int(),
            1);
  const JsonValue* pct = s.find("percentiles");
  ASSERT_NE(pct, nullptr);
  for (const auto& [name, snap] : pct->as_object()) {
    ASSERT_NE(snap.find("count"), nullptr) << name;
    if (snap.find("count")->as_int() != 0) continue;
    for (const char* q : {"p50", "p90", "p99"}) {
      const JsonValue* v = snap.find(q);
      ASSERT_NE(v, nullptr) << name;
      EXPECT_EQ(v->as_number(), 0.0) << name << " " << q;
    }
  }
}

TEST(ServiceSession, TraceIdIsEchoedOnEveryReplyAndEvent) {
  LineSink sink;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.progress_interval_s = 0.0;  // a progress beat per shard
  ServiceSession session(cfg, sink.fn());
  std::string line = kSmallBatch;
  line.insert(1, R"("trace_id":"tr-9",)");
  session.handle_line(line);
  session.wait_idle();
  for (const char* type : {"accepted", "progress", "result"}) {
    auto replies = sink.of_type(type);
    ASSERT_GE(replies.size(), 1u) << type;
    for (const JsonValue& r : replies) {
      const JsonValue* tid = r.find("trace_id");
      ASSERT_NE(tid, nullptr) << type;
      EXPECT_EQ(tid->as_string(), "tr-9") << type;
    }
  }
  // Untraced requests carry no trace_id key at all (wire-stable replies).
  session.handle_line(R"({"type":"status","id":"st"})");
  auto status = sink.of_type("status");
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].find("trace_id"), nullptr);
  // Error replies echo it too, even for unparseable request types.
  session.handle_line(R"({"type":"warp","trace_id":"tr-err"})");
  auto errors = sink.of_type("error");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].find("trace_id")->as_string(), "tr-err");
}

TEST(ServiceSession, ParentSpanIsEchoedAndStampedOnServerSpans) {
  LineSink sink;
  TraceSession trace;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.trace = &trace;
  ServiceSession session(cfg, sink.fn());
  std::string line = kSmallBatch;
  line.insert(1, R"("trace_id":"tr-9","parent_span":"chunk-2",)");
  session.handle_line(line);
  session.wait_idle();
  // The wire echo, alongside the trace id.
  for (const char* type : {"accepted", "result"}) {
    auto replies = sink.of_type(type);
    ASSERT_EQ(replies.size(), 1u) << type;
    EXPECT_EQ(replies[0].find("parent_span")->as_string(), "chunk-2") << type;
    EXPECT_EQ(replies[0].find("trace_id")->as_string(), "tr-9") << type;
  }
  // Every service-category span of the request carries the caller's trace
  // context as args, so trace_merge.py can hang the whole req-1 tree
  // under the explorer's chunk span.
  std::size_t service_spans = 0;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.cat != "service") continue;
    ++service_spans;
    std::string trace_arg, parent_arg;
    for (const TraceArg& a : ev.args) {
      if (a.key == "trace") trace_arg = a.value;
      if (a.key == "parent") parent_arg = a.value;
    }
    EXPECT_EQ(trace_arg, "tr-9") << ev.name;
    EXPECT_EQ(parent_arg, "chunk-2") << ev.name;
  }
  // parse, cache-lookup, queue-wait, engine-run, render.
  EXPECT_EQ(service_spans, 5u);
  // A legacy request without the field produces spans without the args.
  session.handle_line(R"({"type":"status","id":"st"})");
  auto status = sink.of_type("status");
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].find("parent_span"), nullptr);
  for (const TraceEvent& ev : trace.events()) {
    if (ev.cat != "service" || ev.name != "parse") continue;
    const bool second_request =
        std::any_of(ev.args.begin(), ev.args.end(), [](const TraceArg& a) {
          return a.key == "req" && a.value == "req-2";
        });
    if (!second_request) continue;
    for (const TraceArg& a : ev.args) EXPECT_NE(a.key, "parent");
  }
}

TEST(ServiceSession, StructuredLogPairsEveryRequestBeginWithAnEnd) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  auto log = ServiceLog::attach(tmp);
  {
    LineSink sink;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.log = log.get();
    cfg.conn = "test-conn";
    ServiceSession session(cfg, sink.fn());
    session.handle_line(kSmallBatch);
    session.wait_idle();
    std::string resubmit = kSmallBatch;
    resubmit.replace(resubmit.find("r1"), 2, "r2");
    session.handle_line(resubmit);          // cache_hit outcome
    session.handle_line("not json");        // error outcome
    session.handle_line(R"({"type":"shutdown","id":"sd"})");
    session.finish();
  }
  std::rewind(tmp);
  std::map<std::string, int> kinds;
  std::map<std::string, int> outcomes;
  std::int64_t last_seq = 0;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, tmp) != nullptr) {
    JsonValue v;
    JsonParseError err;
    ASSERT_TRUE(json_parse(buf, &v, &err)) << buf;
    ++kinds[v.find("kind")->as_string()];
    const std::int64_t seq = v.find("seq")->as_int();
    EXPECT_GT(seq, last_seq) << "seq must increase strictly";
    last_seq = seq;
    ASSERT_NE(v.find("t"), nullptr);
    EXPECT_GE(v.find("t")->find("ts_ms")->as_number(), 0.0);
    if (v.find("kind")->as_string() == "request_end") {
      EXPECT_EQ(v.find("conn")->as_string(), "test-conn");
      ++outcomes[v.find("outcome")->as_string()];
    }
  }
  std::fclose(tmp);
  EXPECT_EQ(kinds["request_begin"], 4);
  EXPECT_EQ(kinds["request_end"], 4);
  EXPECT_EQ(outcomes["ok"], 2);  // the first submit and the shutdown
  EXPECT_EQ(outcomes["cache_hit"], 1);
  EXPECT_EQ(outcomes["error"], 1);
}

TEST(ServiceSession, SharedCacheServesSecondSession) {
  MetricsRegistry metrics;
  ResultCache shared(8, &metrics);
  auto run = [&](const char* id) {
    LineSink sink;
    ServiceConfig cfg;
    cfg.cache = &shared;
    ServiceSession session(cfg, sink.fn());
    std::string line = kSmallBatch;
    line.replace(line.find("r1"), 2, id);
    session.handle_line(line);
    session.wait_idle();
    auto results = sink.of_type("result");
    EXPECT_EQ(results.size(), 1u);
    return results.empty() ? std::string()
                           : results[0].find("cache")->as_string();
  };
  EXPECT_EQ(run("s1"), "miss");
  EXPECT_EQ(run("s2"), "hit");  // a different session, the same cache
  EXPECT_EQ(shared.size(), 1u);
}

}  // namespace
}  // namespace csfma
