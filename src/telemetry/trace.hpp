// Trace sessions: per-stage spans exported as chrome://tracing JSON.
//
// A TraceSession collects "complete" events (name, category, lane, start,
// duration, args) from any thread and serializes them to the Trace Event
// Format that chrome://tracing and Perfetto load directly — the software
// equivalent of the waveform views the paper's ISim/XPower flow provides
// for hardware.  The engine emits per-shard shard/fill/simulate/consume
// spans and a merge span, the HLS flow emits lex/parse/schedule/interp
// phase spans.
//
// Cost model: every emission point takes a `TraceSession*` and does nothing
// but a null check when tracing is off; TraceSpan reads no clock unless a
// session is attached.  Timestamps are microseconds relative to the
// session's construction (steady clock), so traces are mergeable only
// within one session.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace csfma {

struct TraceArg {
  std::string key;
  std::string value;  // rendered text; emitted as a JSON number if `number`
  bool number = false;
};

struct TraceEvent {
  std::string name;
  std::string cat;
  int tid = 0;  // lane: worker id for engine spans, 0 for single-threaded
  std::uint64_t ts_us = 0;   // start, relative to session origin
  std::uint64_t dur_us = 0;  // 0 for instant events
  bool instant = false;
  std::vector<TraceArg> args;
};

class TraceSession {
 public:
  TraceSession() : origin_(std::chrono::steady_clock::now()) {}
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Microseconds since the session started.
  std::uint64_t now_us() const;

  /// Bound the retained events: once `cap` events are stored, further
  /// submissions are counted in dropped() instead of growing the vector
  /// (0 = unbounded, the default).  A long-running daemon sets this so a
  /// multi-hour exploration cannot grow the trace without bound.
  void set_cap(std::size_t cap);
  std::size_t cap() const;
  /// Events discarded because the cap was reached.
  std::uint64_t dropped() const;

  void add_complete(std::string name, std::string cat, int tid,
                    std::uint64_t ts_us, std::uint64_t dur_us,
                    std::vector<TraceArg> args = {});
  void add_instant(std::string name, std::string cat, int tid,
                   std::vector<TraceArg> args = {});

  std::size_t size() const;
  std::vector<TraceEvent> events() const;

  /// {"displayTimeUnit":"ms","traceEvents":[...]} — loads in
  /// chrome://tracing and Perfetto.  Events are sorted by (ts, tid) so the
  /// export is stable however threads interleaved their submissions.
  std::string to_json() const;
  /// Write to_json() to `path`; throws CheckError on I/O failure.
  void write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::size_t cap_ = 0;        // 0 = unbounded
  std::uint64_t dropped_ = 0;  // events refused once the cap was hit
};

/// RAII span: records a complete event covering its lifetime.  With a null
/// session every member is a no-op (no clock read, no allocation).
class TraceSpan {
 public:
  TraceSpan(TraceSession* session, std::string_view name, std::string_view cat,
            int tid = 0)
      : session_(session) {
    if (session_ == nullptr) return;
    name_ = name;
    cat_ = cat;
    tid_ = tid;
    start_us_ = session_->now_us();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (session_ == nullptr) return;
    session_->add_complete(std::move(name_), std::move(cat_), tid_, start_us_,
                           session_->now_us() - start_us_, std::move(args_));
  }

  void arg(std::string_view key, std::string_view value) {
    if (session_ == nullptr) return;
    args_.push_back({std::string(key), std::string(value), false});
  }
  void arg(std::string_view key, std::uint64_t value) {
    if (session_ == nullptr) return;
    args_.push_back({std::string(key), std::to_string(value), true});
  }

 private:
  TraceSession* session_;
  std::string name_, cat_;
  int tid_ = 0;
  std::uint64_t start_us_ = 0;
  std::vector<TraceArg> args_;
};

}  // namespace csfma
