// In-memory span recorder for the benchmark's traced runs.
//
// A span is recorded around every call the benchmark makes into a layer of
// the library: name, start, end, parent (the enclosing span on the same
// thread) and an id shared by every span of one round, request or op batch.
// Spans stay in per-thread buffers until the run ends; nothing is written
// while the workload is being measured.  A span's layer is the part of its
// name before the first '.' ("engine.run_batch:pcs" -> "engine").
//
// With a null Tracer a Scope does nothing, not even a clock read, so the
// untraced runs that produce the end-to-end metrics pay no tracing cost.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Lane;  // one recording thread's spans (trace.cpp)

struct Span {
  const char* name = "";  // interned (see intern()); never freed
  std::uint64_t id = 0;   // round / request / batch id; 0 = outside rounds
  std::int64_t t0 = 0, t1 = 0;
  std::int32_t parent = -1;  // index in the same lane; -1 = top level
  std::uint32_t lane = 0;    // recording thread
};

/// A stable C string for a span name built at run time (e.g. with a unit
/// name in it).  Call outside the measured loop.
const char* intern(const std::string& name);

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // summed durations minus direct children
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    /// id 0 inherits the enclosing span's id.
    Scope(Tracer* t, const char* name, std::uint64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Lane* lane_ = nullptr;
    std::int32_t index_ = -1;
  };

  /// A measured window on the calling thread (one traced round): spans whose
  /// top-level ancestor starts inside it count towards reconciliation.
  void add_window(std::int64_t t0, std::int64_t t1);

  /// Every span of every thread, lanes in registration order.
  std::vector<Span> spans() const;

  /// Totals per span name, over spans inside the traced windows (inside =
  /// true) or outside them (inside = false).
  std::map<std::string, SpanTotals> totals(bool inside) const;

  /// Summed window wall time and the summed duration of the top-level spans
  /// inside those windows, over all threads.
  double window_s() const;
  double covered_s() const;

  /// Write every span as Chrome trace-event JSON (load in chrome://tracing
  /// or Perfetto).  Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  Lane* lane();
  std::vector<bool> inside_mask(const Lane& l) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace perfbench
