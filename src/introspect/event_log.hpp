// Numerical event log: a deterministic, bounded ring of typed events
// raised by the datapath simulators when numerically interesting corner
// behaviour fires — the cases the paper calls out in prose (the documented
// misrounding of Sec. III-C/E, the LZA's one-position error of Sec. III-G,
// cancellation under the early-LZA selection) made observable per
// operation.
//
// Determinism contract (mirrors ActivityRecorder): each engine shard owns
// its own EventLog; SimEngine merges the per-shard logs IN SHARD ORDER.
// Because shard boundaries are a pure function of the stream (never of the
// thread count), the merged event sequence — and its to_json() rendering —
// is byte-identical for any worker count.  The ring keeps the most recent
// `capacity` events and counts what it sheds, so memory stays bounded on
// arbitrarily long streams without losing the raised/dropped totals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

namespace csfma {

enum class EventKind {
  MisroundVsIeee,   // deferred rounding differs from IEEE nearest-even
  Cancellation,     // catastrophic cancellation: result far below operands
  LzaMispredict,    // LZA estimate one short of the exact leading-sign run
  ZeroDetectLate,   // ZD skipped fewer blocks than value-soundness allows
  SubnormalFlush,   // result exponent underflowed; flushed to zero
};

const char* to_string(EventKind kind);

struct NumEvent {
  EventKind kind = EventKind::MisroundVsIeee;
  std::uint64_t op = 0;  // stream index of the raising operation
  // IEEE binary64 bit patterns of the operation's operands (R = A + B*C).
  std::uint64_t a_bits = 0, b_bits = 0, c_bits = 0;
  std::int64_t detail = 0;  // kind-specific (shift distance, block count...)

  bool operator==(const NumEvent&) const = default;
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 256) : capacity_(capacity) {}

  /// Set the operand context stamped onto subsequently raised events.
  /// Called by the engine (or a bench loop) before each operation.
  void begin_op(std::uint64_t op, std::uint64_t a_bits, std::uint64_t b_bits,
                std::uint64_t c_bits) {
    ctx_.op = op;
    ctx_.a_bits = a_bits;
    ctx_.b_bits = b_bits;
    ctx_.c_bits = c_bits;
  }
  /// The context the last begin_op set (op index and operand bits; kind
  /// and detail are unset).
  const NumEvent& context() const { return ctx_; }

  /// Raise an event with the current operation context.
  void raise(EventKind kind, std::int64_t detail = 0);

  std::size_t capacity() const { return capacity_; }
  /// Total events raised, including those the ring has shed.
  std::uint64_t raised() const { return raised_; }
  std::uint64_t dropped() const { return raised_ - (std::uint64_t)ring_.size(); }
  const std::deque<NumEvent>& events() const { return ring_; }

  /// Append another log's events after this one's, then trim from the FRONT
  /// to capacity — merging per-shard logs in shard order yields the most
  /// recent `capacity` events of the combined stream.  Totals add.
  void merge_from(const EventLog& o);

  /// Deterministic JSON object: {"capacity","raised","dropped","events"}.
  /// Operand bits render as fixed-width hex strings.
  std::string to_json() const;

  void reset();

 private:
  std::size_t capacity_;
  std::deque<NumEvent> ring_;
  std::uint64_t raised_ = 0;
  NumEvent ctx_;
};

}  // namespace csfma
