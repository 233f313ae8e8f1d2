#include "introspect/event_log.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace csfma {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::MisroundVsIeee:
      return "misround_vs_ieee";
    case EventKind::Cancellation:
      return "cancellation";
    case EventKind::LzaMispredict:
      return "lza_mispredict";
    case EventKind::ZeroDetectLate:
      return "zero_detect_late";
    case EventKind::SubnormalFlush:
      return "subnormal_flush";
  }
  return "?";
}

void EventLog::raise(EventKind kind, std::int64_t detail) {
  ++raised_;
  if (capacity_ == 0) return;
  if (ring_.size() == capacity_) ring_.pop_front();
  NumEvent e = ctx_;
  e.kind = kind;
  e.detail = detail;
  ring_.push_back(e);
}

void EventLog::merge_from(const EventLog& o) {
  raised_ += o.raised_;
  for (const NumEvent& e : o.ring_) {
    if (capacity_ == 0) break;
    if (ring_.size() == capacity_) ring_.pop_front();
    ring_.push_back(e);
  }
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
  return buf;
}

}  // namespace

std::string EventLog::to_json() const {
  std::string out = "{\"capacity\":" + std::to_string(capacity_) +
                    ",\"raised\":" + std::to_string(raised_) +
                    ",\"dropped\":" + std::to_string(dropped()) +
                    ",\"events\":[";
  bool first = true;
  for (const NumEvent& e : ring_) {
    if (!first) out += ',';
    first = false;
    out += std::string("{\"kind\":\"") + to_string(e.kind) +
           "\",\"op\":" + std::to_string(e.op) + ",\"a\":\"" + hex64(e.a_bits) +
           "\",\"b\":\"" + hex64(e.b_bits) + "\",\"c\":\"" + hex64(e.c_bits) +
           "\",\"detail\":" + std::to_string(e.detail) + "}";
  }
  out += "]}";
  return out;
}

void EventLog::reset() {
  ring_.clear();
  raised_ = 0;
  ctx_ = NumEvent{};
}

}  // namespace csfma
