#include "service/log.hpp"

#include "telemetry/json.hpp"

namespace csfma {

std::unique_ptr<ServiceLog> ServiceLog::open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) return nullptr;
  return std::unique_ptr<ServiceLog>(new ServiceLog(f, /*owns=*/true));
}

std::unique_ptr<ServiceLog> ServiceLog::attach(std::FILE* stream) {
  return std::unique_ptr<ServiceLog>(new ServiceLog(stream, /*owns=*/false));
}

ServiceLog::ServiceLog(std::FILE* f, bool owns)
    : f_(f), owns_(owns), origin_(std::chrono::steady_clock::now()) {}

ServiceLog::~ServiceLog() {
  if (owns_ && f_) std::fclose(f_);
}

ServiceLog::Line::Line(ServiceLog* log, const char* kind)
    : log_(log), kind_(kind) {}

ServiceLog::Line& ServiceLog::Line::det(const char* key,
                                        const std::string& v) {
  std::string quoted = "\"";  // appends dodge g++ 12's false -Wrestrict
  quoted += json_escape(v);
  quoted += '"';
  det_.emplace_back(key, std::move(quoted));
  return *this;
}

ServiceLog::Line& ServiceLog::Line::det(const char* key, const char* v) {
  return det(key, std::string(v));
}

ServiceLog::Line& ServiceLog::Line::det(const char* key, std::uint64_t v) {
  det_.emplace_back(key, std::to_string(v));
  return *this;
}

ServiceLog::Line& ServiceLog::Line::det(const char* key, int v) {
  det_.emplace_back(key, std::to_string(v));
  return *this;
}

ServiceLog::Line& ServiceLog::Line::det_raw(const char* key,
                                            const std::string& json) {
  det_.emplace_back(key, json);
  return *this;
}

ServiceLog::Line& ServiceLog::Line::timing(const char* key, double v) {
  timing_.emplace_back(key, json_double(v));
  return *this;
}

ServiceLog::Line& ServiceLog::Line::timing(const char* key, std::uint64_t v) {
  timing_.emplace_back(key, std::to_string(v));
  return *this;
}

void ServiceLog::Line::commit() {
  if (!log_) return;
  ServiceLog* log = log_;
  log_ = nullptr;
  log->write_line(*this);
}

void ServiceLog::write_line(Line& l) {
  const double now_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  std::string out = "{\"kind\":\"" + json_escape(l.kind_) + "\"";
  std::lock_guard<std::mutex> lock(mu_);
  seq_ += 1;
  out += ",\"seq\":" + std::to_string(seq_);
  for (const auto& [k, v] : l.det_) out += ",\"" + k + "\":" + v;
  // ts_ms is clamped monotonic under the mutex: steady_clock reads from
  // different threads can race with line ordering, but the log promises
  // non-decreasing timestamps in seq order.
  last_ts_ms_ = now_ms > last_ts_ms_ ? now_ms : last_ts_ms_;
  out += ",\"t\":{\"ts_ms\":" + json_double(last_ts_ms_);
  for (const auto& [k, v] : l.timing_) out += ",\"" + k + "\":" + v;
  out += "}}\n";
  std::fwrite(out.data(), 1, out.size(), f_);
  std::fflush(f_);
}

}  // namespace csfma
