#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* intern(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  return names.insert(name).first->c_str();
}

struct Lane {
  std::uint32_t index = 0;
  std::vector<Span> spans;
  std::int32_t open = -1;  // innermost open span
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
};

namespace {

// One Tracer is live per process; the cache only has to notice a new one.
thread_local const Tracer* tls_owner = nullptr;
thread_local Lane* tls_lane = nullptr;

}  // namespace

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

Lane* Tracer::lane() {
  if (tls_owner == this) return tls_lane;
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::make_unique<Lane>());
  lanes_.back()->index = (std::uint32_t)(lanes_.size() - 1);
  lanes_.back()->spans.reserve(1 << 16);
  tls_owner = this;
  tls_lane = lanes_.back().get();
  return tls_lane;
}

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t id) {
  if (t == nullptr) return;
  lane_ = t->lane();
  Span s;
  s.name = name;
  s.parent = lane_->open;
  s.lane = lane_->index;
  s.id = (id == 0 && s.parent >= 0) ? lane_->spans[(std::size_t)s.parent].id
                                    : id;
  index_ = (std::int32_t)lane_->spans.size();
  lane_->open = index_;
  s.t0 = now_ns();
  lane_->spans.push_back(s);
}

Tracer::Scope::~Scope() {
  if (lane_ == nullptr) return;
  Span& s = lane_->spans[(std::size_t)index_];
  s.t1 = now_ns();
  lane_->open = s.parent;
}

void Tracer::add_window(std::int64_t t0, std::int64_t t1) {
  lane()->windows.emplace_back(t0, t1);
}

std::vector<bool> Tracer::inside_mask(const Lane& l) const {
  // A top-level span is inside when it starts within a window; children
  // inherit their top-level ancestor's verdict (parents precede children).
  std::vector<bool> in(l.spans.size(), false);
  for (std::size_t i = 0; i < l.spans.size(); ++i) {
    const Span& s = l.spans[i];
    if (s.parent >= 0) {
      in[i] = in[(std::size_t)s.parent];
      continue;
    }
    for (const auto& [w0, w1] : l.windows)
      if (s.t0 >= w0 && s.t0 < w1) {
        in[i] = true;
        break;
      }
  }
  return in;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& l : lanes_)
    out.insert(out.end(), l->spans.begin(), l->spans.end());
  return out;
}

std::map<std::string, SpanTotals> Tracer::totals(bool inside) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> out;
  for (const auto& l : lanes_) {
    const std::vector<bool> in = inside_mask(*l);
    std::vector<double> child_s(l->spans.size(), 0.0);
    for (const Span& s : l->spans)
      if (s.parent >= 0)
        child_s[(std::size_t)s.parent] += (double)(s.t1 - s.t0) * 1e-9;
    for (std::size_t i = 0; i < l->spans.size(); ++i) {
      if (in[i] != inside) continue;
      const Span& s = l->spans[i];
      SpanTotals& t = out[s.name];
      const double d = (double)(s.t1 - s.t0) * 1e-9;
      ++t.count;
      t.total_s += d;
      t.self_s += d - child_s[i];
    }
  }
  return out;
}

double Tracer::window_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  double w = 0.0;
  for (const auto& l : lanes_)
    for (const auto& [t0, t1] : l->windows) w += (double)(t1 - t0) * 1e-9;
  return w;
}

double Tracer::covered_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  double c = 0.0;
  for (const auto& l : lanes_) {
    const std::vector<bool> in = inside_mask(*l);
    for (std::size_t i = 0; i < l->spans.size(); ++i)
      if (in[i] && l->spans[i].parent < 0)
        c += (double)(l->spans[i].t1 - l->spans[i].t0) * 1e-9;
  }
  return c;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::int64_t base = all.empty() ? 0 : all.front().t0;
  for (const Span& s : all) base = std::min(base, s.t0);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.lane,
                 (double)(s.t0 - base) * 1e-3, (double)(s.t1 - s.t0) * 1e-3,
                 (unsigned long long)s.id, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
