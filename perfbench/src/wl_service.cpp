// service_mix: two client connections to an in-process daemon
// (serve_connections over its TCP transport, one pool worker per
// connection), closed loop.  Each client round sends kMix: cold submits
// (fresh seeds, small batch and chained jobs across the units, sized to
// cost about the same), cache-hit repeats of the client's recent cold
// requests (the shared cache holds fewer entries than the distinct
// requests of a run), model-mode DSE sweeps and a stats request.
//
// It uses the engine in many small jobs instead of one large one, and puts
// reads (hits) beside writes (misses that insert): a gain on one path that
// costs the other shows here.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "dse/eval.hpp"
#include "service/json_value.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"

namespace perfbench {
namespace {

using namespace csfma;

constexpr int kClients = 2;
constexpr std::size_t kCacheEntries = 64;
constexpr std::size_t kRecent = 8;  // cold requests a hit may repeat
constexpr double kReplyTimeoutS = 30.0;
// A session keeps every job it ran until its connection closes, so a
// long-lived connection grows the daemon by about 0.5 KB per request.
// Clients reconnect every kReconnectRounds rounds (650 requests) so that
// peak RSS measures the daemon's working footprint, not the run length.
constexpr std::uint64_t kReconnectRounds = 50;

enum class Kind { Cold, Hit, Sweep, Stats };
const char* const kKindSpan[] = {"service.submit_cold", "service.submit_hit",
                                 "service.sweep", "service.stats"};
constexpr Kind C = Kind::Cold, H = Kind::Hit, W = Kind::Sweep,
               S = Kind::Stats;
// One client round: 8 cold (one of each shape), 3 hits, 1 sweep, 1 stats.
// Cold submits are the majority so that the mix's median and 90th
// percentile both fall among them: hit round trips (tens of microseconds)
// are dominated by thread wake-up noise on a shared host.
constexpr Kind kMix[] = {C, H, C, C, W, C, H, C, C, S, C, H, C};
constexpr std::size_t kMixLen = sizeof kMix / sizeof kMix[0];

// Cold job shapes, sized so each costs roughly the same engine time.
struct Shape {
  const char* mode;
  const char* unit;
  int size;  // batch: ops; chained: chains of depth 18
};
const Shape kShapes[] = {
    {"batch", "pcs", 1536},    {"chained", "fcs", 16},
    {"batch", "classic", 1280}, {"chained", "discrete", 40},
    {"batch", "fcs", 768},     {"chained", "pcs", 12},
    {"batch", "discrete", 3072}, {"chained", "classic", 32},
};

std::string cold_body(const Shape& s, std::uint64_t seed) {
  std::string b = std::string("\"type\":\"submit\",\"mode\":\"") + s.mode +
                  "\",\"unit\":\"" + s.unit +
                  "\",\"seed\":" + std::to_string(seed);
  if (std::string(s.mode) == "batch")
    return b + ",\"ops\":" + std::to_string(s.size);
  return b + ",\"chains\":" + std::to_string(s.size) + ",\"depth\":18";
}

std::string sweep_body(std::uint64_t seed) {
  return "\"type\":\"sweep\",\"mode\":\"model\",\"unit\":\"pcs\",\"seed\":" +
         std::to_string(seed) + ",\"block\":[44,55],\"group\":11";
}

std::string line_type(const std::string& line) {
  const std::string key = "{\"type\":\"";
  if (line.compare(0, key.size(), key) != 0) return "";
  return line.substr(key.size(), line.find('"', key.size()) - key.size());
}

// The report document spliced into a result reply (its last member).
std::string report_of(const std::string& line) {
  const std::size_t at = line.find("\"report\":");
  if (at == std::string::npos || line.size() < at + 10) return "";
  return line.substr(at + 9, line.size() - (at + 9) - 1);
}

struct Reply {
  std::string terminal;  // the terminal line ("" when none arrived)
  std::string type;      // its type
  int accepted = 0;
  int points = 0;  // sweep_point lines
  std::string foreign;  // a line that belongs to no open request
};

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((std::uint16_t)port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the daemon");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ch_ = std::make_unique<LineChannel>(fd_, fd_);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send `{"id":id,<body>}` and read until its terminal reply.
  Reply call(const std::string& id, const std::string& body) {
    Reply r;
    quickack();
    if (!ch_->write_line("{\"id\":\"" + id + "\"," + body + "}"))
      throw std::runtime_error("daemon connection closed");
    const std::string tag = "\"id\":\"" + id + "\"";
    std::string job_tag = "\"job\":\"-\"";  // sweep points carry only the job
    std::string line;
    for (;;) {
      quickack();
      if (ch_->read_line(&line, kReplyTimeoutS) != LineChannel::Read::Line)
        throw std::runtime_error("no reply from the daemon for " + id);
      if (line.find(tag) == std::string::npos &&
          line.find(job_tag) == std::string::npos) {
        r.foreign = line;
        continue;
      }
      const std::string type = line_type(line);
      if (type == "accepted") {
        ++r.accepted;
        const std::size_t at = line.find("\"job\":\"");
        if (at != std::string::npos)
          job_tag = line.substr(at, line.find('"', at + 7) + 1 - at);
      } else if (type == "sweep_point") {
        ++r.points;
      } else if (type != "progress") {
        r.type = type;
        r.terminal = std::move(line);
        return r;
      }
    }
  }

 private:
  // The daemon's sockets keep Nagle on, so the second line of a multi-line
  // reply waits for the client's ACK; a delayed ACK turns that into a 40 ms
  // stall per request.  Quick-ACK mode is not sticky, so it is re-armed
  // before every read (see NOTES.md).
  void quickack() {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  }

  int fd_ = -1;
  std::unique_ptr<LineChannel> ch_;
};

// The daemon: a TCP listener on an ephemeral port and the accept loop on
// its own thread, sharing one result cache and metrics registry.
class Daemon {
 public:
  Daemon() : cache_(kCacheEntries, &metrics_) {
    std::string err;
    listener_ = listen_tcp("127.0.0.1:0", &err);
    if (listener_ == nullptr) throw std::runtime_error("listen: " + err);
    ServerConfig cfg;
    cfg.session.workers = 1;
    cfg.session.cache = &cache_;
    cfg.session.metrics = &metrics_;
    thread_ = std::thread([this, cfg] { serve_connections(*listener_, cfg); });
  }
  ~Daemon() {
    listener_->stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  int port() const { return listener_->port(); }

 private:
  MetricsRegistry metrics_;
  ResultCache cache_;
  std::unique_ptr<Listener> listener_;
  std::thread thread_;
};

struct Sample {
  Kind kind;
  bool hit;  // the reply said cache hit
  double ms;
};

struct ClientLog {
  RoundLog rounds;
  std::vector<Sample> untraced;  // per-request latencies, untraced rounds
  std::uint64_t requests = 0, hits = 0, submits = 0, busy = 0;
  std::vector<std::string> lines;  // request bodies sent (for parse timing)
  Outcome checks;
};

void run_client(std::unique_ptr<Client>& cl, int port, int ci,
                const Options& opt, Tracer* tracer, ClientLog* log) {
  std::vector<std::pair<std::string, std::string>> recent;  // body, report
  std::uint64_t next = 0, seq = 0, cold = 0;
  const std::uint64_t seed_base =
      1 + (opt.seed % 100000000) * 10000000 + (std::uint64_t)ci * 5000000;
  log->rounds = run_rounds(opt.seconds, tracer, [&](Tracer* t,
                                                    std::uint64_t round) {
    if (round % kReconnectRounds == 0) {
      Tracer::Scope span(t, "service.connect", round * 1000);
      cl = std::make_unique<Client>(port);
    }
    for (Kind kind : kMix) {
      const std::string id =
          "c" + std::to_string(ci) + "-" + std::to_string(++seq);
      std::string body;
      const std::string* expect = nullptr;
      if (kind == Kind::Cold) {
        body = cold_body(kShapes[cold++ % 8], seed_base + next++);
      } else if (kind == Kind::Hit) {
        const auto& pick = recent[(std::size_t)(seq % recent.size())];
        body = pick.first;
        expect = &pick.second;
      } else if (kind == Kind::Sweep) {
        body = sweep_body(seed_base + next++);
      } else {
        body = "\"type\":\"stats\"";
      }
      const std::int64_t t0 = now_ns();
      Reply r;
      {
        Tracer::Scope span(t, kKindSpan[(int)kind], round * 1000 + seq % 1000);
        r = cl->call(id, body);
      }
      const double ms = (double)(now_ns() - t0) * 1e-6;
      Tracer::Scope span(t, "bench.check");
      ++log->requests;
      Outcome& chk = log->checks;
      if (!r.foreign.empty())
        chk.fail(1, "reply for no open request: " + r.foreign.substr(0, 80));
      if (r.type == "error") {
        if (r.terminal.find("\"busy\"") != std::string::npos) ++log->busy;
        chk.fail(1, id + ": " + r.terminal.substr(0, 120));
        continue;
      }
      const bool hit = r.terminal.find("\"cache\":\"hit\"") != std::string::npos;
      if (kind == Kind::Cold || kind == Kind::Hit) {
        ++log->submits;
        log->hits += hit;
        if (r.type != "result" || r.accepted != 1)
          chk.fail(1, id + ": expected one accepted and one result");
        const std::string report = report_of(r.terminal);
        if (expect != nullptr && report != *expect)
          chk.fail(1, id + ": repeated payload differs from the cold one");
        if (kind == Kind::Cold) {
          if (recent.size() == kRecent) recent.erase(recent.begin());
          recent.emplace_back(body, report);
        }
      } else if (kind == Kind::Sweep) {
        if (r.type != "sweep_done" || r.accepted != 1 || r.points != 2)
          chk.fail(1, id + ": expected a two-point sweep");
      } else if (r.type != "stats") {
        chk.fail(1, id + ": expected a stats reply");
      }
      if (t == nullptr) log->untraced.push_back({kind, hit, ms});
      if (log->lines.size() < 256) log->lines.push_back(body);
    }
  });
}

}  // namespace

Outcome run_service_mix(const Options& opt, Tracer* tracer) {
  Outcome out;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> first;
  // Set-up: daemon start until its first reply, repeated.
  auto start = [&] {
    first.reset();
    daemon.reset();
    daemon = std::make_unique<Daemon>();
    first = std::make_unique<Client>(daemon->port());
    if (first->call("setup", "\"type\":\"stats\"").type != "stats")
      throw std::runtime_error("daemon did not answer its first request");
  };
  Samples setup = timed_setup(11, start);
  std::unique_ptr<Client> clients[kClients];
  clients[0] = std::move(first);
  for (int i = 1; i < kClients; ++i)
    clients[i] = std::make_unique<Client>(daemon->port());

  ClientLog logs[kClients];
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
      threads.emplace_back([&, i] {
        try {
          run_client(clients[i], daemon->port(), i, opt, tracer, &logs[i]);
        } catch (const std::exception& e) {
          logs[i].checks.fail(1, e.what());
        }
      });
    for (std::thread& t : threads) t.join();
  }
  // Server-side view: latency and queue-wait histograms from `stats`.
  const Reply stats = clients[0]->call("final", "\"type\":\"stats\"");
  for (auto& c : clients) c.reset();
  daemon.reset();

  RoundLog rounds;
  Samples all, cold, hit, sweep;
  std::uint64_t requests = 1, hits = 0, submits = 0, busy = 0;
  for (ClientLog& l : logs) {
    rounds.merge(l.rounds);
    requests += l.requests;
    hits += l.hits;
    submits += l.submits;
    busy += l.busy;
    out.failed += l.checks.failed;
    out.failures.insert(out.failures.end(), l.checks.failures.begin(),
                        l.checks.failures.end());
    for (const Sample& s : l.untraced) {
      all.add(s.ms);
      if (s.kind == Kind::Sweep) sweep.add(s.ms);
      else if (s.kind != Kind::Stats) (s.hit ? hit : cold).add(s.ms);
    }
  }
  out.attempted = requests;

  JsonValue doc;
  JsonParseError perr;
  double server_hit_p50 = 0.0, wait_p50 = 0.0, wait_p99 = 0.0;
  if (stats.type == "stats" && json_parse(stats.terminal, &doc, &perr)) {
    auto pct = [&](const char* hist, const char* q) {
      const JsonValue* p = doc.find("percentiles");
      const JsonValue* h = p != nullptr ? p->find(hist) : nullptr;
      const JsonValue* v = h != nullptr ? h->find(q) : nullptr;
      return v != nullptr && v->is_number() ? v->as_number() : 0.0;
    };
    server_hit_p50 = pct("service.latency_ms.submit.cache_hit", "p50");
    wait_p50 = pct("service.queue_wait_ms", "p50");
    wait_p99 = pct("service.queue_wait_ms", "p99");
  } else {
    out.fail(1, "final stats request failed");
  }

  // Layer probes outside the measured window: request parsing and the DSE
  // model evaluation the sweeps run server-side.
  Samples parse_us, eval_ms;
  for (const std::string& body : logs[0].lines) {
    const std::string line = "{\"id\":\"p\"," + body + "}";
    const std::int64_t t0 = now_ns();
    ParseOutcome p;
    {
      Tracer::Scope span(tracer, "service.parse_request_line");
      p = parse_request_line(line);
    }
    parse_us.add((double)(now_ns() - t0) * 1e-3);
    out.require(p.ok, "the benchmark sent an unparseable request");
  }
  for (int block : {44, 55}) {
    dse::DseConfig cfg;
    cfg.seed = opt.seed;
    cfg.block = block;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, "dse.eval_design");
      dse::eval_design(cfg);
    }
    eval_ms.add((double)(now_ns() - t0) * 1e-6);
  }

  const double rate = rounds.rate((double)kMixLen) * kClients;
  auto& m = out.metrics;
  m["throughput_per_s"] = rate;
  m["requests_per_s"] = rate;
  m["latency_p50_ms"] = all.median();
  m["latency_p90_ms"] = all.quantile(0.9);
  m["latency_n"] = (double)all.size();
  m["cold_p50_ms"] = cold.median();
  m["cold_p99_ms"] = cold.quantile(0.99);
  m["cold_n"] = (double)cold.size();
  m["hit_p50_ms"] = hit.median();
  m["hit_p99_ms"] = hit.quantile(0.99);
  m["hit_n"] = (double)hit.size();
  m["sweep_p50_ms"] = sweep.median();
  m["sweep_n"] = (double)sweep.size();
  m["service.parse_us"] = parse_us.median();
  m["service.server_latency_ms.p50"] = server_hit_p50;
  m["transport.overhead_ms.p50"] = hit.median() - server_hit_p50;
  m["service.queue_wait_ms.p50"] = wait_p50;
  m["service.queue_wait_ms.p99"] = wait_p99;
  m["service.cache_hit_ratio"] = ratio((double)hits, (double)submits);
  m["service.busy_rejects"] = (double)busy;
  m["dse.eval_ms"] = eval_ms.median();
  if (tracer != nullptr) add_trace_metrics(*tracer, rounds, &out);
  finish_setup(std::move(setup), 11, start, &out);
  first.reset();
  daemon.reset();
  return out;
}

}  // namespace perfbench
