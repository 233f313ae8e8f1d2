// csfma_explore: the DSE observatory driver (docs/dse.md).
//
// Expands a full model-mode configuration space (unit, rounding, seed,
// block, group, rwidth, select, depth, ops) into server-side sweeps
// fanned across one or more csfma_serve daemons, consumes the streamed
// sweep_point lines, and emits:
//
//   - live `explore_progress` lines (rate-limited): frontier size,
//     coverage, throughput, ETA;
//   - periodic atomic frontier snapshots (csfma-frontier-snapshot-v1,
//     written tmp+rename so a dashboard never reads a torn file);
//   - a final csfma-frontier-v1 report: every point's metrics, the Pareto
//     frontier with its eviction log, per-axis sensitivity, coverage, a
//     replay digest, and (timing-only) per-daemon contribution and fleet
//     health;
//   - with --fleettrace, a csfma-fleettrace-v1 artifact (docs/FORMATS.md):
//     the exploration's own span tree — one trace id for the whole run,
//     one span per daemon connection and per sweep chunk with send/recv
//     timestamps — plus per-daemon clock-offset estimates (midpoint
//     method over stats round trips; recorded, never silently applied).
//     scripts/trace_merge.py joins it with each daemon's --trace-out file
//     into one offset-aligned chrome://tracing timeline.
//
// Distributed tracing: every chunk request carries the exploration trace
// id and the chunk span id as its parent_span, so each daemon-side req-N
// span tree hangs under the chunk that caused it in the merged timeline.
// --stats-poll additionally polls each daemon's `stats` request on a
// timer (over a dedicated connection, so a busy worker stream is never
// interleaved) into the per-daemon fleet-health section of the report's
// timing member: queue depth, cache hit rate, p99 latency.
//
// Determinism contract: everything in the report except the trailing
// "timing" member is a pure function of the configuration space — byte
// identical for any daemon count, daemon worker count, and point arrival
// order.  The live frontier is kept for observability; the REPORTED
// frontier is rebuilt by replaying points in canonical index order.
// Resume comes free from the daemons' result caches (csfma_serve
// --cache-file): a rerun against journal-restored daemons re-simulates
// nothing and reproduces the identical report bytes.
//
// Every streamed point is integrity-checked twice: its cache key must
// match the locally computed canonical key, and each chunk's payload
// digest must match the server's sweep_done digest.

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dse/coverage.hpp"
#include "dse/frontier.hpp"
#include "dse/sensitivity.hpp"
#include "service/json_value.hpp"
#include "service/protocol.hpp"
#include "service/sweep.hpp"
#include "service/transport.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace csfma;

// ---------------------------------------------------------------- options

struct Options {
  std::vector<std::string> daemons;  // HOST:PORT, one worker thread each
  std::string out;                   // final report path (required)
  std::string snapshot;              // frontier snapshot path ("" = off)
  std::string fleettrace;            // csfma-fleettrace-v1 artifact path
  std::uint64_t snapshot_every = 256;   // points between snapshots
  double progress_interval_s = 1.0;     // min seconds between progress lines
  double read_timeout_s = 300.0;        // per-line daemon read timeout
  double stats_poll_s = 0.0;            // fleet-health poll period; 0 = off

  // The configuration space (defaults = the paper's shipping geometry).
  std::vector<UnitKind> units{UnitKind::Pcs};
  std::vector<Round> rms{Round::NearestEven};
  std::vector<std::uint64_t> seeds{1};
  std::vector<int> blocks{55};
  std::vector<int> groups{11};
  std::vector<int> rwidths{0};
  std::vector<dse::BlockSelect> selects{dse::BlockSelect::Lza};
  std::vector<int> depths{8};
  std::vector<std::uint64_t> ops{32};
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "csfma_explore: %s\n", msg);
  std::fprintf(stderr,
               "usage: csfma_explore --daemon HOST:PORT [--daemon ...] "
               "--out FILE\n"
               "  [--snapshot FILE] [--snapshot-every N]\n"
               "  [--progress-interval SECONDS]\n"
               "  [--fleettrace FILE] [--stats-poll SECONDS]\n"
               "  space axes (comma lists; LO:HI:STEP ranges for ints):\n"
               "  [--unit pcs,fcs,discrete,classic] [--rounding LIST]\n"
               "  [--seed LIST] [--block LIST] [--group LIST]\n"
               "  [--rwidth LIST] [--select lza,zd] [--depth LIST]\n"
               "  [--ops LIST]\n");
  std::exit(1);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Integer axis: "a,b,c" and/or "lo:hi:step" range elements (inclusive).
std::vector<int> parse_int_axis(const std::string& arg, const char* name) {
  std::vector<int> out;
  for (const std::string& tok : split_commas(arg)) {
    char* end = nullptr;
    long lo = std::strtol(tok.c_str(), &end, 10);
    if (end == tok.c_str()) usage(("bad --" + std::string(name)).c_str());
    if (*end == ':') {
      char* end2 = nullptr;
      long hi = std::strtol(end + 1, &end2, 10);
      long step = 1;
      if (*end2 == ':') step = std::strtol(end2 + 1, &end2, 10);
      if (step <= 0 || hi < lo)
        usage(("bad range in --" + std::string(name)).c_str());
      for (long v = lo; v <= hi; v += step) out.push_back((int)v);
    } else if (*end == '\0') {
      out.push_back((int)lo);
    } else {
      usage(("bad --" + std::string(name)).c_str());
    }
  }
  if (out.empty()) usage(("empty --" + std::string(name)).c_str());
  return out;
}

std::vector<std::uint64_t> parse_u64_axis(const std::string& arg,
                                          const char* name) {
  std::vector<std::uint64_t> out;
  for (int v : parse_int_axis(arg, name)) {
    if (v < 0) usage(("negative value in --" + std::string(name)).c_str());
    out.push_back((std::uint64_t)v);
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--daemon") {
      o.daemons.push_back(need(i));
    } else if (a == "--out") {
      o.out = need(i);
    } else if (a == "--snapshot") {
      o.snapshot = need(i);
    } else if (a == "--snapshot-every") {
      o.snapshot_every = (std::uint64_t)std::strtoull(
          need(i).c_str(), nullptr, 10);
      if (o.snapshot_every == 0) usage("--snapshot-every must be positive");
    } else if (a == "--progress-interval") {
      o.progress_interval_s = std::strtod(need(i).c_str(), nullptr);
    } else if (a == "--read-timeout") {
      o.read_timeout_s = std::strtod(need(i).c_str(), nullptr);
    } else if (a == "--fleettrace") {
      o.fleettrace = need(i);
    } else if (a == "--stats-poll") {
      o.stats_poll_s = std::strtod(need(i).c_str(), nullptr);
      if (o.stats_poll_s < 0.0) usage("--stats-poll must be >= 0");
    } else if (a == "--unit") {
      o.units.clear();
      for (const std::string& tok : split_commas(need(i))) {
        UnitKind k;
        if (!parse_unit_kind(tok, &k)) usage("bad --unit value");
        o.units.push_back(k);
      }
    } else if (a == "--rounding") {
      o.rms.clear();
      for (const std::string& tok : split_commas(need(i))) {
        Round r;
        if (!parse_round(tok, &r)) usage("bad --rounding value");
        o.rms.push_back(r);
      }
    } else if (a == "--select") {
      o.selects.clear();
      for (const std::string& tok : split_commas(need(i))) {
        dse::BlockSelect s;
        if (!dse::parse_block_select(tok, s)) usage("bad --select value");
        o.selects.push_back(s);
      }
    } else if (a == "--seed") {
      o.seeds = parse_u64_axis(need(i), "seed");
    } else if (a == "--block") {
      o.blocks = parse_int_axis(need(i), "block");
    } else if (a == "--group") {
      o.groups = parse_int_axis(need(i), "group");
    } else if (a == "--rwidth") {
      o.rwidths = parse_int_axis(need(i), "rwidth");
    } else if (a == "--depth") {
      o.depths = parse_int_axis(need(i), "depth");
    } else if (a == "--ops") {
      o.ops = parse_u64_axis(need(i), "ops");
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.daemons.empty()) usage("at least one --daemon is required");
  if (o.out.empty()) usage("--out is required");
  return o;
}

// ------------------------------------------------------ space -> chunks

/// One server-side sweep: a fixed (unit, rounding, seed, block, group,
/// rwidth) prefix crossing the (select, depth, ops) inner axes.  Chunks
/// enumerate in the global canonical nesting order — unit, rounding,
/// seed, block, group, rwidth, select, depth, ops, outermost first, with
/// invalid pcs (block, group) pairs skipped — so chunk `base` indices
/// plus the server's in-chunk expansion order yield the global point
/// index whatever daemon ran the chunk.
struct Chunk {
  std::size_t ordinal = 0;
  std::size_t base = 0;                // global index of the first point
  std::vector<SubmitRequest> points;   // expected, in server order
  std::string wire;                    // the rendered sweep request line
  // Fleet tracing, filled by the one worker that ran the chunk: which
  // daemon took it, and the chunk span's bounds on the explorer clock
  // (request write to sweep_done read, microseconds since exploration
  // start).
  int daemon = -1;
  std::uint64_t send_us = 0;
  std::uint64_t recv_us = 0;
};

bool valid_design(UnitKind unit, int block, int group) {
  return unit != UnitKind::Pcs || block % group == 0;
}

/// The exploration-level trace id: a pure function of the configuration
/// space, so reruns of the same space correlate under the same id.
std::string exploration_trace_id(const Options& o) {
  std::uint64_t d = fnv1a64("csfma-explore");
  for (UnitKind u : o.units) d = fnv1a64(to_string(u), fnv1a64("|u|", d));
  for (Round r : o.rms) d = fnv1a64(to_string(r), fnv1a64("|r|", d));
  for (std::uint64_t s : o.seeds)
    d = fnv1a64(std::to_string(s), fnv1a64("|s|", d));
  for (int b : o.blocks) d = fnv1a64(std::to_string(b), fnv1a64("|b|", d));
  for (int g : o.groups) d = fnv1a64(std::to_string(g), fnv1a64("|g|", d));
  for (int r : o.rwidths) d = fnv1a64(std::to_string(r), fnv1a64("|w|", d));
  for (dse::BlockSelect s : o.selects)
    d = fnv1a64(dse::to_string(s), fnv1a64("|x|", d));
  for (int dp : o.depths) d = fnv1a64(std::to_string(dp), fnv1a64("|d|", d));
  for (std::uint64_t op : o.ops)
    d = fnv1a64(std::to_string(op), fnv1a64("|o|", d));
  return "explore-" + hex16(d);
}

std::string render_sweep_line(const Options& o, const std::string& trace_id,
                              std::size_t ordinal, UnitKind unit, Round rm,
                              std::uint64_t seed, int block, int group,
                              int rwidth) {
  JsonWriter w;
  w.begin_object();
  w.key("type");
  w.value("sweep");
  w.key("id");
  std::string id = "c";
  id += std::to_string(ordinal);
  w.value(id);
  // The distributed-tracing context: the daemon echoes both fields on
  // every reply and stamps its server spans with them, which is what lets
  // trace_merge.py parent the daemon-side req-N span tree under this
  // chunk's span.
  w.key("trace_id");
  w.value(trace_id);
  w.key("parent_span");
  w.value("chunk-" + std::to_string(ordinal));
  w.key("mode");
  w.value("model");
  w.key("unit");
  w.value(to_string(unit));
  w.key("rounding");
  w.value(to_string(rm));
  w.key("seed");
  w.value(seed);
  w.key("block");
  w.value(block);
  w.key("group");
  w.value(group);
  w.key("rwidth");
  w.value(rwidth);
  w.key("select");
  w.begin_array();
  for (dse::BlockSelect s : o.selects) w.value(dse::to_string(s));
  w.end_array();
  w.key("depth");
  w.begin_array();
  for (int d : o.depths) w.value(d);
  w.end_array();
  w.key("ops");
  w.begin_array();
  for (std::uint64_t v : o.ops) w.value(v);
  w.end_array();
  w.end_object();
  return w.str();
}

std::vector<Chunk> build_chunks(const Options& o,
                                const std::string& trace_id) {
  const std::size_t inner =
      o.selects.size() * o.depths.size() * o.ops.size();
  if (inner == 0 || inner > kMaxSweepPoints)
    usage("select x depth x ops axes exceed the per-sweep point limit");
  std::vector<Chunk> chunks;
  std::size_t base = 0;
  for (UnitKind unit : o.units) {
    for (Round rm : o.rms) {
      for (std::uint64_t seed : o.seeds) {
        for (int block : o.blocks) {
          for (int group : o.groups) {
            if (!valid_design(unit, block, group)) continue;
            for (int rwidth : o.rwidths) {
              Chunk c;
              c.ordinal = chunks.size();
              c.base = base;
              c.wire = render_sweep_line(o, trace_id, c.ordinal, unit, rm,
                                         seed, block, group, rwidth);
              SweepRequest sweep;
              sweep.mode = SimMode::Model;
              sweep.units = {unit};
              sweep.rms = {rm};
              sweep.seeds = {seed};
              sweep.blocks = {block};
              sweep.groups = {group};
              sweep.rwidths = {rwidth};
              sweep.selects = o.selects;
              sweep.depths = o.depths;
              sweep.ops = o.ops;
              for (SweepPoint& p : expand_sweep(sweep))
                c.points.push_back(std::move(p.req));
              base += c.points.size();
              chunks.push_back(std::move(c));
            }
          }
        }
      }
    }
  }
  if (chunks.empty()) usage("the configuration space is empty");
  return chunks;
}

// ------------------------------------------------------------ exploration

struct PointRec {
  std::string key;  // 16-hex cache key (the canonical identity)
  bool cached = false;
  double delay_ns = 0.0, fmax_mhz = 0.0, toggles_per_op = 0.0;
  double energy_nj = 0.0;
  std::uint64_t cycles = 0, luts = 0, dsps = 0;
};

/// The point's axis labels (rwidth resolved: the physical knob value).
std::vector<std::pair<std::string, std::string>> point_axes(
    const SubmitRequest& p) {
  const dse::DseConfig cfg = p.model_config();
  return {
      {"unit", to_string(p.unit)},
      {"rounding", to_string(p.rm)},
      {"seed", std::to_string(p.seed)},
      {"block", std::to_string(cfg.block)},
      {"group", std::to_string(cfg.group)},
      {"rwidth", std::to_string(cfg.resolved_round_width())},
      {"select", dse::to_string(cfg.select)},
      {"depth", std::to_string(cfg.depth)},
      {"ops", std::to_string(cfg.ops)},
  };
}

struct DaemonStats {
  std::string addr;
  std::uint64_t chunks = 0, points = 0, cached = 0, fresh = 0;
  // Connection span bounds (explorer clock, us since exploration start).
  std::uint64_t conn_t0_us = 0, conn_t1_us = 0;
  // Fleet health, refreshed by each stats round trip (last value wins).
  std::uint64_t stats_samples = 0;
  double queue_depth = 0.0;
  double cache_hit_rate = 0.0;
  double p99_ms = 0.0;
  /// Midpoint clock-offset estimates, one per stats round trip:
  /// explorer_us ~= daemon_us + offset_us, where daemon_us counts from
  /// the daemon's start (the clock its --trace-out spans use).  Recorded
  /// for trace_merge.py; never applied here.
  std::vector<double> offsets_us;
};

struct Explorer {
  const Options& opt;
  std::vector<Chunk>& chunks;
  std::size_t total_points;
  std::string trace_id;

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};  // stops the fleet-health pollers

  std::mutex mu;  // everything below
  std::vector<PointRec> results;       // by global index
  dse::ParetoFrontier live_frontier;   // arrival order (observability only)
  dse::CoverageTracker coverage;
  std::vector<DaemonStats> daemons;
  std::string error;                    // first failure, for stderr
  std::chrono::steady_clock::time_point t0;
  std::chrono::steady_clock::time_point last_progress;
  std::uint64_t last_snapshot_done = 0;

  Explorer(const Options& o, std::vector<Chunk>& ch, std::size_t total)
      : opt(o), chunks(ch), total_points(total) {
    results.resize(total);
    for (const Chunk& c : chunks)
      for (const SubmitRequest& p : c.points)
        for (const auto& [axis, value] : point_axes(p))
          coverage.add_expected(axis, value, 1);
    coverage.set_total(total);
    for (const std::string& addr : o.daemons) {
      DaemonStats ds;
      ds.addr = addr;
      daemons.push_back(std::move(ds));
    }
    t0 = std::chrono::steady_clock::now();
    last_progress = t0 - std::chrono::hours(1);
  }

  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    if (!failed.exchange(true)) error = why;
  }

  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

  /// Microseconds since exploration start — the explorer's trace clock.
  std::uint64_t us_now() const {
    return (std::uint64_t)std::chrono::duration_cast<
               std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                          t0)
        .count();
  }

  /// Called with mu held after each point: rate-limited progress line.
  void maybe_progress_locked(bool force) {
    const auto now = std::chrono::steady_clock::now();
    if (!force &&
        std::chrono::duration<double>(now - last_progress).count() <
            opt.progress_interval_s)
      return;
    last_progress = now;
    const double el = elapsed_s();
    JsonWriter w;
    w.begin_object();
    w.key("type");
    w.value("explore_progress");
    w.key("points_done");
    w.value(coverage.done());
    w.key("points_total");
    w.value(coverage.total());
    w.key("cached");
    w.value(coverage.cached());
    w.key("frontier");
    w.value((std::uint64_t)live_frontier.size());
    w.key("elapsed_s");
    w.value(el);
    w.key("points_per_s");
    w.value(el > 0.0 ? (double)coverage.done() / el : 0.0);
    w.key("eta_s");
    w.value(coverage.eta_seconds());
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
  }

  /// Called with mu held: periodic atomic snapshot of the live frontier.
  void maybe_snapshot_locked(bool force) {
    if (opt.snapshot.empty()) return;
    if (!force && coverage.done() < last_snapshot_done + opt.snapshot_every)
      return;
    last_snapshot_done = coverage.done();
    JsonWriter w;
    w.begin_object();
    w.key("format");
    w.value("csfma-frontier-snapshot-v1");
    w.key("points_total");
    w.value(coverage.total());
    w.key("points_done");
    w.value(coverage.done());
    w.key("points_cached");
    w.value(coverage.cached());
    w.key("frontier_size");
    w.value((std::uint64_t)live_frontier.size());
    w.key("frontier");
    w.begin_array();
    for (const dse::FrontierPoint& p : live_frontier.sorted())
      w.value(p.key);
    w.end_array();
    w.end_object();
    const std::string tmp = opt.snapshot + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return;  // snapshotting is best-effort
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::rename(tmp.c_str(), opt.snapshot.c_str());
  }
};

int connect_tcp(const std::string& host_port, std::string* err) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos) {
    *err = "daemon address must be HOST:PORT: " + host_port;
    return -1;
  }
  const std::string host = host_port.substr(0, colon);
  const std::string port = host_port.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = getaddrinfo(host.empty() ? "127.0.0.1" : host.c_str(),
                             port.c_str(), &hints, &res);
  if (rc != 0) {
    *err = "cannot resolve " + host_port + ": " + gai_strerror(rc);
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  if (fd < 0) {
    *err = "cannot connect to " + host_port;
    return -1;
  }
  // Requests are single small lines; do not hold them back for an ACK.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One `stats` round trip on `ch`: refresh the daemon's fleet-health
/// fields and record a midpoint clock-offset sample.  Returns false when
/// the connection is unusable; health polling is observability, so the
/// caller decides whether that is fatal.
bool stats_round(Explorer& ex, LineChannel& ch, DaemonStats& stats,
                 std::size_t daemon_idx, std::uint64_t seq) {
  JsonWriter req;
  req.begin_object();
  req.key("type");
  req.value("stats");
  req.key("id");
  req.value("health-" + std::to_string(daemon_idx) + "-" +
            std::to_string(seq));
  req.key("trace_id");
  req.value(ex.trace_id);
  req.key("parent_span");
  req.value("conn-" + std::to_string(daemon_idx));
  req.end_object();
  const std::uint64_t send_us = ex.us_now();
  if (!ch.write_line(req.str())) return false;
  JsonValue doc;
  std::string line;
  for (;;) {
    if (ch.read_line(&line, ex.opt.read_timeout_s) !=
        LineChannel::Read::Line)
      return false;
    JsonParseError jerr;
    if (!json_parse(line, &doc, &jerr)) return false;
    const JsonValue* type = doc.find("type");
    if (type == nullptr || !type->is_string()) return false;
    if (type->as_string() == "stats") break;
  }
  const std::uint64_t recv_us = ex.us_now();
  const JsonValue* up = doc.find("uptime_s");
  if (up == nullptr || !up->is_number()) return false;
  // Midpoint method: the daemon stamped uptime_s somewhere between our
  // send and our recv; the midpoint is the unbiased estimate.  The
  // resulting offset maps the daemon's own clock (which its --trace-out
  // spans use) onto the explorer timeline.  Recorded only — applying it
  // is trace_merge.py's job.
  const double offset_us = 0.5 * ((double)send_us + (double)recv_us) -
                           up->as_number() * 1e6;
  double queue_depth = 0.0, hit_rate = 0.0, p99 = 0.0;
  if (const JsonValue* metrics = doc.find("metrics")) {
    if (const JsonValue* gauges = metrics->find("gauges"))
      if (const JsonValue* g = gauges->find("service.queue.depth"))
        if (const JsonValue* v = g->find("value");
            v != nullptr && v->is_number())
          queue_depth = v->as_number();
    if (const JsonValue* counters = metrics->find("counters")) {
      auto counter = [&](const char* name) -> double {
        const JsonValue* c = counters->find(name);
        const JsonValue* v = c != nullptr ? c->find("value") : nullptr;
        return v != nullptr && v->is_number() ? v->as_number() : 0.0;
      };
      const double hits = counter("service.cache.hits");
      const double lookups = hits + counter("service.cache.misses");
      hit_rate = lookups > 0.0 ? hits / lookups : 0.0;
    }
  }
  if (const JsonValue* pct = doc.find("percentiles");
      pct != nullptr && pct->is_object()) {
    // The slowest tail the daemon has shown for any request type/outcome.
    for (const auto& [name, h] : pct->as_object()) {
      if (name.rfind("service.latency_ms.", 0) != 0) continue;
      const JsonValue* count = h.find("count");
      const JsonValue* v = h.find("p99");
      if (count != nullptr && count->is_int() && count->as_int() > 0 &&
          v != nullptr && v->is_number() && v->as_number() > p99)
        p99 = v->as_number();
    }
  }
  {
    std::lock_guard<std::mutex> lock(ex.mu);
    stats.stats_samples += 1;
    stats.queue_depth = queue_depth;
    stats.cache_hit_rate = hit_rate;
    stats.p99_ms = p99;
    stats.offsets_us.push_back(offset_us);
  }
  return true;
}

/// Fleet-health poller: its own connection per daemon, so stats requests
/// never interleave with the worker's sweep stream.  Best-effort — a
/// daemon that refuses the extra connection just reports fewer samples.
void health_poller(Explorer& ex, std::size_t daemon_idx) {
  DaemonStats& stats = ex.daemons[daemon_idx];
  std::string err;
  const int fd = connect_tcp(stats.addr, &err);
  if (fd < 0) return;
  {
    LineChannel ch(fd, fd);
    std::uint64_t seq = 1;
    while (!ex.done.load(std::memory_order_relaxed)) {
      if (!stats_round(ex, ch, stats, daemon_idx, seq++)) break;
      auto until = std::chrono::steady_clock::now() +
                   std::chrono::duration<double>(ex.opt.stats_poll_s);
      while (!ex.done.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  close(fd);
}

/// Run one chunk over an established channel.  Returns false on any
/// transport, protocol, or integrity failure (the explorer aborts —
/// a partial frontier must never masquerade as a complete one).
bool run_chunk(Explorer& ex, Chunk& chunk, LineChannel& ch,
               DaemonStats& stats, std::size_t daemon_idx) {
  chunk.daemon = (int)daemon_idx;
  chunk.send_us = ex.us_now();
  if (!ch.write_line(chunk.wire)) {
    ex.fail("daemon " + stats.addr + ": connection lost (write)");
    return false;
  }
  const auto t_chunk = std::chrono::steady_clock::now();
  std::uint64_t digest = kSweepDigestSeed;
  std::size_t got = 0;
  std::string line;
  for (;;) {
    const LineChannel::Read r = ch.read_line(&line, ex.opt.read_timeout_s);
    if (r != LineChannel::Read::Line) {
      ex.fail("daemon " + stats.addr + ": connection lost (read)");
      return false;
    }
    JsonValue doc;
    JsonParseError jerr;
    if (!json_parse(line, &doc, &jerr)) {
      ex.fail("daemon " + stats.addr + ": unparsable reply: " + line);
      return false;
    }
    const JsonValue* type = doc.find("type");
    if (type == nullptr || !type->is_string()) {
      ex.fail("daemon " + stats.addr + ": reply without type: " + line);
      return false;
    }
    const std::string& t = type->as_string();
    if (t == "accepted" || t == "progress") continue;
    if (t == "error") {
      const JsonValue* msg = doc.find("message");
      ex.fail("daemon " + stats.addr + " rejected chunk " +
              std::to_string(chunk.ordinal) + ": " +
              (msg != nullptr && msg->is_string() ? msg->as_string()
                                                  : line));
      return false;
    }
    if (t == "sweep_point") {
      const JsonValue* idx = doc.find("index");
      const JsonValue* cache = doc.find("cache");
      const JsonValue* key = doc.find("cache_key");
      const JsonValue* report = doc.find("report");
      if (idx == nullptr || !idx->is_int() || cache == nullptr ||
          key == nullptr || report == nullptr) {
        ex.fail("daemon " + stats.addr + ": malformed sweep_point: " + line);
        return false;
      }
      const std::size_t i = (std::size_t)idx->as_int();
      if (i >= chunk.points.size() || i != got) {
        ex.fail("daemon " + stats.addr + ": out-of-order point index " +
                std::to_string(i) + " in chunk " +
                std::to_string(chunk.ordinal));
        return false;
      }
      const SubmitRequest& expect = chunk.points[i];
      if (key->as_string() != expect.cache_key()) {
        ex.fail("daemon " + stats.addr + ": cache key mismatch at chunk " +
                std::to_string(chunk.ordinal) + " point " +
                std::to_string(i) + ": got " + key->as_string() +
                ", expected " + expect.cache_key());
        return false;
      }
      // The exact payload bytes (the last member, spliced verbatim) feed
      // the chunk digest — the same fold the server performs.
      const std::size_t marker = line.find(",\"report\":");
      if (marker == std::string::npos || line.back() != '}') {
        ex.fail("daemon " + stats.addr + ": sweep_point without report");
        return false;
      }
      digest = fold_sweep_digest(
          digest, line.substr(marker + 10, line.size() - marker - 11));
      const JsonValue* metrics = report->find("metrics");
      if (metrics == nullptr) {
        ex.fail("daemon " + stats.addr + ": report without metrics");
        return false;
      }
      auto num = [&](const char* name) -> double {
        const JsonValue* v = metrics->find(name);
        return v != nullptr && v->is_number() ? v->as_number() : 0.0;
      };
      PointRec rec;
      rec.key = key->as_string();
      rec.cached = cache->is_string() && cache->as_string() == "hit";
      rec.delay_ns = num("delay_ns");
      rec.fmax_mhz = num("fmax_mhz");
      rec.toggles_per_op = num("toggles_per_op");
      rec.energy_nj = num("energy_nj");
      rec.cycles = (std::uint64_t)num("cycles");
      rec.luts = (std::uint64_t)num("luts");
      rec.dsps = (std::uint64_t)num("dsps");
      {
        std::lock_guard<std::mutex> lock(ex.mu);
        ex.results[chunk.base + i] = rec;
        ex.coverage.record(point_axes(expect), rec.cached,
                           /*failed=*/false);
        ex.live_frontier.insert(
            {rec.key,
             {rec.delay_ns, (double)rec.luts, (double)rec.dsps,
              rec.energy_nj}});
        stats.points += 1;
        (rec.cached ? stats.cached : stats.fresh) += 1;
        ex.maybe_progress_locked(false);
        ex.maybe_snapshot_locked(false);
      }
      got += 1;
      continue;
    }
    if (t == "sweep_done") {
      chunk.recv_us = ex.us_now();
      const JsonValue* d = doc.find("digest");
      const JsonValue* misses = doc.find("cache_misses");
      if (got != chunk.points.size() || d == nullptr ||
          d->as_string() != hex16(digest)) {
        ex.fail("daemon " + stats.addr + ": chunk " +
                std::to_string(chunk.ordinal) +
                " digest mismatch (stream corrupted?)");
        return false;
      }
      // Fresh-point latency for the ETA: attribute the chunk's elapsed
      // time evenly across its cache misses (Timing-class only).
      const double el = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_chunk)
                            .count();
      const std::uint64_t m =
          misses != nullptr && misses->is_int()
              ? (std::uint64_t)misses->as_int()
              : 0;
      {
        std::lock_guard<std::mutex> lock(ex.mu);
        stats.chunks += 1;
        for (std::uint64_t k = 0; k < m; ++k)
          ex.coverage.observe_latency(el / (double)m);
      }
      return true;
    }
    ex.fail("daemon " + stats.addr + ": unexpected reply type " + t);
    return false;
  }
}

void worker(Explorer& ex, std::size_t daemon_idx) {
  DaemonStats& stats = ex.daemons[daemon_idx];
  std::string err;
  const int fd = connect_tcp(stats.addr, &err);
  if (fd < 0) {
    ex.fail(err);
    return;
  }
  stats.conn_t0_us = ex.us_now();
  {
    LineChannel ch(fd, fd);
    // One stats round up front (the channel is idle here): every daemon
    // gets at least one clock-offset sample and one health snapshot even
    // with --stats-poll off.
    if (!stats_round(ex, ch, stats, daemon_idx, 0)) {
      ex.fail("daemon " + stats.addr + ": stats handshake failed");
    } else {
      for (;;) {
        if (ex.failed.load(std::memory_order_relaxed)) break;
        const std::size_t c =
            ex.next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= ex.chunks.size()) break;
        if (!run_chunk(ex, ex.chunks[c], ch, stats, daemon_idx)) break;
      }
    }
  }
  stats.conn_t1_us = ex.us_now();
  close(fd);
}

// ------------------------------------------------------- the final report

void put_stat(JsonWriter& w, const dse::SensitivityStat& s) {
  w.begin_object();
  w.key("pairs");
  w.value(s.pairs);
  w.key("delay_ns");
  w.value(s.delay_ns);
  w.key("luts");
  w.value(s.luts);
  w.key("dsps");
  w.value(s.dsps);
  w.key("energy_nj");
  w.value(s.energy_nj);
  w.end_object();
}

/// The midpoint clock-offset estimates, summarized: sample count, mean,
/// min, max (microseconds; explorer_us ~= daemon_us + offset).
void put_offset_summary(JsonWriter& w, const std::vector<double>& offsets) {
  double mean = 0.0, lo = 0.0, hi = 0.0;
  if (!offsets.empty()) {
    lo = hi = offsets[0];
    for (double o : offsets) {
      mean += o;
      if (o < lo) lo = o;
      if (o > hi) hi = o;
    }
    mean /= (double)offsets.size();
  }
  w.key("clock_offset_us");
  w.begin_object();
  w.key("samples");
  w.value((std::uint64_t)offsets.size());
  w.key("mean");
  w.value(mean);
  w.key("min");
  w.value(lo);
  w.key("max");
  w.value(hi);
  w.end_object();
}

template <typename T>
void put_axis(JsonWriter& w, const char* name, const std::vector<T>& vals) {
  w.key(name);
  w.begin_array();
  for (const T& v : vals) w.value(v);
  w.end_array();
}

std::string render_report(const Explorer& ex) {
  // Deterministic projection first; the Timing-class "timing" member LAST
  // so tooling can compare projections by truncating at its marker
  // (check_report.py --compare-frontier).
  const Options& o = ex.opt;
  JsonWriter w;
  w.begin_object();
  w.key("format");
  w.value("csfma-frontier-v1");
  w.key("tool");
  w.value("csfma_explore");

  w.key("space");
  w.begin_object();
  {
    w.key("unit");
    w.begin_array();
    for (UnitKind u : o.units) w.value(to_string(u));
    w.end_array();
    w.key("rounding");
    w.begin_array();
    for (Round r : o.rms) w.value(to_string(r));
    w.end_array();
    put_axis(w, "seed", o.seeds);
    put_axis(w, "block", o.blocks);
    put_axis(w, "group", o.groups);
    put_axis(w, "rwidth", o.rwidths);
    w.key("select");
    w.begin_array();
    for (dse::BlockSelect s : o.selects) w.value(dse::to_string(s));
    w.end_array();
    put_axis(w, "depth", o.depths);
    put_axis(w, "ops", o.ops);
    w.key("points");
    w.value((std::uint64_t)ex.total_points);
  }
  w.end_object();

  // Every point in canonical index order, with its resolved knobs and the
  // full metric vector.  This is the replayable record: frontier,
  // sensitivity, and digest below all derive from it.
  w.key("points");
  w.begin_array();
  std::uint64_t digest = kSweepDigestSeed;
  std::vector<dse::SensPoint> sens_points;
  dse::ParetoFrontier frontier;  // replayed in index order
  std::size_t index = 0;
  for (const Chunk& c : ex.chunks) {
    for (std::size_t i = 0; i < c.points.size(); ++i, ++index) {
      const SubmitRequest& p = c.points[i];
      const PointRec& r = ex.results[c.base + i];
      const dse::DseConfig cfg = p.model_config();
      w.begin_object();
      w.key("index");
      w.value((std::uint64_t)index);
      w.key("key");
      w.value(r.key);
      w.key("unit");
      w.value(to_string(p.unit));
      w.key("rounding");
      w.value(to_string(p.rm));
      w.key("seed");
      w.value(p.seed);
      w.key("block");
      w.value(cfg.block);
      w.key("group");
      w.value(cfg.group);
      w.key("rwidth");
      w.value(cfg.resolved_round_width());
      w.key("select");
      w.value(dse::to_string(cfg.select));
      w.key("depth");
      w.value(cfg.depth);
      w.key("ops");
      w.value(cfg.ops);
      w.key("delay_ns");
      w.value(r.delay_ns);
      w.key("cycles");
      w.value(r.cycles);
      w.key("fmax_mhz");
      w.value(r.fmax_mhz);
      w.key("luts");
      w.value(r.luts);
      w.key("dsps");
      w.value(r.dsps);
      w.key("toggles_per_op");
      w.value(r.toggles_per_op);
      w.key("energy_nj");
      w.value(r.energy_nj);
      w.end_object();
      digest = fnv1a64(r.key, digest);
      const dse::Objectives obj = {r.delay_ns, (double)r.luts,
                                   (double)r.dsps, r.energy_nj};
      frontier.insert({r.key, obj});
      dse::SensPoint sp;
      for (const auto& [axis, value] : point_axes(p)) sp.axes[axis] = value;
      sp.obj = obj;
      sens_points.push_back(std::move(sp));
    }
  }
  w.end_array();

  w.key("frontier");
  w.begin_array();
  for (const dse::FrontierPoint& p : frontier.sorted()) {
    w.begin_object();
    w.key("key");
    w.value(p.key);
    w.key("delay_ns");
    w.value(p.obj.delay_ns);
    w.key("luts");
    w.value(p.obj.luts);
    w.key("dsps");
    w.value(p.obj.dsps);
    w.key("energy_nj");
    w.value(p.obj.energy_nj);
    w.end_object();
  }
  w.end_array();

  w.key("evictions");
  w.begin_array();
  for (const dse::Eviction& e : frontier.evictions()) {
    w.begin_object();
    w.key("evicted");
    w.value(e.evicted);
    w.key("by");
    w.value(e.by);
    w.key("reason");
    w.value(e.reason);
    w.end_object();
  }
  w.end_array();
  w.key("rejected");
  w.value(frontier.rejected());

  w.key("sensitivity");
  w.begin_object();
  for (const auto& [axis, stat] : axis_sensitivity(sens_points)) {
    w.key(axis);
    put_stat(w, stat);
  }
  w.end_object();

  // Coverage: deterministic counts only.  The cached split depends on
  // daemon cache temperature and chunk placement, so it lives in timing.
  w.key("coverage");
  w.begin_object();
  w.key("points");
  w.value(ex.coverage.total());
  w.key("done");
  w.value(ex.coverage.done());
  w.key("failed");
  w.value(ex.coverage.failed());
  w.key("axes");
  w.begin_object();
  for (const auto& [axis, values] : ex.coverage.axes()) {
    w.key(axis);
    w.begin_object();
    for (const auto& [value, counts] : values) {
      w.key(value);
      w.begin_object();
      w.key("expected");
      w.value(counts.expected);
      w.key("done");
      w.value(counts.done);
      w.key("failed");
      w.value(counts.failed);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();

  w.key("digest");
  w.value(hex16(digest));

  // Timing-class telemetry; everything above this member is the
  // deterministic projection.
  const double el = ex.elapsed_s();
  w.key("timing");
  w.begin_object();
  w.key("elapsed_s");
  w.value(el);
  w.key("points_per_s");
  w.value(el > 0.0 ? (double)ex.coverage.done() / el : 0.0);
  w.key("cached");
  w.value(ex.coverage.cached());
  w.key("fresh");
  w.value(ex.coverage.done() - ex.coverage.cached() -
          ex.coverage.failed());
  w.key("daemons");
  w.begin_array();
  for (const DaemonStats& d : ex.daemons) {
    w.begin_object();
    w.key("addr");
    w.value(d.addr);
    w.key("chunks");
    w.value(d.chunks);
    w.key("points");
    w.value(d.points);
    w.key("cached");
    w.value(d.cached);
    w.key("fresh");
    w.value(d.fresh);
    // Fleet health: the daemon's last stats snapshot (queue depth, cache
    // hit rate, worst p99 request latency) plus how it was sampled.
    w.key("health");
    w.begin_object();
    w.key("stats_samples");
    w.value(d.stats_samples);
    w.key("queue_depth");
    w.value(d.queue_depth);
    w.key("cache_hit_rate");
    w.value(d.cache_hit_rate);
    w.key("p99_ms");
    w.value(d.p99_ms);
    put_offset_summary(w, d.offsets_us);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return w.str();
}

/// csfma-fleettrace-v1 (docs/FORMATS.md §10): the exploration's own span
/// tree plus per-daemon clock-offset estimates — everything
/// trace_merge.py needs to align each daemon's --trace-out file onto the
/// explorer timeline.  Timing-class throughout; only the merge summary
/// downstream is deterministic.
std::string render_fleettrace(const Explorer& ex) {
  JsonWriter w;
  w.begin_object();
  w.key("format");
  w.value("csfma-fleettrace-v1");
  w.key("tool");
  w.value("csfma_explore");
  w.key("trace_id");
  w.value(ex.trace_id);
  w.key("clock");
  w.value("us-since-exploration-start");
  w.key("spans");
  w.begin_array();
  {
    // The root span covering the whole exploration.
    w.begin_object();
    w.key("id");
    w.value("explore");
    w.key("parent");
    w.value("");
    w.key("kind");
    w.value("explore");
    w.key("t0_us");
    w.value((std::uint64_t)0);
    w.key("t1_us");
    w.value(ex.us_now());
    w.end_object();
  }
  for (std::size_t d = 0; d < ex.daemons.size(); ++d) {
    const DaemonStats& ds = ex.daemons[d];
    w.begin_object();
    w.key("id");
    w.value("conn-" + std::to_string(d));
    w.key("parent");
    w.value("explore");
    w.key("kind");
    w.value("conn");
    w.key("daemon");
    w.value((std::uint64_t)d);
    w.key("addr");
    w.value(ds.addr);
    w.key("t0_us");
    w.value(ds.conn_t0_us);
    w.key("t1_us");
    w.value(ds.conn_t1_us);
    w.end_object();
  }
  for (const Chunk& c : ex.chunks) {
    if (c.daemon < 0) continue;  // never ran (an earlier chunk failed)
    w.begin_object();
    w.key("id");
    w.value("chunk-" + std::to_string(c.ordinal));
    w.key("parent");
    w.value("conn-" + std::to_string(c.daemon));
    w.key("kind");
    w.value("chunk");
    w.key("daemon");
    w.value((std::uint64_t)c.daemon);
    w.key("base");
    w.value((std::uint64_t)c.base);
    w.key("points");
    w.value((std::uint64_t)c.points.size());
    w.key("t0_us");
    w.value(c.send_us);  // request write...
    w.key("t1_us");
    w.value(c.recv_us);  // ...to sweep_done read
    w.end_object();
  }
  w.end_array();
  w.key("daemons");
  w.begin_array();
  for (std::size_t d = 0; d < ex.daemons.size(); ++d) {
    const DaemonStats& ds = ex.daemons[d];
    w.begin_object();
    w.key("index");
    w.value((std::uint64_t)d);
    w.key("addr");
    w.value(ds.addr);
    w.key("chunks");
    w.value(ds.chunks);
    w.key("points");
    w.value(ds.points);
    put_offset_summary(w, ds.offsets_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool write_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(content.c_str(), f) >= 0 &&
                  std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || !ok) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_options(argc, argv);
  const std::string trace_id = exploration_trace_id(opt);
  std::vector<Chunk> chunks = build_chunks(opt, trace_id);
  std::size_t total = 0;
  for (const Chunk& c : chunks) total += c.points.size();

  Explorer ex(opt, chunks, total);
  ex.trace_id = trace_id;
  std::fprintf(stderr,
               "csfma_explore: %zu points in %zu chunks across %zu "
               "daemon(s), trace %s\n",
               total, chunks.size(), opt.daemons.size(), trace_id.c_str());

  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < opt.daemons.size(); ++d)
    threads.emplace_back([&ex, d] { worker(ex, d); });
  std::vector<std::thread> pollers;
  if (opt.stats_poll_s > 0.0)
    for (std::size_t d = 0; d < opt.daemons.size(); ++d)
      pollers.emplace_back([&ex, d] { health_poller(ex, d); });
  for (std::thread& t : threads) t.join();
  ex.done.store(true, std::memory_order_relaxed);
  for (std::thread& t : pollers) t.join();

  if (!opt.fleettrace.empty() &&
      !write_atomic(opt.fleettrace, render_fleettrace(ex))) {
    std::fprintf(stderr, "csfma_explore: cannot write --fleettrace %s\n",
                 opt.fleettrace.c_str());
    return 2;
  }
  if (ex.failed.load()) {
    std::fprintf(stderr, "csfma_explore: %s\n", ex.error.c_str());
    return 2;
  }
  {
    std::lock_guard<std::mutex> lock(ex.mu);
    ex.maybe_progress_locked(true);
    ex.maybe_snapshot_locked(true);
  }
  const std::string report = render_report(ex);
  if (!write_atomic(opt.out, report)) {
    std::fprintf(stderr, "csfma_explore: cannot write %s\n",
                 opt.out.c_str());
    return 2;
  }

  JsonWriter done;
  done.begin_object();
  done.key("type");
  done.value("explore_done");
  done.key("points");
  done.value((std::uint64_t)total);
  done.key("cached");
  done.value(ex.coverage.cached());
  done.key("fresh");
  done.value(ex.coverage.done() - ex.coverage.cached());
  done.key("frontier");
  done.value((std::uint64_t)ex.live_frontier.size());
  done.key("out");
  done.value(opt.out);
  done.key("elapsed_s");
  done.value(ex.elapsed_s());
  done.end_object();
  std::printf("%s\n", done.str().c_str());
  return 0;
}
