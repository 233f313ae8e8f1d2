#include "service/protocol.hpp"

#include <cstdio>

#include "service/json_value.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace csfma {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h) {
  for (char c : bytes) {
    h ^= (std::uint64_t)(unsigned char)c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return std::string(buf);
}

const char* to_string(SimMode m) {
  switch (m) {
    case SimMode::Batch: return "batch";
    case SimMode::Stream: return "stream";
    case SimMode::Chained: return "chained";
    case SimMode::Model: return "model";
  }
  return "?";
}

bool parse_sim_mode(std::string_view s, SimMode* out) {
  if (s == "batch") *out = SimMode::Batch;
  else if (s == "stream") *out = SimMode::Stream;
  else if (s == "chained") *out = SimMode::Chained;
  else if (s == "model") *out = SimMode::Model;
  else return false;
  return true;
}

bool parse_round(std::string_view s, Round* out) {
  for (Round r : {Round::NearestEven, Round::HalfAwayFromZero,
                  Round::TowardZero, Round::TowardPositive,
                  Round::TowardNegative}) {
    if (s == to_string(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

const char* to_string(ServiceError code) {
  switch (code) {
    case ServiceError::ParseError: return "parse_error";
    case ServiceError::BadRequest: return "bad_request";
    case ServiceError::UnknownType: return "unknown_type";
    case ServiceError::UnknownJob: return "unknown_job";
    case ServiceError::ShuttingDown: return "shutting_down";
    case ServiceError::Busy: return "busy";
    case ServiceError::UnsupportedVersion: return "unsupported_version";
    case ServiceError::Internal: return "internal";
  }
  return "?";
}

std::uint64_t SubmitRequest::total_ops() const {
  if (mode == SimMode::Chained)
    return chains * 2ull * (std::uint64_t)(depth - 2);
  return ops;
}

dse::DseConfig SubmitRequest::model_config() const {
  dse::DseConfig cfg;
  cfg.unit = unit;
  cfg.rm = rm;
  cfg.seed = seed;
  cfg.block = block;
  cfg.group = group;
  cfg.round_width = rwidth;
  cfg.select = select;
  cfg.depth = depth;
  cfg.ops = ops;
  return cfg;
}

std::string SubmitRequest::canonical_key() const {
  // Fixed field order, defaults applied by construction, mode-specific
  // fields only — two requests meaning the same simulation render the same
  // string whatever their JSON spelling.  `threads` is intentionally
  // absent (results are thread-count invariant).
  std::string k;
  k += "mode=";
  k += to_string(mode);
  k += "&unit=";
  k += to_string(unit);
  k += "&rm=";
  k += to_string(rm);
  k += "&seed=" + std::to_string(seed);
  if (mode == SimMode::Model) {
    // The design knobs, with rwidth resolved (0 means one block) so the
    // default spelling and the explicit width share one key.  shard_ops
    // is excluded like threads: the evaluator never shards.
    k += "&block=" + std::to_string(block);
    k += "&group=" + std::to_string(group);
    k += "&rwidth=" + std::to_string(rwidth > 0 ? rwidth : block);
    k += "&select=";
    k += dse::to_string(select);
    k += "&depth=" + std::to_string(depth);
    k += "&ops=" + std::to_string(ops);
    return k;
  }
  if (mode == SimMode::Chained) {
    k += "&chains=" + std::to_string(chains);
    k += "&depth=" + std::to_string(depth);
  } else {
    k += "&ops=" + std::to_string(ops);
    k += "&emin=" + std::to_string(emin);
    k += "&emax=" + std::to_string(emax);
  }
  k += "&shard_ops=" + std::to_string(shard_ops);
  return k;
}

std::string SubmitRequest::cache_key() const {
  return hex16(fnv1a64(canonical_key()));
}

std::size_t SweepRequest::point_count() const {
  std::size_t inner;
  if (mode == SimMode::Chained) {
    inner = chains.size() * depths.size();
  } else if (mode == SimMode::Model) {
    inner = blocks.size() * groups.size() * rwidths.size() * selects.size() *
            depths.size() * ops.size();
  } else {
    inner = ops.size();
  }
  return units.size() * rms.size() * seeds.size() * inner;
}

namespace {

/// Field extraction helpers: each returns false and fills `msg` with a
/// message naming the offending field, so every malformed request gets a
/// actionable bad_request reply.
bool want_string(const JsonValue& obj, const std::string& key, bool required,
                 std::string* out, std::string* msg) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) {
      *msg = "missing required field \"" + key + "\"";
      return false;
    }
    return true;
  }
  if (!v->is_string()) {
    *msg = "field \"" + key + "\" must be a string";
    return false;
  }
  *out = v->as_string();
  return true;
}

bool want_u64(const JsonValue& obj, const std::string& key, bool required,
              std::uint64_t lo, std::uint64_t hi, std::uint64_t* out,
              std::string* msg) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) {
      *msg = "missing required field \"" + key + "\"";
      return false;
    }
    return true;
  }
  if (!v->is_int() || v->as_int() < 0) {
    *msg = "field \"" + key + "\" must be a non-negative integer";
    return false;
  }
  const std::uint64_t n = (std::uint64_t)v->as_int();
  if (n < lo || n > hi) {
    *msg = "field \"" + key + "\" must be in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
    return false;
  }
  *out = n;
  return true;
}

bool want_int(const JsonValue& obj, const std::string& key, std::int64_t lo,
              std::int64_t hi, int* out, std::string* msg) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_int()) {
    *msg = "field \"" + key + "\" must be an integer";
    return false;
  }
  const std::int64_t n = v->as_int();
  if (n < lo || n > hi) {
    *msg = "field \"" + key + "\" must be in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
    return false;
  }
  *out = (int)n;
  return true;
}

/// Scalar-or-array sweep axis: `"seed":3` and `"seed":[3,4]` both parse.
/// Fills `out` with the element values (one for a scalar); a present but
/// empty array is an error, as is a missing required axis.
bool axis_elements(const JsonValue& obj, const std::string& key,
                   bool required, std::vector<const JsonValue*>* out,
                   std::string* msg) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) {
      *msg = "missing required field \"" + key + "\"";
      return false;
    }
    return true;
  }
  if (v->is_array()) {
    const auto& arr = v->as_array();
    if (arr.empty()) {
      *msg = "field \"" + key + "\" must not be an empty array";
      return false;
    }
    for (const JsonValue& e : arr) out->push_back(&e);
  } else {
    out->push_back(v);
  }
  return true;
}

bool want_u64_axis(const JsonValue& obj, const std::string& key,
                   bool required, std::uint64_t lo, std::uint64_t hi,
                   std::vector<std::uint64_t>* out, std::string* msg) {
  std::vector<const JsonValue*> vals;
  if (!axis_elements(obj, key, required, &vals, msg)) return false;
  if (vals.empty()) return true;  // optional axis absent: keep the default
  out->clear();
  for (const JsonValue* v : vals) {
    if (!v->is_int() || v->as_int() < 0) {
      *msg = "field \"" + key + "\" values must be non-negative integers";
      return false;
    }
    const std::uint64_t n = (std::uint64_t)v->as_int();
    if (n < lo || n > hi) {
      *msg = "field \"" + key + "\" values must be in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
      return false;
    }
    out->push_back(n);
  }
  return true;
}

bool want_int_axis(const JsonValue& obj, const std::string& key,
                   std::int64_t lo, std::int64_t hi, std::vector<int>* out,
                   std::string* msg) {
  std::vector<const JsonValue*> vals;
  if (!axis_elements(obj, key, false, &vals, msg)) return false;
  if (vals.empty()) return true;
  out->clear();
  for (const JsonValue* v : vals) {
    if (!v->is_int() || v->as_int() < lo || v->as_int() > hi) {
      *msg = "field \"" + key + "\" values must be integers in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
      return false;
    }
    out->push_back((int)v->as_int());
  }
  return true;
}

/// The DSE knob fields are only meaningful in model mode; rejecting them
/// elsewhere keeps "same simulation, same key" honest (an ignored field
/// would silently alias distinct-looking requests).
bool reject_model_fields(const JsonValue& obj, std::string* msg) {
  for (const char* key : {"block", "group", "rwidth", "select"}) {
    if (obj.find(key) != nullptr) {
      *msg = "field \"" + std::string(key) +
             "\" is only valid with mode \"model\"";
      return false;
    }
  }
  return true;
}

bool parse_sweep(const JsonValue& obj, SweepRequest* req, std::string* msg) {
  std::string mode_s;
  if (!want_string(obj, "mode", false, &mode_s, msg)) return false;
  if (!mode_s.empty() && !parse_sim_mode(mode_s, &req->mode)) {
    *msg = "field \"mode\" must be one of batch|stream|chained|model";
    return false;
  }
  std::vector<const JsonValue*> unit_vals, rm_vals;
  if (!axis_elements(obj, "unit", true, &unit_vals, msg)) return false;
  for (const JsonValue* v : unit_vals) {
    UnitKind k;
    if (!v->is_string() || !parse_unit_kind(v->as_string(), &k)) {
      *msg = "field \"unit\" values must be one of discrete|classic|pcs|fcs";
      return false;
    }
    req->units.push_back(k);
  }
  if (!axis_elements(obj, "rounding", false, &rm_vals, msg)) return false;
  if (!rm_vals.empty()) {
    req->rms.clear();
    for (const JsonValue* v : rm_vals) {
      Round r;
      if (!v->is_string() || !parse_round(v->as_string(), &r)) {
        *msg = "field \"rounding\" values must be known rounding modes";
        return false;
      }
      req->rms.push_back(r);
    }
  }
  if (!want_u64_axis(obj, "seed", true, 0, ~0ull, &req->seeds, msg))
    return false;
  if (req->mode == SimMode::Chained) {
    if (!reject_model_fields(obj, msg)) return false;
    if (!want_u64_axis(obj, "chains", true, 1, 1u << 20, &req->chains, msg))
      return false;
    if (!want_int_axis(obj, "depth", 3, 64, &req->depths, msg)) return false;
    if (obj.find("ops") != nullptr) {
      *msg = "chained sweeps take \"chains\"/\"depth\", not \"ops\"";
      return false;
    }
  } else if (req->mode == SimMode::Model) {
    req->depths = {8};
    if (!want_int_axis(obj, "block", 8, 62, &req->blocks, msg)) return false;
    if (!want_int_axis(obj, "group", 2, 63, &req->groups, msg)) return false;
    if (!want_int_axis(obj, "rwidth", 0, 256, &req->rwidths, msg))
      return false;
    std::vector<const JsonValue*> sel_vals;
    if (!axis_elements(obj, "select", false, &sel_vals, msg)) return false;
    if (!sel_vals.empty()) {
      req->selects.clear();
      for (const JsonValue* v : sel_vals) {
        dse::BlockSelect s;
        if (!v->is_string() || !dse::parse_block_select(v->as_string(), s)) {
          *msg = "field \"select\" values must be one of lza|zd";
          return false;
        }
        req->selects.push_back(s);
      }
    }
    if (!want_int_axis(obj, "depth", 1, 64, &req->depths, msg)) return false;
    if (!want_u64_axis(obj, "ops", false, 1, 65536, &req->ops, msg))
      return false;
    if (req->ops.empty()) req->ops = {32};
    if (obj.find("chains") != nullptr) {
      *msg = "\"chains\" is only valid with mode \"chained\"";
      return false;
    }
    // Every expanded (unit, block, group) must be a valid design; the
    // only cross-axis constraint is the pcs divisibility rule.
    for (UnitKind u : req->units) {
      if (u != UnitKind::Pcs) continue;
      for (int b : req->blocks) {
        for (int g : req->groups) {
          if (b % g != 0) {
            *msg = "field \"group\" value " + std::to_string(g) +
                   " must divide \"block\" value " + std::to_string(b) +
                   " for unit pcs";
            return false;
          }
        }
      }
    }
  } else {
    if (!reject_model_fields(obj, msg)) return false;
    if (!want_u64_axis(obj, "ops", true, 1, 1ull << 32, &req->ops, msg))
      return false;
    if (!want_int(obj, "emin", -1000, 1000, &req->emin, msg)) return false;
    if (!want_int(obj, "emax", -1000, 1000, &req->emax, msg)) return false;
    if (req->emin > req->emax) {
      *msg = "field \"emin\" must not exceed \"emax\"";
      return false;
    }
    if (obj.find("chains") != nullptr || obj.find("depth") != nullptr) {
      *msg = "\"chains\"/\"depth\" are only valid with mode \"chained\"";
      return false;
    }
  }
  if (!want_u64(obj, "shard_ops", false, 1, 1u << 20, &req->shard_ops, msg))
    return false;
  if (!want_int(obj, "threads", 0, 64, &req->threads, msg)) return false;
  const std::size_t points = req->point_count();
  if (points > kMaxSweepPoints) {
    *msg = "sweep expands to " + std::to_string(points) +
           " points, more than the limit of " +
           std::to_string(kMaxSweepPoints);
    return false;
  }
  return true;
}

bool parse_submit(const JsonValue& obj, SubmitRequest* req,
                  std::string* msg) {
  std::string mode_s, unit_s, rm_s;
  if (!want_string(obj, "mode", false, &mode_s, msg)) return false;
  if (!mode_s.empty() && !parse_sim_mode(mode_s, &req->mode)) {
    *msg = "field \"mode\" must be one of batch|stream|chained|model";
    return false;
  }
  if (!want_string(obj, "unit", true, &unit_s, msg)) return false;
  if (!parse_unit_kind(unit_s, &req->unit)) {
    *msg = "field \"unit\" must be one of discrete|classic|pcs|fcs";
    return false;
  }
  if (!want_string(obj, "rounding", false, &rm_s, msg)) return false;
  if (!rm_s.empty() && !parse_round(rm_s, &req->rm)) {
    *msg = "field \"rounding\" is not a known rounding mode";
    return false;
  }
  if (!want_u64(obj, "seed", true, 0, ~0ull, &req->seed, msg)) return false;
  if (req->mode == SimMode::Chained) {
    if (!reject_model_fields(obj, msg)) return false;
    if (!want_u64(obj, "chains", true, 1, 1u << 20, &req->chains, msg))
      return false;
    if (!want_int(obj, "depth", 3, 64, &req->depth, msg)) return false;
    if (obj.find("ops") != nullptr) {
      *msg = "chained jobs take \"chains\"/\"depth\", not \"ops\"";
      return false;
    }
  } else if (req->mode == SimMode::Model) {
    req->depth = 8;
    req->ops = 32;
    if (!want_int(obj, "block", 8, 62, &req->block, msg)) return false;
    if (!want_int(obj, "group", 2, 63, &req->group, msg)) return false;
    if (!want_int(obj, "rwidth", 0, 256, &req->rwidth, msg)) return false;
    std::string sel_s;
    if (!want_string(obj, "select", false, &sel_s, msg)) return false;
    if (!sel_s.empty() && !dse::parse_block_select(sel_s, req->select)) {
      *msg = "field \"select\" must be one of lza|zd";
      return false;
    }
    if (!want_int(obj, "depth", 1, 64, &req->depth, msg)) return false;
    if (!want_u64(obj, "ops", false, 1, 65536, &req->ops, msg)) return false;
    if (obj.find("chains") != nullptr) {
      *msg = "\"chains\" is only valid with mode \"chained\"";
      return false;
    }
    // Cross-field design validation (e.g. group | block for pcs).
    if (std::string err = req->model_config().validate(); !err.empty()) {
      *msg = err;
      return false;
    }
  } else {
    if (!reject_model_fields(obj, msg)) return false;
    if (!want_u64(obj, "ops", true, 1, 1ull << 32, &req->ops, msg))
      return false;
    if (!want_int(obj, "emin", -1000, 1000, &req->emin, msg)) return false;
    if (!want_int(obj, "emax", -1000, 1000, &req->emax, msg)) return false;
    if (req->emin > req->emax) {
      *msg = "field \"emin\" must not exceed \"emax\"";
      return false;
    }
    if (obj.find("chains") != nullptr || obj.find("depth") != nullptr) {
      *msg = "\"chains\"/\"depth\" are only valid with mode \"chained\"";
      return false;
    }
  }
  if (!want_u64(obj, "shard_ops", false, 1, 1u << 20, &req->shard_ops, msg))
    return false;
  if (!want_int(obj, "threads", 0, 64, &req->threads, msg)) return false;
  return true;
}

}  // namespace

ParseOutcome parse_request_line(const std::string& line) {
  ParseOutcome out;
  JsonValue doc;
  JsonParseError perr;
  if (!json_parse(line, &doc, &perr)) {
    out.code = ServiceError::ParseError;
    out.message = "byte " + std::to_string(perr.pos) + ": " + perr.message;
    return out;
  }
  if (!doc.is_object()) {
    out.code = ServiceError::ParseError;
    out.message = "request must be a JSON object";
    return out;
  }
  // Echo the correlation id even in error replies, when it parses.
  if (const JsonValue* id = doc.find("id"); id != nullptr && id->is_string())
    out.id = id->as_string();
  // Same best-effort echo for the trace context, so even version-gated
  // errors correlate; the typed (bad_request) validation runs after the
  // gate.
  if (const JsonValue* tid = doc.find("trace_id");
      tid != nullptr && tid->is_string())
    out.trace_id = tid->as_string();
  if (const JsonValue* ps = doc.find("parent_span");
      ps != nullptr && ps->is_string())
    out.parent_span = ps->as_string();

  // Version gate before anything else: a request speaking a different
  // protocol version must not be half-interpreted under this one's rules.
  // Absent "proto" means version 1 (pre-versioning wire compatibility).
  if (const JsonValue* proto = doc.find("proto"); proto != nullptr) {
    if (!proto->is_int() || proto->as_int() != kProtoVersion) {
      out.code = ServiceError::UnsupportedVersion;
      out.message = "this daemon speaks proto " +
                    std::to_string(kProtoVersion) + " only";
      return out;
    }
  }

  std::string type, msg;
  if (!want_string(doc, "trace_id", false, &out.trace_id, &msg)) {
    out.code = ServiceError::BadRequest;
    out.message = msg;
    return out;
  }
  if (!want_string(doc, "parent_span", false, &out.parent_span, &msg)) {
    out.code = ServiceError::BadRequest;
    out.message = msg;
    return out;
  }
  if (!want_string(doc, "type", true, &type, &msg)) {
    out.code = ServiceError::BadRequest;
    out.message = msg;
    return out;
  }

  out.request.id = out.id;
  out.request.trace_id = out.trace_id;
  out.request.parent_span = out.parent_span;
  if (type == "submit") {
    SubmitRequest req;
    if (!parse_submit(doc, &req, &msg)) {
      out.code = ServiceError::BadRequest;
      out.message = msg;
      return out;
    }
    out.request.op = req;
  } else if (type == "sweep") {
    SweepRequest req;
    if (!parse_sweep(doc, &req, &msg)) {
      out.code = ServiceError::BadRequest;
      out.message = msg;
      return out;
    }
    out.request.op = req;
  } else if (type == "status") {
    StatusRequest req;
    if (!want_string(doc, "job", false, &req.job, &msg)) {
      out.code = ServiceError::BadRequest;
      out.message = msg;
      return out;
    }
    out.request.op = req;
  } else if (type == "cancel") {
    CancelRequest req;
    if (!want_string(doc, "job", true, &req.job, &msg)) {
      out.code = ServiceError::BadRequest;
      out.message = msg;
      return out;
    }
    out.request.op = req;
  } else if (type == "shutdown") {
    out.request.op = ShutdownRequest{};
  } else if (type == "stats") {
    out.request.op = StatsRequest{};
  } else {
    out.code = ServiceError::UnknownType;
    out.message = "unknown request type \"" + type + "\"";
    return out;
  }
  out.ok = true;
  return out;
}

namespace {

void put_id(JsonWriter& w, const std::string& id) {
  if (id.empty()) return;
  w.key("id");
  w.value(id);
}

}  // namespace

void begin_reply(JsonWriter& w, const char* type, const std::string& id,
                 const std::string& trace_id, const std::string& parent_span) {
  w.begin_object();
  w.key("type");
  w.value(type);
  w.key("proto");
  w.value(kProtoVersion);
  put_id(w, id);
  if (!trace_id.empty()) {
    w.key("trace_id");
    w.value(trace_id);
  }
  if (!parent_span.empty()) {
    w.key("parent_span");
    w.value(parent_span);
  }
}

std::string error_reply(const std::string& id, ServiceError code,
                        const std::string& message,
                        const std::string& trace_id,
                        const std::string& parent_span) {
  JsonWriter w;
  begin_reply(w, "error", id, trace_id, parent_span);
  w.key("code");
  w.value(to_string(code));
  w.key("message");
  w.value(message);
  w.end_object();
  return w.str();
}

std::string accepted_reply(const std::string& id, const std::string& job,
                           const std::string& cache_key,
                           const std::string& trace_id,
                           const std::string& parent_span) {
  JsonWriter w;
  begin_reply(w, "accepted", id, trace_id, parent_span);
  w.key("job");
  w.value(job);
  w.key("cache_key");
  w.value(cache_key);
  w.end_object();
  return w.str();
}

std::string progress_event_line(const ProgressEvent& ev) {
  const EngineProgress& p = ev.progress;
  JsonWriter w;
  begin_reply(w, "progress", "", ev.trace_id, ev.parent_span);
  w.key("job");
  w.value(ev.job);
  w.key("ops_done");
  w.value(p.ops_done);
  w.key("ops_total");
  w.value(p.ops_total);
  w.key("shards_done");
  w.value(p.shards_done);
  w.key("shards_total");
  w.value(p.shards_total);
  w.key("seconds");
  w.value(p.seconds);
  w.key("ops_per_sec");
  w.value(p.ops_per_sec);
  w.key("eta_seconds");
  w.value(p.eta_seconds);
  w.end_object();
  return w.str();
}

std::string result_reply(const std::string& id, const std::string& job,
                         bool cache_hit, double elapsed_s,
                         const std::string& report_json,
                         const std::string& trace_id,
                         const std::string& parent_span) {
  JsonWriter w;
  begin_reply(w, "result", id, trace_id, parent_span);
  w.key("job");
  w.value(job);
  w.key("cache");
  w.value(cache_hit ? "hit" : "miss");
  w.key("elapsed_s");
  w.value(elapsed_s);
  w.key("report");
  w.raw(report_json);
  w.end_object();
  return w.str();
}

std::string cancel_ok_reply(const std::string& id, const std::string& job,
                            const std::string& state,
                            const std::string& trace_id,
                            const std::string& parent_span) {
  JsonWriter w;
  begin_reply(w, "cancel_ok", id, trace_id, parent_span);
  w.key("job");
  w.value(job);
  w.key("state");
  w.value(state);
  w.end_object();
  return w.str();
}

std::string cancelled_reply(const std::string& id, const std::string& job,
                            std::uint64_t ops_done,
                            const std::string& trace_id,
                            const std::string& parent_span) {
  JsonWriter w;
  begin_reply(w, "cancelled", id, trace_id, parent_span);
  w.key("job");
  w.value(job);
  w.key("ops_done");
  w.value(ops_done);
  w.end_object();
  return w.str();
}

std::string status_reply(const std::string& id,
                         const std::vector<JobStatus>& jobs,
                         const std::string& trace_id,
                         const std::string& parent_span) {
  JsonWriter w;
  begin_reply(w, "status", id, trace_id, parent_span);
  w.key("jobs");
  w.begin_array();
  for (const JobStatus& j : jobs) {
    w.begin_object();
    w.key("job");
    w.value(j.job);
    w.key("state");
    w.value(j.state);
    w.key("ops_done");
    w.value(j.ops_done);
    w.key("ops_total");
    w.value(j.ops_total);
    w.key("cache_key");
    w.value(j.cache_key);
    if (j.points_total > 0) {
      w.key("points_done");
      w.value(j.points_done);
      w.key("points_total");
      w.value(j.points_total);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string bye_reply(const std::string& id, std::uint64_t completed,
                      std::uint64_t cancelled, std::uint64_t failed,
                      const std::string& trace_id,
                      const std::string& parent_span) {
  JsonWriter w;
  begin_reply(w, "bye", id, trace_id, parent_span);
  w.key("jobs_completed");
  w.value(completed);
  w.key("jobs_cancelled");
  w.value(cancelled);
  w.key("jobs_failed");
  w.value(failed);
  w.end_object();
  return w.str();
}

std::string stats_reply(const std::string& id, double uptime_s,
                        const MetricsSnapshot& metrics,
                        const std::string& trace_id,
                        const std::string& parent_span) {
  JsonWriter w;
  begin_reply(w, "stats", id, trace_id, parent_span);
  w.key("uptime_s");
  w.value(uptime_s);
  w.key("percentiles");
  w.begin_object();
  for (const auto& [name, h] : metrics.histograms) {
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(h.count);
    w.key("p50");
    w.value(h.percentile(0.50));
    w.key("p90");
    w.value(h.percentile(0.90));
    w.key("p99");
    w.value(h.percentile(0.99));
    w.end_object();
  }
  w.end_object();
  w.key("metrics");
  w.raw(to_json(metrics));
  w.end_object();
  return w.str();
}

}  // namespace csfma
