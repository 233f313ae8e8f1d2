#!/usr/bin/env python3
"""Validate csfma-report-v1 JSON reports (stdlib only).

Usage:
  check_report.py report.json [more.json ...]
      Validate each report against the schema; exit non-zero on the
      first violation.

  check_report.py --compare-metrics a.json b.json
      Additionally assert the deterministic sections ("metrics",
      "tables" and "sections" — the latter carries event logs and
      activity snapshots) of two reports are identical.  This is the CI
      gate for the engine determinism contract: the same seed run with
      different worker thread counts must export identical deterministic
      metrics and byte-identical event logs.  "meta" and "timing" are
      exempt (thread count and wall clock live there) — see
      docs/observability.md.

  check_report.py --check-vcd waveform.vcd [more.vcd ...]
      Validate VCD well-formedness instead: header structure, balanced
      scopes, declared ids, monotone timestamps, and value tokens that
      fit their declared widths (the files SignalTap writes, see
      docs/observability.md).

  check_report.py --check-journal cache.journal [more ...]
      Validate a csfma-journal-v1 cache-persistence file (the format
      csfma_serve --cache-file writes, docs/service.md): magic header,
      per-record key/length/FNV-1a checksum integrity.  A truncated or
      corrupt trailing record FAILS the check — the daemon skips such
      tails at recovery, but a checked-in or published journal must be
      whole.

  check_report.py --check-sweep transcript.jsonl [more ...]
      Validate a sweep transcript (the JSON lines a `sweep` request
      streams back; csfma_client.py sweep --transcript writes one):
      proto versioning, sweep_point lines in index order, each embedded
      csfma-report-v1 payload schema-valid, hit/miss counts consistent,
      and the sweep_done digest matching an independent FNV-1a
      recomputation over the point payload bytes.

  check_report.py --check-frontier frontier.json [more ...]
      Validate a csfma-frontier-v1 exploration report (what
      csfma_explore --out writes, docs/dse.md): the declared config
      space re-expanded and matched point-for-point in index order,
      every point's canonical cache key and the replay digest
      recomputed, the Pareto frontier (membership, eviction log,
      rejected count) replayed from the points, sensitivity medians
      recomputed, and coverage counts cross-checked against the space.

  check_report.py --compare-frontier a.json b.json
      Assert the deterministic projections of two frontier reports —
      all bytes before the trailing "timing" member — are identical.
      This is the CI gate for the exploration determinism contract:
      any daemon count, worker count, and point arrival order must
      produce byte-identical reports (docs/dse.md).

  check_report.py --check-log serve.log [more ...]
      Validate a csfma-log-v1 structured server log (the file
      csfma_serve --log-file appends, docs/FORMATS.md): every line a
      JSON object with a known "kind", "seq" strictly increasing,
      timestamps under "t" non-decreasing, every request_begin paired
      with exactly one request_end for the same (conn, req) carrying a
      known outcome, and connection lifecycle lines well-formed.

  check_report.py --check-trace trace.json [more ...] [--spans NAME ...]
      Validate a Chrome trace-event file (what the benches' --trace
      writes, docs/observability.md): "displayTimeUnit" is "ms", the
      "traceEvents" array is non-empty, and every event is a complete
      ("X") or instant ("i") event with a "ts" and a "tid".  With
      --spans, every file must also hold an event of each NAME (the
      daemon's --trace-out spans, for instance).  Prints
      "trace OK (N events)" per file.

  check_report.py --check-fleettrace summary.json [more ...]
      Validate a csfma-fleetmerge-v1 fleet-trace summary (what
      scripts/trace_merge.py --summary writes from a csfma_explore
      --fleettrace artifact plus the daemons' --trace-out files): zero
      orphan spans, exactly one server request tree per sweep chunk,
      order-normalized chunk/orphan arrays, consistent totals, and the
      trailing "daemons" member so the deterministic projection is a
      byte prefix (docs/FORMATS.md).

  check_report.py --compare-fleettrace a.json b.json
      Assert the deterministic projections of two fleet-trace summaries
      — all bytes before the trailing "daemons" member — are identical.
      CI gate for the fleet-tracing determinism contract: any daemon
      count, worker count, and chunk arrival order over the same config
      space must produce the same chunks, totals, and (empty) orphan
      list.
"""
import json
import math
import re
import sys

SCHEMA = "csfma-report-v1"

EVENT_KINDS = {
    "misround_vs_ieee",
    "cancellation",
    "lza_mispredict",
    "zero_detect_late",
    "subnormal_flush",
}

HEX64 = re.compile(r"^0x[0-9a-f]{16}$")


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_scalar_or_histogram(path, section, name, v):
    where = f'{section}["{name}"]'
    if v is None:  # non-finite doubles render as null
        return
    if is_number(v):
        if isinstance(v, float) and not math.isfinite(v):
            fail(path, f"{where}: non-finite number survived serialization")
        return
    if not isinstance(v, dict):
        fail(path, f"{where}: expected number, null or histogram object")
    for key in ("bounds", "counts", "count", "sum"):
        if key not in v:
            fail(path, f"{where}: histogram missing key '{key}'")
    bounds, counts = v["bounds"], v["counts"]
    if not isinstance(bounds, list) or not all(is_number(b) for b in bounds):
        fail(path, f"{where}: histogram bounds must be a number array")
    if bounds != sorted(bounds):
        fail(path, f"{where}: histogram bounds must be ascending")
    if not isinstance(counts, list) or len(counts) != len(bounds) + 1:
        fail(path, f"{where}: expected len(bounds)+1 buckets "
                   f"(got {len(counts)} for {len(bounds)} bounds)")
    if not all(isinstance(c, int) and c >= 0 for c in counts):
        fail(path, f"{where}: bucket counts must be non-negative integers")
    if sum(counts) != v["count"]:
        fail(path, f"{where}: bucket counts sum to {sum(counts)}, "
                   f"count says {v['count']}")


def check_event_log(path, name, sec):
    """Validate a numerical event-log section (EventLog::to_json)."""
    where = f'sections["{name}"]'
    if not isinstance(sec, dict):
        fail(path, f"{where}: must be an object")
    for key in ("capacity", "raised", "dropped", "events"):
        if key not in sec:
            fail(path, f"{where}: missing key '{key}'")
    for key in ("capacity", "raised", "dropped"):
        if not isinstance(sec[key], int) or sec[key] < 0:
            fail(path, f"{where}: '{key}' must be a non-negative integer")
    events = sec["events"]
    if not isinstance(events, list):
        fail(path, f"{where}: 'events' must be an array")
    if len(events) > sec["capacity"]:
        fail(path, f"{where}: {len(events)} events exceed capacity "
                   f"{sec['capacity']}")
    if sec["dropped"] != sec["raised"] - len(events):
        fail(path, f"{where}: dropped={sec['dropped']} but raised - stored "
                   f"= {sec['raised'] - len(events)}")
    for i, e in enumerate(events):
        ew = f"{where} event {i}"
        if not isinstance(e, dict):
            fail(path, f"{ew}: must be an object")
        if e.get("kind") not in EVENT_KINDS:
            fail(path, f'{ew}: unknown kind {e.get("kind")!r}')
        if not isinstance(e.get("op"), int) or e["op"] < 0:
            fail(path, f"{ew}: 'op' must be a non-negative integer")
        for operand in ("a", "b", "c"):
            if not isinstance(e.get(operand), str) or \
                    not HEX64.match(e[operand]):
                fail(path, f"{ew}: '{operand}' must be a 0x-prefixed "
                           f"16-digit hex string")
        if not isinstance(e.get("detail"), int):
            fail(path, f"{ew}: 'detail' must be an integer")


def check_stage_activity(path, sec):
    """Validate the per-stage attribution section: for every architecture
    the stage toggles must sum exactly to the unit's total."""
    where = 'sections["stage_activity"]'
    if not isinstance(sec, dict):
        fail(path, f"{where}: must be an object")
    for arch, a in sec.items():
        aw = f'{where}["{arch}"]'
        if not isinstance(a, dict):
            fail(path, f"{aw}: must be an object")
        for key in ("total_toggles", "ops", "stages"):
            if key not in a:
                fail(path, f"{aw}: missing key '{key}'")
        if not isinstance(a["stages"], dict) or not a["stages"]:
            fail(path, f"{aw}: 'stages' must be a non-empty object")
        for stage, t in a["stages"].items():
            if not isinstance(t, int) or t < 0:
                fail(path, f'{aw}: stage "{stage}" toggles must be a '
                           f"non-negative integer")
        total = sum(a["stages"].values())
        if total != a["total_toggles"]:
            fail(path, f"{aw}: stage toggles sum to {total}, "
                       f"total_toggles says {a['total_toggles']}")


def check_bench_host_perf(path, sec):
    """Validate the host-performance section the bench harness attaches
    (BenchHarness::attach, bench/harness.cpp).  All values here are
    Timing-class — wall-clock measurements — so this section is exempt
    from --compare-metrics (see compare_metrics below)."""
    where = 'sections["bench_host_perf"]'
    if not isinstance(sec, dict):
        fail(path, f"{where}: must be an object")
    for key in ("host", "hw_counters", "reps", "warmup", "phases",
                "profiler"):
        if key not in sec:
            fail(path, f"{where}: missing key '{key}'")
    if not isinstance(sec["host"], str) or not sec["host"]:
        fail(path, f"{where}: 'host' must be a non-empty string")
    if not isinstance(sec["hw_counters"], bool):
        fail(path, f"{where}: 'hw_counters' must be a bool")
    for key in ("reps", "warmup"):
        if not isinstance(sec[key], int) or sec[key] < 0:
            fail(path, f"{where}: '{key}' must be a non-negative integer")
    phases = sec["phases"]
    if not isinstance(phases, dict) or not phases:
        fail(path, f"{where}: 'phases' must be a non-empty object")
    stat_keys = ("median_s", "mad_s", "mean_s", "min_s", "max_s")
    for name, p in phases.items():
        pw = f'{where} phase "{name}"'
        if not isinstance(p, dict):
            fail(path, f"{pw}: must be an object")
        for key in stat_keys + ("kept", "rejected", "ops_per_rep",
                                "ops_per_sec", "samples_s"):
            if key not in p:
                fail(path, f"{pw}: missing key '{key}'")
        for key in stat_keys:
            if not is_number(p[key]) or p[key] < 0:
                fail(path, f"{pw}: '{key}' must be a non-negative number")
        if p["min_s"] > p["median_s"] or p["median_s"] > p["max_s"]:
            fail(path, f"{pw}: min <= median <= max violated")
        for key in ("kept", "rejected", "ops_per_rep"):
            if not isinstance(p[key], int) or p[key] < 0:
                fail(path, f"{pw}: '{key}' must be a non-negative integer")
        if p["kept"] < 1:
            fail(path, f"{pw}: outlier rejection must keep >= 1 sample")
        samples = p["samples_s"]
        if not isinstance(samples, list) or \
                not all(is_number(x) for x in samples):
            fail(path, f"{pw}: 'samples_s' must be a number array")
        if len(samples) != p["kept"] + p["rejected"]:
            fail(path, f"{pw}: {len(samples)} samples but kept + rejected "
                       f"= {p['kept'] + p['rejected']}")
    prof = sec["profiler"]
    if not isinstance(prof, dict) or "scopes" not in prof or \
            "hw_counters" not in prof:
        fail(path, f"{where}: 'profiler' must have 'hw_counters' and "
                   f"'scopes'")
    for name, s in prof["scopes"].items():
        sw = f'{where} profiler scope "{name}"'
        for key in ("calls", "items", "wall_ns", "cpu_ns", "cycles",
                    "instructions", "cache_misses"):
            if not isinstance(s.get(key), int) or s[key] < 0:
                fail(path, f"{sw}: '{key}' must be a non-negative integer")
        if s["calls"] < 1:
            fail(path, f"{sw}: recorded scope must have calls >= 1")
        if not sec["hw_counters"] and \
                (s["cycles"] or s["instructions"] or s["cache_misses"]):
            fail(path, f"{sw}: hardware counts present but hw_counters "
                       f"is false")


def check_vcd(path):
    """Validate VCD well-formedness (the files SignalTap/VcdWriter write)."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        fail(path, f"cannot load: {e}")
    lines = text.splitlines()
    if not any(line.startswith("$timescale") for line in lines):
        fail(path, "missing $timescale")
    if "$enddefinitions $end" not in lines:
        fail(path, "missing $enddefinitions $end")
    header_end = lines.index("$enddefinitions $end")

    depth = 0
    widths = {}  # id code -> declared width
    var_re = re.compile(r"^\$var wire (\d+) (\S+) (\S+)( \[\d+:0\])? \$end$")
    for i, line in enumerate(lines[:header_end]):
        if line.startswith("$scope "):
            depth += 1
        elif line == "$upscope $end":
            depth -= 1
            if depth < 0:
                fail(path, f"line {i + 1}: $upscope without open $scope")
        elif line.startswith("$var "):
            m = var_re.match(line)
            if not m:
                fail(path, f"line {i + 1}: malformed $var: {line!r}")
            width, code = int(m.group(1)), m.group(2)
            if width < 1:
                fail(path, f"line {i + 1}: width must be >= 1")
            if code in widths:
                fail(path, f"line {i + 1}: duplicate id code {code!r}")
            widths[code] = width
    if depth != 0:
        fail(path, f"{depth} unclosed $scope block(s)")
    if not widths:
        fail(path, "no $var declarations")

    in_dump = False
    last_time = -1
    nchanges = 0
    for i, line in enumerate(lines[header_end + 1:], start=header_end + 2):
        if line == "$dumpvars":
            in_dump = True
            continue
        if line == "$end" and in_dump:
            in_dump = False
            continue
        if line.startswith("#"):
            t = int(line[1:])
            if t <= last_time:
                fail(path, f"line {i}: non-monotone timestamp #{t}")
            last_time = t
            continue
        if line.startswith("b"):  # vector: "b<bits> <id>"
            try:
                token, code = line.split(" ")
            except ValueError:
                fail(path, f"line {i}: malformed vector change: {line!r}")
            bits = token[1:]
            if not bits or any(ch not in "01x" for ch in bits):
                fail(path, f"line {i}: bad vector token {token!r}")
            if code not in widths:
                fail(path, f"line {i}: undeclared id {code!r}")
            if bits not in ("x",) and len(bits) > widths[code]:
                fail(path, f"line {i}: {len(bits)} bits on a "
                           f"{widths[code]}-bit wire")
        else:  # scalar: "<0|1|x><id>"
            if line[0] not in "01x":
                fail(path, f"line {i}: unrecognized line {line!r}")
            if line[1:] not in widths:
                fail(path, f"line {i}: undeclared id {line[1:]!r}")
        nchanges += 1
    if last_time < 0:
        fail(path, "no timestamps after the header")
    print(f"{path}: OK ({len(widths)} signals, {nchanges} value changes, "
          f"end time #{last_time})")


def check_report(path):
    try:
        with open(path) as f:
            r = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"cannot load: {e}")
    check_report_obj(path, r)
    nmetrics = len(r["metrics"])
    print(f"{path}: OK ({r['bench']}, {nmetrics} metrics, "
          f"{len(r['timing'])} timing entries, {len(r['tables'])} tables)")
    return r


def check_report_obj(path, r):
    """Validate one csfma-report-v1 document already parsed from JSON."""
    if not isinstance(r, dict):
        fail(path, "top level must be an object")
    if r.get("schema") != SCHEMA:
        fail(path, f'schema is {r.get("schema")!r}, expected "{SCHEMA}"')
    if not isinstance(r.get("bench"), str) or not r["bench"]:
        fail(path, '"bench" must be a non-empty string')

    meta = r.get("meta")
    if not isinstance(meta, dict):
        fail(path, '"meta" must be an object')
    for k, v in meta.items():
        if not isinstance(v, str):
            fail(path, f'meta["{k}"] must be a string (got {type(v).__name__})')
    if "git" not in meta:
        fail(path, 'meta must record "git" provenance')

    for section in ("metrics", "timing"):
        vals = r.get(section)
        if not isinstance(vals, dict):
            fail(path, f'"{section}" must be an object')
        for name, v in vals.items():
            check_scalar_or_histogram(path, section, name, v)

    tables = r.get("tables")
    if not isinstance(tables, dict):
        fail(path, '"tables" must be an object')
    for name, t in tables.items():
        if not isinstance(t, dict) or "columns" not in t or "rows" not in t:
            fail(path, f'tables["{name}"] must have "columns" and "rows"')
        ncols = len(t["columns"])
        for i, row in enumerate(t["rows"]):
            if not isinstance(row, list) or len(row) != ncols:
                fail(path, f'tables["{name}"] row {i}: expected {ncols} cells')

    sections = r.get("sections")
    if not isinstance(sections, dict):
        fail(path, '"sections" must be an object')
    for name, sec in sections.items():
        if name == "events" or name.startswith("events."):
            check_event_log(path, name, sec)
        elif name == "stage_activity":
            check_stage_activity(path, sec)
        elif name == "bench_host_perf":
            check_bench_host_perf(path, sec)
    return r


PROTO = 1
JOURNAL_MAGIC = b"csfma-journal-v1"
KEY16 = re.compile(r"^[0-9a-f]{16}$")


def fnv1a64(data, h=0xCBF29CE484222325):
    """FNV-1a 64 over bytes — must match fnv1a64() in service/protocol.cpp."""
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def check_journal(path):
    """Validate a csfma-journal-v1 file; any torn/corrupt record fails."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        fail(path, f"cannot load: {e}")

    pos = 0

    def next_line():
        nonlocal pos
        nl = data.find(b"\n", pos)
        if nl < 0:
            return None  # a record without its newline is a torn append
        line = data[pos:nl]
        pos = nl + 1
        return line

    header = next_line()
    if header is None:
        fail(path, "truncated before the end of the magic header")
    if header != JOURNAL_MAGIC:
        fail(path, f"bad magic header {header!r}, "
                   f"expected {JOURNAL_MAGIC.decode()!r}")

    records, keys = 0, set()
    while pos < len(data):
        record_no = records + 1
        line = next_line()
        if line is None:
            fail(path, f"record {record_no}: truncated trailing record "
                       f"({len(data) - pos} byte(s) without a newline)")
        # "<key16> <len> <fnv16> <payload>" — mirror parse_record() in
        # service/persist.cpp, but strict: any violation is fatal here.
        parts = line.split(b" ", 3)
        if len(parts) != 4:
            fail(path, f"record {record_no}: expected 4 space-separated "
                       f"fields, got {len(parts)}")
        key, len_s, sum_s, payload = parts
        if not KEY16.match(key.decode("ascii", "replace")):
            fail(path, f"record {record_no}: key {key!r} is not 16 hex digits")
        if not len_s.isdigit():
            fail(path, f"record {record_no}: length {len_s!r} not decimal")
        if not KEY16.match(sum_s.decode("ascii", "replace")):
            fail(path, f"record {record_no}: checksum {sum_s!r} is not "
                       f"16 hex digits")
        if int(len_s) != len(payload):
            fail(path, f"record {record_no}: declared length {int(len_s)} "
                       f"but payload is {len(payload)} byte(s) — torn or "
                       f"overwritten record")
        if f"{fnv1a64(payload):016x}".encode() != sum_s:
            fail(path, f"record {record_no}: FNV-1a checksum mismatch")
        records += 1
        keys.add(key)
    if records == 0:
        print(f"{path}: OK (empty journal)")
    else:
        print(f"{path}: OK ({records} record(s), {len(keys)} distinct "
              f"key(s))")


def _report_bytes(raw_line):
    """The exact report-payload bytes out of a line carrying `"report":`.

    The daemon emits the payload as the last member before the closing
    brace (sweep.cpp sweep_point_line), so the splice is unambiguous.
    """
    marker = '"report":'
    idx = raw_line.find(marker)
    if idx < 0:
        return None
    return raw_line[idx + len(marker):-1]


def check_sweep(path):
    """Validate one sweep transcript: ordering, schema, digest replay."""
    try:
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        fail(path, f"cannot load: {e}")

    npoints_declared = None
    points_seen = 0
    digest = 0xCBF29CE484222325  # kSweepDigestSeed (sweep.hpp)
    done = None
    for lineno, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        where = f"line {lineno}"
        if done is not None:
            fail(path, f"{where}: content after the sweep_done summary")
        try:
            msg = json.loads(raw)
        except json.JSONDecodeError as e:
            fail(path, f"{where}: malformed JSON: {e}")
        if not isinstance(msg, dict) or "type" not in msg:
            fail(path, f"{where}: not a typed reply object")
        if msg.get("proto") != PROTO:
            fail(path, f'{where}: proto is {msg.get("proto")!r}, '
                       f"expected {PROTO}")
        t = msg["type"]
        if t == "progress":
            continue  # heartbeats may interleave; not part of the contract
        if t == "accepted":
            if not isinstance(msg.get("points"), int) or msg["points"] < 1:
                fail(path, f"{where}: sweep acceptance must declare a "
                           f"positive point count")
            npoints_declared = msg["points"]
            continue
        if t == "sweep_point":
            if msg.get("index") != points_seen:
                fail(path, f'{where}: point index {msg.get("index")!r}, '
                           f"expected {points_seen} (index order is the "
                           f"contract)")
            if npoints_declared is None:
                npoints_declared = msg.get("points")
            if msg.get("points") != npoints_declared:
                fail(path, f'{where}: point count {msg.get("points")!r} '
                           f"disagrees with {npoints_declared}")
            if msg.get("cache") not in ("hit", "miss"):
                fail(path, f'{where}: cache must be "hit" or "miss"')
            if not isinstance(msg.get("cache_key"), str) or \
                    not KEY16.match(msg["cache_key"]):
                fail(path, f"{where}: cache_key must be 16 hex digits")
            params = msg.get("params")
            if not isinstance(params, dict):
                fail(path, f"{where}: missing params object")
            for k in ("mode", "unit", "rounding", "seed"):
                if k not in params:
                    fail(path, f"{where}: params missing '{k}'")
            payload = _report_bytes(raw)
            if payload is None:
                fail(path, f"{where}: sweep_point without a report payload")
            check_report_obj(f"{path}:{lineno} report", msg.get("report"))
            digest = fnv1a64(payload.encode("utf-8"), digest)
            points_seen += 1
            continue
        if t == "sweep_done":
            done = msg
            continue
        fail(path, f"{where}: unexpected reply type {t!r} in a sweep "
                   f"transcript")

    if done is None:
        fail(path, "no sweep_done summary — truncated transcript")
    if done.get("points") != points_seen:
        fail(path, f'sweep_done says {done.get("points")!r} points but '
                   f"{points_seen} were streamed")
    if npoints_declared is not None and points_seen != npoints_declared:
        fail(path, f"{points_seen} point(s) streamed of {npoints_declared} "
                   f"declared")
    hits, misses = done.get("cache_hits"), done.get("cache_misses")
    if not isinstance(hits, int) or not isinstance(misses, int) or \
            hits + misses != points_seen:
        fail(path, f"cache_hits ({hits!r}) + cache_misses ({misses!r}) "
                   f"must equal the point count {points_seen}")
    if done.get("digest") != f"{digest:016x}":
        fail(path, f'digest {done.get("digest")!r} does not match the '
                   f"recomputed FNV-1a over point payloads "
                   f"({digest:016x}) — payload bytes drifted")
    print(f"{path}: OK ({points_seen} point(s), {hits} hit(s), "
          f"{misses} miss(es), digest {done['digest']})")


FRONTIER_SCHEMA = "csfma-frontier-v1"
FRONTIER_AXES = ("unit", "rounding", "seed", "block", "group", "rwidth",
                 "select", "depth", "ops")
POINT_METRICS = ("delay_ns", "cycles", "fmax_mhz", "luts", "dsps",
                 "toggles_per_op", "energy_nj")
OBJECTIVES = ("delay_ns", "luts", "dsps", "energy_nj")


def _expand_space(space):
    """Re-expand the declared config space in canonical index order.

    Mirrors build_chunks() + expand_sweep() (tools/csfma_explore.cpp,
    service/sweep.cpp): unit > rounding > seed > block > group > rwidth >
    select > depth > ops nesting, pcs requiring block % group == 0, and
    rwidth resolved (0 means one block) in the emitted axis values.
    """
    out = []
    for unit in space["unit"]:
        for rm in space["rounding"]:
            for seed in space["seed"]:
                for block in space["block"]:
                    for group in space["group"]:
                        if unit == "pcs" and block % group != 0:
                            continue
                        for rwidth in space["rwidth"]:
                            for select in space["select"]:
                                for depth in space["depth"]:
                                    for ops in space["ops"]:
                                        out.append({
                                            "unit": unit, "rounding": rm,
                                            "seed": seed, "block": block,
                                            "group": group,
                                            "rwidth": rwidth if rwidth > 0
                                            else block,
                                            "select": select, "depth": depth,
                                            "ops": ops,
                                        })
    return out


def _model_key(p):
    """Canonical cache key of a model point — mirrors canonical_key()
    (service/protocol.cpp); the report carries rwidth already resolved."""
    canon = ("mode=model&unit={unit}&rm={rounding}&seed={seed}"
             "&block={block}&group={group}&rwidth={rwidth}"
             "&select={select}&depth={depth}&ops={ops}").format(**p)
    return f"{fnv1a64(canon.encode('ascii')):016x}"


def _objectives(p):
    return tuple(float(p[m]) for m in OBJECTIVES)


def _dominates(a, b):
    """a dominates b: no worse in every objective, strictly better in one
    — mirrors dominates() in dse/frontier.cpp."""
    if any(x > y for x, y in zip(a, b)):
        return False
    return any(x < y for x, y in zip(a, b))


def _replay_frontier(points):
    """Replay the Pareto frontier in index order — mirrors
    ParetoFrontier::insert (dse/frontier.cpp) including the
    lexicographic-key tie-break and the eviction log order."""
    members = []  # [(key, objectives)] in insertion order
    evictions = []
    rejected = 0
    for p in points:
        key, obj = p["key"], _objectives(p)
        beaten = any(_dominates(qo, obj) or (qo == obj and qk <= key)
                     for qk, qo in members)
        if beaten:
            rejected += 1
            continue
        for qk, qo in members:
            if _dominates(obj, qo):
                evictions.append({"evicted": qk, "by": key,
                                  "reason": "dominated"})
            elif qo == obj:
                evictions.append({"evicted": qk, "by": key, "reason": "tie"})
        members = [(qk, qo) for qk, qo in members
                   if not _dominates(obj, qo) and qo != obj]
        members.append((key, obj))
    return members, evictions, rejected


def _median(v):
    if not v:
        return 0.0
    v = sorted(v)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else 0.5 * (v[mid - 1] + v[mid])


def _value_less_key(value):
    """Sort key matching value_less() in dse/sensitivity.cpp: numeric when
    the value parses as an integer, lexicographic otherwise."""
    try:
        return (0, int(value), value)
    except ValueError:
        return (1, 0, value)


def _axis_sensitivity(points):
    """Recompute per-knob sensitivity — mirrors axis_sensitivity()
    (dse/sensitivity.cpp): group by all-other-axes context, order along
    the varying axis, median of adjacent |deltas| per objective."""
    out = {}
    for axis in FRONTIER_AXES:
        groups = {}
        for p in points:
            ctx = "&".join(f"{a}={p[a]}" for a in sorted(FRONTIER_AXES)
                           if a != axis)
            groups.setdefault(ctx, []).append((str(p[axis]), _objectives(p)))
        deltas = [[], [], [], []]
        for ctx in sorted(groups):
            g = sorted(groups[ctx], key=lambda e: _value_less_key(e[0]))
            for prev, cur in zip(g, g[1:]):
                if prev[0] == cur[0]:
                    continue  # duplicate config
                for i in range(4):
                    deltas[i].append(abs(cur[1][i] - prev[1][i]))
        out[axis] = {"pairs": len(deltas[0]),
                     **{m: _median(deltas[i])
                        for i, m in enumerate(OBJECTIVES)}}
    return out


def check_frontier(path):
    """Validate one csfma-frontier-v1 report end to end (docs/dse.md)."""
    try:
        with open(path, encoding="utf-8") as f:
            r = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"cannot load: {e}")
    if not isinstance(r, dict):
        fail(path, "top level must be a JSON object")
    if r.get("format") != FRONTIER_SCHEMA:
        fail(path, f'format is {r.get("format")!r}, '
                   f"expected {FRONTIER_SCHEMA!r}")
    for key in ("tool", "space", "points", "frontier", "evictions",
                "rejected", "sensitivity", "coverage", "digest", "timing"):
        if key not in r:
            fail(path, f"missing top-level member '{key}'")
    if list(r)[-1] != "timing":
        fail(path, '"timing" must be the last member — the deterministic '
                   "projection is everything before it")

    # --- the config space, re-expanded ---------------------------------
    space = r["space"]
    for axis in FRONTIER_AXES:
        v = space.get(axis)
        if not isinstance(v, list) or not v:
            fail(path, f'space["{axis}"] must be a non-empty array')
    expanded = _expand_space(space)
    if space.get("points") != len(expanded):
        fail(path, f'space declares {space.get("points")!r} points but the '
                   f"axes expand to {len(expanded)}")

    # --- points: index order, axis values, canonical keys --------------
    points = r["points"]
    if not isinstance(points, list) or len(points) != len(expanded):
        fail(path, f"expected {len(expanded)} points, got "
                   f"{len(points) if isinstance(points, list) else points!r}")
    digest = 0xCBF29CE484222325  # kSweepDigestSeed (service/sweep.hpp)
    for i, (p, want) in enumerate(zip(points, expanded)):
        where = f"points[{i}]"
        if p.get("index") != i:
            fail(path, f'{where}: index {p.get("index")!r}, expected {i} '
                       f"(canonical index order is the contract)")
        for axis in FRONTIER_AXES:
            if p.get(axis) != want[axis]:
                fail(path, f'{where}: {axis} is {p.get(axis)!r}, the '
                           f"expansion says {want[axis]!r}")
        key = p.get("key")
        if not isinstance(key, str) or not KEY16.match(key):
            fail(path, f"{where}: key must be 16 hex digits")
        if key != _model_key(want):
            fail(path, f"{where}: key {key} does not match the canonical "
                       f"key recomputation {_model_key(want)}")
        for m in POINT_METRICS:
            if not is_number(p.get(m)) or not math.isfinite(p[m]):
                fail(path, f"{where}: metric '{m}' must be a finite number")
        digest = fnv1a64(key.encode("ascii"), digest)
    if r["digest"] != f"{digest:016x}":
        fail(path, f'digest {r["digest"]!r} does not match the FNV-1a fold '
                   f"over point keys in index order ({digest:016x})")

    # --- frontier, eviction log and rejected count, replayed -----------
    members, evictions, rejected = _replay_frontier(points)
    want_frontier = sorted(
        ({"key": k, **dict(zip(OBJECTIVES, obj))} for k, obj in members),
        key=lambda e: e["key"])
    if r["frontier"] != want_frontier:
        fail(path, f'frontier has {len(r["frontier"])} member(s) and the '
                   f"replay produces {len(want_frontier)} — membership or "
                   f"objectives drifted from the point set")
    if r["evictions"] != evictions:
        fail(path, f'eviction log ({len(r["evictions"])} entries) does not '
                   f"match the index-order replay ({len(evictions)})")
    if r["rejected"] != rejected:
        fail(path, f'rejected is {r["rejected"]!r}, replay says {rejected}')

    # --- sensitivity, recomputed ---------------------------------------
    if r["sensitivity"] != _axis_sensitivity(points):
        fail(path, "sensitivity statistics do not match the recomputation "
                   "from the point set")

    # --- coverage vs the space -----------------------------------------
    cov = r["coverage"]
    if cov.get("points") != len(expanded):
        fail(path, f'coverage.points is {cov.get("points")!r}, space has '
                   f"{len(expanded)}")
    if cov.get("done") != len(points):
        fail(path, f'coverage.done is {cov.get("done")!r} but the report '
                   f"carries {len(points)} point(s)")
    want_axes = {}
    for want in expanded:
        for axis in FRONTIER_AXES:
            per = want_axes.setdefault(axis, {})
            per[str(want[axis])] = per.get(str(want[axis]), 0) + 1
    for axis in FRONTIER_AXES:
        got = cov["axes"].get(axis)
        if got is None:
            fail(path, f"coverage.axes missing axis '{axis}'")
        if {k: v["expected"] for k, v in got.items()} != want_axes[axis]:
            fail(path, f"coverage.axes[{axis!r}]: expected counts disagree "
                       f"with the space expansion")
        for value, c in got.items():
            if not (0 <= c["failed"] <= c["done"] <= c["expected"]):
                fail(path, f"coverage.axes[{axis!r}][{value!r}]: "
                           f"failed <= done <= expected violated")

    print(f"{path}: OK ({len(points)} point(s), "
          f'{len(r["frontier"])} on the frontier, '
          f"{len(evictions)} eviction(s), digest {r['digest']})")
    return r


def _frontier_projection(path):
    """The deterministic projection: all bytes before the trailing
    "timing" member (docs/dse.md, "Determinism contract")."""
    with open(path, "rb") as f:
        raw = f.read()
    marker = b',"timing":'
    idx = raw.rfind(marker)
    if idx < 0:
        fail(path, "no timing member — not a frontier report?")
    return raw[:idx]


def compare_frontier(path_a, path_b):
    a, b = _frontier_projection(path_a), _frontier_projection(path_b)
    if a != b:
        n = min(len(a), len(b))
        at = next((i for i in range(n) if a[i] != b[i]), n)
        ctx_a = a[max(0, at - 40):at + 40].decode("utf-8", "replace")
        ctx_b = b[max(0, at - 40):at + 40].decode("utf-8", "replace")
        print(f"DETERMINISM VIOLATION: projections diverge at byte {at}:\n"
              f"  {path_a}: ...{ctx_a}...\n"
              f"  {path_b}: ...{ctx_b}...", file=sys.stderr)
        sys.exit(1)
    print(f"{path_a} vs {path_b}: deterministic projections identical "
          f"({len(a)} byte(s); timing exempt)")


LOG_KINDS = {
    "conn_accept", "conn_close", "request_begin", "request_end",
    "reject", "cancel", "journal_compact", "journal_load",
    "slow_request", "slow_point",
}
LOG_OUTCOMES = {"ok", "cache_hit", "busy", "cancelled", "error"}
LOG_CLOSE_WHY = {"eof", "read_error", "idle_timeout", "shutdown",
                 "dead_peer"}


def check_log(path):
    """Validate one csfma-log-v1 structured server log (docs/FORMATS.md)."""
    try:
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        fail(path, f"cannot load: {e}")

    last_seq = 0
    last_ts = None
    open_reqs = {}   # (conn, req) -> begin line number
    ended = set()    # (conn, req) already closed by a request_end
    counts = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        where = f"line {lineno}"
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError as e:
            fail(path, f"{where}: malformed JSON: {e}")
        if not isinstance(entry, dict):
            fail(path, f"{where}: not a JSON object")
        kind = entry.get("kind")
        if kind not in LOG_KINDS:
            fail(path, f"{where}: unknown kind {kind!r}")
        counts[kind] = counts.get(kind, 0) + 1
        seq = entry.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            fail(path, f"{where}: seq {seq!r} not strictly increasing "
                       f"(previous {last_seq})")
        last_seq = seq
        t = entry.get("t")
        if not isinstance(t, dict) or not is_number(t.get("ts_ms")):
            fail(path, f'{where}: missing timing object "t" with '
                       f"numeric ts_ms")
        if last_ts is not None and t["ts_ms"] < last_ts:
            fail(path, f'{where}: ts_ms {t["ts_ms"]} went backwards '
                       f"(previous {last_ts})")
        last_ts = t["ts_ms"]

        if kind in ("conn_accept", "conn_close", "request_begin",
                    "request_end", "reject", "cancel", "slow_request",
                    "slow_point"):
            if not isinstance(entry.get("conn"), str):
                fail(path, f"{where}: {kind} without a conn string")
        if kind == "conn_close" and entry.get("why") not in LOG_CLOSE_WHY:
            fail(path, f'{where}: conn_close why {entry.get("why")!r} '
                       f"not one of {sorted(LOG_CLOSE_WHY)}")
        if kind in ("request_begin", "request_end", "slow_request"):
            if not isinstance(entry.get("req"), str) or \
                    not isinstance(entry.get("type"), str):
                fail(path, f"{where}: {kind} needs req and type strings")
        if kind in ("request_begin", "request_end"):
            # Trace context is optional (omitted for legacy clients) but
            # must be a string when present.
            for key in ("trace_id", "parent_span"):
                if key in entry and not isinstance(entry[key], str):
                    fail(path, f"{where}: {kind} '{key}' must be a string")
        if kind == "journal_load":
            for key in ("records", "bytes_skipped"):
                if not isinstance(entry.get(key), int) or entry[key] < 0:
                    fail(path, f"{where}: journal_load '{key}' must be a "
                               f"non-negative integer")
            if entry.get("torn") not in (0, 1):
                fail(path, f"{where}: journal_load 'torn' must be 0 or 1")
        if kind == "slow_point":
            for key in ("req", "job"):
                if not isinstance(entry.get(key), str):
                    fail(path, f"{where}: slow_point needs a '{key}' string")
            if not isinstance(entry.get("index"), int) or \
                    entry["index"] < 0:
                fail(path, f"{where}: slow_point 'index' must be a "
                           f"non-negative integer")
            if not isinstance(entry.get("params"), dict):
                fail(path, f"{where}: slow_point needs a params object")
            if not is_number(t.get("latency_ms")) or t["latency_ms"] < 0:
                fail(path, f"{where}: slow_point needs non-negative "
                           f"t.latency_ms")
        if kind == "request_begin":
            key = (entry["conn"], entry["req"])
            if key in open_reqs or key in ended:
                fail(path, f'{where}: duplicate request_begin for '
                           f"{key[1]} on {key[0]}")
            open_reqs[key] = lineno
        if kind == "request_end":
            key = (entry["conn"], entry["req"])
            if key not in open_reqs:
                fail(path, f'{where}: request_end for {key[1]} on '
                           f"{key[0]} without a matching request_begin")
            del open_reqs[key]
            ended.add(key)
            if entry.get("outcome") not in LOG_OUTCOMES:
                fail(path, f'{where}: outcome {entry.get("outcome")!r} '
                           f"not one of {sorted(LOG_OUTCOMES)}")
            if not is_number(t.get("latency_ms")) or t["latency_ms"] < 0:
                fail(path, f"{where}: request_end needs non-negative "
                           f"t.latency_ms")

    if open_reqs:
        dangling = ", ".join(f"{req} on {conn} (line {ln})"
                             for (conn, req), ln in sorted(open_reqs.items()))
        fail(path, f"request_begin without request_end: {dangling}")
    print(f"{path}: OK ({sum(counts.values())} line(s): " +
          ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) + ")")


FLEETMERGE_SCHEMA = "csfma-fleetmerge-v1"
TRACE_ID = re.compile(r"^explore-[0-9a-f]{16}$")


def check_trace(path, spans=()):
    try:
        with open(path) as f:
            t = json.load(f)
    except (OSError, ValueError) as e:
        fail(path, f"cannot load trace: {e}")
    if not isinstance(t, dict) or t.get("displayTimeUnit") != "ms":
        fail(path, 'displayTimeUnit is not "ms"')
    events = t.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "trace has no events")
    for i, e in enumerate(events):
        if not isinstance(e, dict) or e.get("ph") not in ("X", "i"):
            fail(path, f"traceEvents[{i}]: ph is not \"X\" or \"i\"")
        if "ts" not in e or "tid" not in e:
            fail(path, f"traceEvents[{i}]: no ts or tid")
    names = {e.get("name") for e in events}
    missing = [s for s in spans if s not in names]
    if missing:
        fail(path, f"missing span(s) {', '.join(missing)}; the trace has "
                   f"{sorted(n for n in names if isinstance(n, str))}")
    print(f"trace OK ({len(events)} events)")


def check_fleettrace(path):
    """Validate a csfma-fleetmerge-v1 summary (what trace_merge.py
    --summary writes, docs/FORMATS.md): zero orphan spans, exactly one
    server request tree per sweep chunk, order-normalized arrays, totals
    consistent, and the trailing "daemons" member so the deterministic
    projection is a byte prefix."""
    try:
        with open(path, encoding="utf-8") as f:
            s = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"cannot load: {e}")
    if not isinstance(s, dict):
        fail(path, "top level must be a JSON object")
    if s.get("format") != FLEETMERGE_SCHEMA:
        fail(path, f'format is {s.get("format")!r}, '
                   f"expected {FLEETMERGE_SCHEMA!r}")
    for key in ("trace_id", "chunks", "orphans", "totals", "daemons"):
        if key not in s:
            fail(path, f"missing top-level member '{key}'")
    if list(s)[-1] != "daemons":
        fail(path, '"daemons" must be the last member — the deterministic '
                   "projection is everything before it")
    if not isinstance(s["trace_id"], str) or not TRACE_ID.match(s["trace_id"]):
        fail(path, f'trace_id {s["trace_id"]!r} must look like '
                   f"explore-<16 hex digits>")

    chunks = s["chunks"]
    if not isinstance(chunks, list) or not chunks:
        fail(path, '"chunks" must be a non-empty array')
    for i, c in enumerate(chunks):
        where = f"chunks[{i}]"
        if c.get("id") != f"chunk-{i}":
            fail(path, f'{where}: id {c.get("id")!r}, expected "chunk-{i}" '
                       f"(ordinal order is the contract)")
        if not isinstance(c.get("points"), int) or c["points"] < 1:
            fail(path, f"{where}: points must be a positive integer")
        if c.get("req_trees") != 1:
            fail(path, f'{where}: req_trees is {c.get("req_trees")!r} — '
                       f"each chunk must map to exactly one server "
                       f"request tree")

    orphans = s["orphans"]
    if not isinstance(orphans, list):
        fail(path, '"orphans" must be an array')
    if orphans:
        listed = "; ".join(
            f'daemon {o.get("daemon")} {o.get("req") or "?"} span '
            f'{o.get("name")!r} parent {o.get("parent")!r}'
            for o in orphans[:10])
        fail(path, f"{len(orphans)} orphan span(s) — server spans whose "
                   f"parent is not an explorer span: {listed}")

    totals = s["totals"]
    want = {"chunks": len(chunks),
            "points": sum(c["points"] for c in chunks),
            "req_trees": sum(c["req_trees"] for c in chunks)}
    if totals != want:
        fail(path, f"totals {totals!r} disagree with the chunk list "
                   f"({want!r})")

    daemons = s["daemons"]
    if not isinstance(daemons, list) or not daemons:
        fail(path, '"daemons" must be a non-empty array')
    for i, d in enumerate(daemons):
        where = f"daemons[{i}]"
        if d.get("index") != i:
            fail(path, f'{where}: index {d.get("index")!r}, expected {i}')
        for key in ("spans", "reqs"):
            if not isinstance(d.get(key), int) or d[key] < 0:
                fail(path, f"{where}: '{key}' must be a non-negative "
                           f"integer")
        if d["spans"] < d["reqs"]:
            fail(path, f'{where}: {d["spans"]} span(s) for {d["reqs"]} '
                       f"request(s) — every request tree has at least "
                       f"one span")
        if d["reqs"] < 1:
            fail(path, f"{where}: a connected daemon must have served at "
                       f"least the stats handshake")
    print(f'{path}: OK ({want["chunks"]} chunk(s), {want["points"]} '
          f"point(s), {len(daemons)} daemon(s), 0 orphans)")


def _fleetmerge_projection(path):
    """The deterministic projection: all bytes before the trailing
    "daemons" member (per-daemon span counts vary with the fleet
    layout; the chunk/orphan/totals prefix must not)."""
    with open(path, "rb") as f:
        raw = f.read()
    marker = b',"daemons":'
    idx = raw.rfind(marker)
    if idx < 0:
        fail(path, "no daemons member — not a fleet-merge summary?")
    return raw[:idx]


def compare_fleettrace(path_a, path_b):
    a, b = _fleetmerge_projection(path_a), _fleetmerge_projection(path_b)
    if a != b:
        n = min(len(a), len(b))
        at = next((i for i in range(n) if a[i] != b[i]), n)
        ctx_a = a[max(0, at - 40):at + 40].decode("utf-8", "replace")
        ctx_b = b[max(0, at - 40):at + 40].decode("utf-8", "replace")
        print(f"DETERMINISM VIOLATION: projections diverge at byte {at}:\n"
              f"  {path_a}: ...{ctx_a}...\n"
              f"  {path_b}: ...{ctx_b}...", file=sys.stderr)
        sys.exit(1)
    print(f"{path_a} vs {path_b}: deterministic projections identical "
          f"({len(a)} byte(s); per-daemon counts exempt)")


# Sections that carry Timing-class (wall-clock) data and are therefore
# exempt from the determinism comparison, like "timing" itself.
TIMING_SECTIONS = {"bench_host_perf"}


def compare_metrics(path_a, path_b, a, b):
    ok = True
    for section in ("metrics", "tables", "sections"):
        sa = {k: v for k, v in a[section].items()
              if section != "sections" or k not in TIMING_SECTIONS}
        sb = {k: v for k, v in b[section].items()
              if section != "sections" or k not in TIMING_SECTIONS}
        if sa != sb:
            ok = False
            keys = sorted(set(sa) | set(sb))
            for k in keys:
                va, vb = sa.get(k), sb.get(k)
                if va != vb:
                    print(f'DETERMINISM VIOLATION: {section}["{k}"]: '
                          f"{path_a} has {va!r}, {path_b} has {vb!r}",
                          file=sys.stderr)
    if not ok:
        sys.exit(1)
    print(f"{path_a} vs {path_b}: deterministic sections identical "
          f"(timing-class sections exempt)")


def main(argv):
    if len(argv) >= 1 and argv[0] == "--check-vcd":
        if len(argv) < 2:
            fail("usage", "--check-vcd needs at least one VCD path")
        for path in argv[1:]:
            check_vcd(path)
        return
    if len(argv) >= 1 and argv[0] == "--check-journal":
        if len(argv) < 2:
            fail("usage", "--check-journal needs at least one journal path")
        for path in argv[1:]:
            check_journal(path)
        return
    if len(argv) >= 1 and argv[0] == "--check-log":
        if len(argv) < 2:
            fail("usage", "--check-log needs at least one log path")
        for path in argv[1:]:
            check_log(path)
        return
    if len(argv) >= 1 and argv[0] == "--check-trace":
        paths, spans = argv[1:], []
        if "--spans" in paths:
            at = paths.index("--spans")
            paths, spans = paths[:at], paths[at + 1:]
            if not spans:
                fail("usage", "--spans needs at least one span name")
        if not paths:
            fail("usage", "--check-trace needs at least one trace path")
        for path in paths:
            check_trace(path, spans)
        return
    if len(argv) >= 1 and argv[0] == "--check-fleettrace":
        if len(argv) < 2:
            fail("usage", "--check-fleettrace needs at least one summary "
                          "path")
        for path in argv[1:]:
            check_fleettrace(path)
        return
    if len(argv) >= 1 and argv[0] == "--compare-fleettrace":
        if len(argv) != 3:
            fail("usage", "--compare-fleettrace needs exactly two summary "
                          "paths")
        check_fleettrace(argv[1])
        check_fleettrace(argv[2])
        compare_fleettrace(argv[1], argv[2])
        return
    if len(argv) >= 1 and argv[0] == "--check-sweep":
        if len(argv) < 2:
            fail("usage", "--check-sweep needs at least one transcript path")
        for path in argv[1:]:
            check_sweep(path)
        return
    if len(argv) >= 1 and argv[0] == "--check-frontier":
        if len(argv) < 2:
            fail("usage", "--check-frontier needs at least one report path")
        for path in argv[1:]:
            check_frontier(path)
        return
    if len(argv) >= 1 and argv[0] == "--compare-frontier":
        if len(argv) != 3:
            fail("usage", "--compare-frontier needs exactly two report "
                          "paths")
        check_frontier(argv[1])
        check_frontier(argv[2])
        compare_frontier(argv[1], argv[2])
        return
    if len(argv) >= 1 and argv[0] == "--compare-metrics":
        if len(argv) != 3:
            fail("usage", "--compare-metrics needs exactly two report paths")
        a = check_report(argv[1])
        b = check_report(argv[2])
        compare_metrics(argv[1], argv[2], a, b)
        return
    if not argv:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in argv:
        check_report(path)


if __name__ == "__main__":
    main(sys.argv[1:])
