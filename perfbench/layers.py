"""Per-layer metrics from the traced pass, named after the library's modules.

Rules (see README.md for the layer -> end-to-end map):
- `*_p50` / `*_p90` metrics are percentiles over individual calls;
  `store.power_*` are over `/power` requests on server workloads and over
  the analysis' own series reads on analyze-year.
- Other time and count metrics of layers that run inside an operation
  (one CLI process, one streamed request) are the median over operations
  of the layer's total within the operation.
- `service.anomalies.*` come from the `/anomalies` requests of
  stream-year's output checks, which follow the stream.
- Setup layers (simulator, store build, replay) are totals of the one
  setup in the traced pass; request and store counters are totals of the
  timed phase.
- A layer's self time is its span's duration minus its direct children.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ROUTES = ("readings", "power", "anomalies")

UNITS = {
    "protocol.frames": "count",
    "protocol.decode_us_p50": "us",
    "simulator.days": "count",
    "simulator.busy_s": "s",
    "store.ingest_ms_p50": "ms",
    "store.readings_accepted": "count",
    "store.duplicates_dropped": "count",
    "store.out_of_order": "count",
    "store.ndjson_bytes_per_reading": "B",
    "store.csv_read_s": "s",
    "store.bulk_ingest_s": "s",
    "store.replay_s": "s",
    "store.power_ms_p50": "ms",
    "store.power_slots": "count",
    "store.analysis_series_s": "s",
    "profiles.build_ms": "ms",
    "profiles.kept": "count",
    "profiles.excluded": "count",
    "clustering.select_k_s": "s",
    "clustering.fit_s": "s",
    "clustering.polish_s": "s",
    "clustering.fits": "count",
    "clustering.lloyd_iterations": "count",
    "anomaly.score_ms": "ms",
    "anomaly.flagged": "count",
    "pipeline.analyze_s": "s",
    "pipeline.self_ms": "ms",
    "charts.render_ms": "ms",
    "charts.svg_bytes": "B",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
}
for _route in ROUTES:
    UNITS.update({
        "service.{}.requests".format(_route): "count",
        "service.{}.errors".format(_route): "count",
        "service.{}.self_ms_p50".format(_route): "ms",
        "service.{}.transport_ms_p50".format(_route): "ms",
        "service.{}.response_bytes".format(_route): "B",
    })
UNITS.update({
    "loadgen.lag_p90_ms": "ms",
    "loadgen.sent": "count",
    "trace.overhead_ms": "ms",
    "trace.uncovered_ms": "ms",
})


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between closest ranks; 0 without samples."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def per_layer(workload: str, plain, traced, bench_spans: list[dict], child_spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metric values, and the sample count behind each percentile."""
    if workload == "analyze-year":
        ops = list(traced.launches)
        e2e = dict(zip(ops, traced.latencies_s))
    else:
        ops = [s.rid for s in traced.samples]
        e2e = {s.rid: s.latency_s for s in traced.samples}

    children = defaultdict(float)
    by_id = {}
    for s in child_spans:
        by_id[(s["pid"], s["id"])] = s
        if s["parent"]:
            children[(s["pid"], s["parent"])] += _dur(s)

    def parent_name(span: dict) -> str:
        parent = by_id.get((span["pid"], span["parent"]))
        return parent["name"] if parent else ""

    def self_time(span: dict) -> float:
        return _dur(span) - children[(span["pid"], span["id"])]

    by_op: dict[str, list[dict]] = defaultdict(list)
    for s in child_spans:
        by_op[s["op"]].append(s)
    in_ops = [s for op in ops for s in by_op.get(op, [])]

    def per_op(names, value=_dur) -> float:
        names = (names,) if isinstance(names, str) else names
        return _median(sum(value(s) for s in by_op.get(op, []) if s["name"] in names) for op in ops)

    def attr(key):
        return lambda s: s["attrs"].get(key, 0)

    def calls(name):
        return [s for s in in_ops if s["name"] == name]

    ingests = calls("store.ingest")
    # The read path: `/power` requests where the service serves them,
    # otherwise the series the analysis reads.
    reads = [s for s in calls("store.power") if parent_name(s) != "pipeline.analyze"] or calls("store.power")
    decodes = [s for s in bench_spans if s["name"] == "protocol.decode"]
    sims = [s for s in bench_spans if s["name"] == "simulator.simulate"]
    builds = [s for s in bench_spans if s["name"] == "store.build"]
    m = {
        "protocol.frames": len(decodes),
        "protocol.decode_us_p50": percentile([_dur(s) * 1e6 for s in decodes], 50),
        "simulator.days": sum(s["attrs"]["days"] for s in sims),
        "simulator.busy_s": sum(_dur(s) for s in sims),
        "store.ingest_ms_p50": percentile([_dur(s) * 1e3 for s in ingests], 50),
        "store.readings_accepted": sum(s["attrs"]["accepted"] for s in ingests),
        "store.duplicates_dropped": sum(s["attrs"]["duplicates"] for s in ingests),
        "store.out_of_order": sum(s["attrs"]["out_of_order"] for s in ingests),
        "store.ndjson_bytes_per_reading": _bytes_per_line(traced.ndjson),
        "store.csv_read_s": per_op("store.csv_read"),
        "store.bulk_ingest_s": per_op("store.ingest", lambda s: _dur(s) if s["attrs"]["batch"] > 1 else 0.0)
        + sum(_dur(s) for s in builds),
        "store.replay_s": sum(_dur(s) for s in child_spans if s["name"] == "store.replay"),
        "store.power_ms_p50": percentile([_dur(s) * 1e3 for s in reads], 50),
        "store.power_slots": percentile([s["attrs"]["slots"] for s in reads], 50),
        "store.analysis_series_s": per_op(
            "store.power", lambda s: _dur(s) if parent_name(s) == "pipeline.analyze" else 0.0
        ),
        "profiles.build_ms": per_op("profiles.build") * 1e3,
        "profiles.kept": per_op("profiles.build", attr("kept")),
        "profiles.excluded": per_op("profiles.build", attr("excluded")),
        "clustering.select_k_s": per_op("clustering.select_k"),
        "clustering.fit_s": per_op("clustering.fit"),
        "clustering.polish_s": per_op("clustering.polish"),
        "clustering.fits": per_op(("clustering.fit", "clustering.scan_fit"), lambda s: 1),
        "clustering.lloyd_iterations": per_op(("clustering.fit", "clustering.scan_fit"), attr("lloyd_iterations")),
        "anomaly.score_ms": per_op("anomaly.score") * 1e3,
        "anomaly.flagged": per_op("anomaly.score", attr("flagged")),
        "pipeline.analyze_s": per_op("pipeline.analyze"),
        "pipeline.self_ms": per_op("pipeline.analyze", self_time) * 1e3,
        "charts.render_ms": per_op("charts.render") * 1e3,
        "charts.svg_bytes": per_op("charts.render", attr("bytes")),
        "cli.startup_s": per_op("cli.main", lambda s: s["attrs"]["entered"] - traced.launches[s["op"]]),
        "cli.self_s": per_op("cli.main", self_time),
        "cli.bytes_written": _median(traced.bytes_written),
    }

    server_spans = {s["op"]: s for s in child_spans if s["name"].startswith("service.")}
    for route in ROUTES:
        samples = [s for s in traced.samples + traced.check_samples if s.route == route]
        handled = [server_spans[s.rid] for s in samples if s.rid in server_spans]
        prefix = "service.{}.".format(route)
        m[prefix + "requests"] = len(samples)
        m[prefix + "errors"] = sum(1 for s in samples if s.status != 200)
        m[prefix + "self_ms_p50"] = percentile([self_time(s) * 1e3 for s in handled], 50)
        m[prefix + "transport_ms_p50"] = percentile(
            [_transport_s(s, server_spans[s.rid]) * 1e3 for s in samples if s.rid in server_spans], 50
        )
        m[prefix + "response_bytes"] = percentile([len(s.body) for s in samples], 50)
    m["loadgen.lag_p90_ms"] = percentile([s.lag_s * 1e3 for s in traced.samples], 90)
    m["loadgen.sent"] = len(traced.samples)

    m["trace.overhead_ms"] = (_median(traced.latencies_s) - _median(plain.latencies_s)) * 1e3
    decode_by_op = {s["attrs"].get("rid"): _dur(s) for s in decodes}
    lag_by_op = {s.rid: s.lag_s for s in traced.samples}
    uncovered = []
    for op in ops:
        covered = sum(_dur(s) for s in by_op.get(op, []) if not s["parent"])
        covered += decode_by_op.get(op, 0.0) + lag_by_op.get(op, 0.0)
        covered += sum(s["attrs"]["entered"] - traced.launches[op] for s in by_op.get(op, []) if s["name"] == "cli.main")
        uncovered.append((e2e[op] - covered) * 1e3)
    m["trace.uncovered_ms"] = _median(uncovered)
    counts = {
        "operations": len(ops),
        "protocol.decode_us_p50": len(decodes),
        "store.ingest_ms_p50": len(ingests),
        "store.power_ms_p50": len(reads),
    }
    for route in ROUTES:
        counts["service.{}.self_ms_p50".format(route)] = sum(
            1 for s in traced.samples + traced.check_samples if s.route == route and s.rid in server_spans
        )
    return m, counts


def _transport_s(sample, span: dict) -> float:
    """Client time outside the handler span: request in, plus response out.

    perf_counter() is CLOCK_MONOTONIC on Linux, one clock for client and
    server.  The handler span can end after the client has the whole
    response (the thread waits for the GIL after its last write), so the
    response-out part is never below 0.
    """
    return (span["t0"] - sample.sent_at) + max(0.0, sample.done_at - span["t1"])


def _bytes_per_line(path) -> float:
    if path is None or not path.exists():
        return 0.0
    data = path.read_bytes()
    lines = data.count(b"\n")
    return len(data) / lines if lines else 0.0
