"""The two workloads.  Each runs its set-ups, one timed phase and the
output checks, and returns what it measured as a `Pass`.

analyze-year  batch: `meterwatch analyze` on one year of S1..S4, one CLI
              process per operation, repeated for the run's duration.
stream-year   a server holding a year of S1..S4; an open loop streams
              each meter's next readings and dashboard `/power` reads.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from client import Connection, Sample, anomalies_path, power_path, run_open_loop
from procs import Launcher, Server

from meterwatch import TelemetryStore

SIZES = {
    # Days of data and complete set-ups per plain run.
    "full": {"year_days": 365, "setups": 3},
    "tiny": {"year_days": 30, "setups": 2},
}


@dataclass
class Pass:
    """What one timed phase measured, plus the checks that followed it."""

    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)  # the workload's operation
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    recall: tuple[int, int] = (0, 0)
    samples: list[Sample] = field(default_factory=list)  # HTTP requests of the timed phase
    check_samples: list[Sample] = field(default_factory=list)  # `/anomalies` requests of the checks
    launches: dict[str, float] = field(default_factory=dict)  # CLI op id -> launch epoch
    bytes_written: list[int] = field(default_factory=list)  # per CLI run
    ndjson: Path | None = None
    timed_s: float = 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, problems: list[str]) -> None:
        """One output check: attempted once, failed once if it found problems."""
        self.attempted += 1
        if problems:
            self.fail("; ".join(problems[:3]))


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    size: dict
    rec: object  # benchmark-side span recorder (tracing.Recorder or NullRecorder)
    spans_file: Path | None = None  # child-process spans; None runs untraced
    setups: int = 1

    def launcher(self) -> Launcher:
        return Launcher(self.root / "src", self.spans_file)


def _simulate(ctx: Context, persona_id: str, days: int) -> inputs.MeterInput:
    with ctx.rec.span("simulator.simulate", days=days):
        return inputs.simulate(ctx.seed, persona_id, days)


def _build_store(ctx: Context, readings_by_meter: list, store_dir: Path) -> Path:
    with ctx.rec.span("store.build"):
        return inputs.build_store(readings_by_meter, store_dir)


# -- analyze-year ----------------------------------------------------------------


def analyze_year(ctx: Context) -> Pass:
    result = Pass()
    data = ctx.work / "data"
    for _ in range(ctx.setups):
        t0 = time.perf_counter()
        data.mkdir(parents=True, exist_ok=True)
        meters = [_simulate(ctx, pid, ctx.size["year_days"]) for pid in inputs.PERSONAS]
        csvs = inputs.write_csvs(meters, data)
        result.setup_s.append(time.perf_counter() - t0)

    launcher = ctx.launcher()
    runs = []
    t_start = time.perf_counter()
    # Start another operation while at least half of it fits in the run.
    while not runs or time.perf_counter() - t_start + result.latencies_s[-1] / 2 < ctx.seconds:
        op = "run{}".format(len(runs))
        out = ctx.work / "out" / op
        code, wall, rss, launched = launcher.run_cli(
            ["analyze"] + [str(p) for p in csvs] + ["--out", str(out)], op, ctx.work / (op + ".log")
        )
        runs.append((op, out, code))
        result.latencies_s.append(wall)
        result.launches[op] = launched
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
    result.timed_s = time.perf_counter() - t_start

    ids = [m.meter_id for m in meters]
    reports = set()
    for op, out, code in runs:
        result.attempted += 1
        problems = [] if code == 0 else ["exit code {}".format(code)]
        problems += checks.analyze_output_problems(out, ids) if code == 0 else []
        if problems:
            result.fail("{}: {}".format(op, "; ".join(problems[:3])))
            continue
        reports.add(tuple((out / m / "anomaly_report.json").read_bytes() for m in ids))
        result.bytes_written.append(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
    result.check([] if len(reports) <= 1 else ["reports differ between runs of the same input"])
    if reports:
        docs = [json.loads(body) for body in next(iter(reports))]
        hit = sum(checks.flagged_scripted(doc, m.scripted_days) for doc, m in zip(docs, meters))
        result.recall = (hit, sum(len(m.scripted_days) for m in meters))
    return result


# -- stream-year -----------------------------------------------------------------


def _start_server(ctx: Context, launcher: Launcher, readings_by_meter: list, result: Pass) -> Server:
    """Store build plus server start; the caller timed input generation."""
    path = _build_store(ctx, readings_by_meter, ctx.work / "store")
    server = Server(launcher, path.parent)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    result.ndjson = path
    return server


def stream_year(ctx: Context) -> Pass:
    result = Pass()
    launcher = ctx.launcher()
    year_slots = ctx.size["year_days"] * 96
    extra_days = math.ceil(ctx.seconds * inputs.READING_RATE / len(inputs.PERSONAS) / 96) + 1
    server = None
    try:
        for _ in range(ctx.setups):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            meters = [_simulate(ctx, pid, ctx.size["year_days"] + extra_days) for pid in inputs.PERSONAS]
            server = _start_server(ctx, launcher, [m.readings[: year_slots + 1] for m in meters], result)
            result.setup_s.append(time.perf_counter() - t0)

        continuations = {m.meter_id: m.readings[year_slots + 1:] for m in meters}
        schedule = inputs.stream_schedule(continuations, ctx.seconds, ctx.seed)
        newest = {m.meter_id: m.readings[year_slots].timestamp.timestamp() for m in meters}
        t_start = time.perf_counter()
        samples = run_open_loop(server.port, schedule, newest, ctx.rec)
        result.timed_s = time.perf_counter() - t_start
        result.peak_rss_mb = server.peak_rss_mb()
        result.samples = samples
        result.latencies_s = [s.latency_s for s in samples if s.route == "readings"]
        _stream_checks(result, server, meters, year_slots, samples)
    finally:
        if server is not None:
            server.stop()
    return result


def _stream_checks(result: Pass, server: Server, meters, year_slots: int, samples) -> None:
    sent = {"unique": 0, "duplicate": 0, "late": 0}
    totals = {"readings_accepted": 0, "duplicates_dropped": 0, "out_of_order": 0, "rollovers_detected": 0}
    streamed = []
    for sample in samples:
        result.attempted += 1
        if sample.status != 200:
            result.fail("{} {}: HTTP {}".format(sample.route, sample.rid, sample.status))
            continue
        if sample.route == "readings":
            sent[sample.meta["tag"]] += 1
            for key, value in json.loads(sample.body).items():
                totals[key] += value
            streamed.append(sample.meta["reading"])
        elif len(json.loads(sample.body)) != 96:
            result.fail("power {}: expected 96 samples for 24 h".format(sample.rid))

    expected = {
        "readings_accepted": sent["unique"] + sent["late"],
        "duplicates_dropped": sent["duplicate"],
        "out_of_order": sent["late"],
        "rollovers_detected": 0,
    }
    result.check([] if totals == expected else ["store stats {} != generator counts {}".format(totals, expected)])

    # Ingestion is order-independent, so one batch rebuilds the server's state.
    mirror = TelemetryStore()
    for m in meters:
        mirror.ingest(m.readings[: year_slots + 1])
    mirror.ingest(streamed)

    conn = Connection(server.port)
    try:
        for m in meters:
            start = m.readings[year_slots].timestamp
            end = max(r.timestamp for r in mirror.readings(m.meter_id, m.readings[0].register))
            sample = conn.timed("GET", power_path(m.meter_id, start.timestamp(), end.timestamp()),
                                "chk-power-" + m.meter_id, "power")
            want = checks.power_body(mirror, m.meter_id, start, end)
            result.check([] if sample.status == 200 and sample.body == want
                         else ["{}: /power over the streamed span differs from the library".format(m.meter_id)])
            result.check(checks.energy_problems(sample.body, mirror, m.meter_id, start, end)
                         if sample.status == 200 else ["{}: HTTP {}".format(m.meter_id, sample.status)])
        hit = total = 0
        for m in meters:
            if not m.scripted_days:
                continue
            sample = conn.timed("GET", anomalies_path(m.meter_id), "chk-anomalies-" + m.meter_id, "anomalies")
            result.check_samples.append(sample)
            want = checks.anomalies_body(mirror, m.meter_id)
            result.check([] if sample.status == 200 and sample.body == want
                         else ["{}: /anomalies differs from analyze_meter".format(m.meter_id)])
            if sample.status == 200:
                hit += checks.flagged_scripted(json.loads(sample.body), m.scripted_days)
            total += len(m.scripted_days)
        result.recall = (hit, total)
    finally:
        conn.close()


RUNNERS = {"analyze-year": analyze_year, "stream-year": stream_year}

