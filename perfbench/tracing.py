"""Span recording for the traced run, kept in memory and written out at exit.

A span has a name, a start and an end (``time.perf_counter`` seconds of
its process), the id of the span that was open around it on the same
thread, and the operation (request) id it belongs to.  Wrappers are
installed from outside the library: around ``TelemetryStore`` methods, the
names ``meterwatch.pipeline`` and ``meterwatch.clustering`` call, the CLI's
chart and CSV calls, and a handler subclass for the HTTP service.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext


class Recorder:
    def __init__(self, op: str):
        self.spans: list[dict] = []
        self.default_op = op
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: str | None) -> None:
        self._local.op = op

    def current_op(self) -> str:
        return getattr(self._local, "op", None) or self.default_op

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else 0,
            "op": self.current_op(),
            "attrs": attrs,
            "t0": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["t1"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def dump(self, path: str) -> None:
        pid = os.getpid()
        with open(path, "a", encoding="utf-8") as fh:
            for record in self.spans:
                record["pid"] = pid
                fh.write(json.dumps(record, default=str) + "\n")


class NullRecorder:
    """Stands in for a recorder in untraced runs."""

    def span(self, name: str, **attrs):
        return nullcontext({"attrs": {}})


def load_spans(path) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except FileNotFoundError:
        return []


# -- wrappers installed in the traced child process -----------------------------


def _wrap(rec: Recorder, owner, attr: str, name: str, annotate=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as record:
            result = fn(*args, **kwargs)
            if annotate is not None:
                record["attrs"].update(annotate(args, result))
            return result

    setattr(owner, attr, wrapper)


def _count_lloyd(rec: Recorder, clustering) -> None:
    fn = clustering._lloyd

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        stack = rec._stack()
        if stack:
            attrs = stack[-1]["attrs"]
            attrs["lloyd_iterations"] = attrs.get("lloyd_iterations", 0) + result[3]
        return result

    clustering._lloyd = wrapper


def install(rec: Recorder) -> None:
    """Wrap the library's layer entry points; call before `meterwatch.cli.main`."""
    from meterwatch import cli, clustering, pipeline, service, store

    def stats(args, result):
        return {
            "batch": len(args[1]) if isinstance(args[1], (list, tuple)) else -1,
            "accepted": result.readings_accepted,
            "duplicates": result.duplicates_dropped,
            "out_of_order": result.out_of_order,
        }

    _wrap(rec, store.TelemetryStore, "ingest", "store.ingest", stats)
    _wrap(rec, store.TelemetryStore, "_replay", "store.replay")
    _wrap(rec, store.TelemetryStore, "mean_power_series", "store.power", lambda a, r: {"slots": len(r)})
    _wrap(rec, cli, "read_readings_csv", "store.csv_read")
    _wrap(
        rec,
        pipeline,
        "build_daily_profiles",
        "profiles.build",
        lambda a, r: {"kept": len(r[0]), "excluded": len(r[1])},
    )
    _wrap(rec, pipeline, "select_k", "clustering.select_k")
    _wrap(rec, pipeline, "kmeans_fit", "clustering.fit")
    _wrap(rec, clustering, "kmeans_fit", "clustering.scan_fit")
    _wrap(rec, clustering, "_single_move_polish", "clustering.polish")
    _count_lloyd(rec, clustering)
    _wrap(rec, pipeline, "mean_cluster_profiles", "clustering.summary")
    _wrap(rec, pipeline, "anomaly_scores", "anomaly.score", lambda a, r: {"flagged": len(r.flagged)})
    for module in (pipeline, cli, service):
        _wrap(rec, module, "analyze_meter", "pipeline.analyze")
    svg = lambda a, r: {"bytes": len(r.encode("utf-8"))}  # noqa: E731
    for chart in ("cluster_chart", "anomaly_chart", "user_means_chart"):
        _wrap(rec, cli, chart, "charts.render", svg)

    base = service.MeterServiceHandler

    class TracedHandler(base):
        def send_response(self, code, message=None):
            self._bench_status = code
            super().send_response(code, message)

        def _traced(self, handle) -> None:
            route = self.path.split("?")[0].rstrip("/").rsplit("/", 1)[-1]
            rec.set_op(self.headers.get("X-Request-Id", ""))
            try:
                with rec.span("service." + route) as record:
                    handle()
                record["attrs"]["status"] = getattr(self, "_bench_status", 0)
            finally:
                rec.set_op(None)

        def do_GET(self):
            self._traced(super().do_GET)

        def do_POST(self):
            self._traced(super().do_POST)

    service.MeterServiceHandler = TracedHandler
