"""Thin HTTP adapter over the telemetry store and analysis pipeline.

Endpoints:

* ``POST /v1/readings`` - newline-delimited JSON reading records, read
  by ``store.read_readings_ndjson`` as the store's log is; responds with
  the ingestion stats delta (500, with nothing committed, when the log
  append fails).
* ``GET /v1/meters/{id}/power?from=...&to=...`` - 15-minute mean-power
  samples (RFC 3339 bounds; defaults to the meter's full span; at most
  ``store.MAX_GRID_SLOTS`` slots, else 400).
* ``GET /v1/meters/{id}/anomalies?k=&seed=&restarts=&min_completeness=`` -
  the current anomaly report, recomputed on demand with the same defaults
  the CLI uses (409 when the meter's span exceeds ``store.MAX_GRID_SLOTS``).

A meter ``{id}`` is percent-decoded (UTF-8); a query key that the
endpoint does not read is a 400.  All logic lives in the library;
handlers only translate HTTP.  An ``Authorization`` header is accepted
and ignored (pass-through stub).
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from .pipeline import AnalysisConfig, InsufficientDataError, analyze_meter, canonical_json
from .protocol import POSITIVE_ACTIVE_ENERGY
from .store import (
    QUALITIES,
    ConflictingDuplicate,
    NonMonotonicRegister,
    ReadingsFormatError,
    SpanTooLong,
    TelemetryStore,
    parse_rfc3339,
    read_readings_ndjson,
    utc_stamps,
)

# Largest accepted POST body: about ten meter-years of NDJSON records.
MAX_BODY_BYTES = 32 * 2**20
# Seconds one socket read or write may wait before the connection is
# closed: an idle keep-alive connection, or a request that stalls.
IDLE_TIMEOUT_S = 60
# Each GET endpoint's path, the query keys it reads (any other is a 400)
# and its handler's name.
_ROUTES = (
    (re.compile(r"^/v1/meters/([^/]+)/power$"), ("from", "to"), "_handle_power"),
    (re.compile(r"^/v1/meters/([^/]+)/anomalies$"), ("k", "seed", "restarts", "min_completeness"), "_handle_anomalies"),
)


class MeterServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # One write per response, sent at once: two small writes wait on a keep-alive client's delayed ACK.
    wbufsize = 2**16
    disable_nagle_algorithm = True

    @property
    def store(self) -> TelemetryStore:
        return self.server.store  # type: ignore[attr-defined]

    @property
    def config(self) -> AnalysisConfig:
        return self.server.config  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(self, status: int, payload: str | bytes) -> None:
        body = payload.encode("utf-8") if isinstance(payload, str) else payload
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send(status, canonical_json({"error": message}))

    def do_POST(self) -> None:
        if urlparse(self.path).path != "/v1/readings":
            self._send_error(404, "unknown endpoint")
            return
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True  # the body's end is unknown
            self._send_error(411, "send the body with a Content-Length")
            return
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():
            self.close_connection = True  # the body's end is unknown
            self._send_error(400, "bad Content-Length")
            return
        if int(length) > MAX_BODY_BYTES:
            self.close_connection = True  # the body is left unread
            self._send_error(413, "body over {} bytes".format(MAX_BODY_BYTES))
            return
        try:
            readings = read_readings_ndjson((self.rfile.read(int(length)),))
        except ReadingsFormatError as exc:
            self._send_error(400, "bad reading record: {}".format(exc))
            return
        try:
            delta = self.store.ingest(readings)
        except (ConflictingDuplicate, NonMonotonicRegister) as exc:
            self._send_error(409, str(exc))
            return
        except OSError as exc:  # the log append failed: nothing was committed
            self._send_error(500, "store log append failed: {}".format(exc))
            return
        self._send(200, canonical_json(delta.to_json_dict()))

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        # A blank value (``?k=``) is kept, so it is refused as any bad value is.
        query = {k: v[-1] for k, v in parse_qs(parsed.query, keep_blank_values=True).items()}
        for path_re, keys, handler in _ROUTES:
            m = path_re.match(parsed.path)
            if m:
                unknown = [key for key in query if key not in keys]
                if unknown:
                    self._send_error(400, "unknown query key(s) {}; the keys are {}".format(
                        ", ".join(map(repr, unknown)), ", ".join(keys)))
                else:
                    getattr(self, handler)(unquote(m.group(1)), query)
                return
        self._send_error(404, "unknown endpoint")

    def _require_meter(self, meter_id: str) -> bool:
        if meter_id not in self.store.meters():
            self._send_error(404, "unknown meter {!r}".format(meter_id))
            return False
        return True

    def _handle_power(self, meter_id: str, query: dict[str, str]) -> None:
        if not self._require_meter(meter_id):
            return
        span = self.store.span(meter_id, POSITIVE_ACTIVE_ENERGY)
        if span is None and not {"from", "to"} <= query.keys():
            self._send_error(409, "meter {!r} has no {} readings".format(meter_id, POSITIVE_ACTIVE_ENERGY))
            return
        try:
            start = parse_rfc3339(query["from"]) if "from" in query else span[0]
            end = parse_rfc3339(query["to"]) if "to" in query else span[1]
        except ValueError as exc:
            self._send_error(400, str(exc))
            return
        try:
            series = self.store.mean_power_series(meter_id, POSITIVE_ACTIVE_ENERGY, start, end)
        except SpanTooLong as exc:
            self._send_error(400, str(exc))
            return
        # The samples as canonical_json writes them: a template per quality code; NaN (missing) watts are null.
        head = '{"mean_power_w":%b,"meter_id":' + json.dumps(meter_id).replace("%", "%%") + ',"quality":"'
        lines = [(head + quality + '","slot_start":"%bZ"}').encode("ascii") for quality in QUALITIES]
        watts = json.dumps(series.watts.tolist()).replace("NaN", "null").encode("ascii")[1:-1].split(b", ")
        samples = map(lines.__getitem__, series.codes.tolist())
        self._send(200, b"[" + b",".join(map(bytes.__mod__, samples, zip(watts, utc_stamps(series.starts_us)))) + b"]")

    def _handle_anomalies(self, meter_id: str, query: dict[str, str]) -> None:
        if not self._require_meter(meter_id):
            return
        try:
            config = self.config.with_overrides(**query)
        except ValueError as exc:
            self._send_error(400, str(exc))
            return
        try:
            analysis = analyze_meter(self.store, meter_id, config)
        except (InsufficientDataError, SpanTooLong) as exc:
            self._send_error(409, str(exc))
            return
        self._send(200, canonical_json(analysis.report.to_json_dict()))


def make_server(
    store: TelemetryStore,
    config: AnalysisConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 8720,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Bind the service; raises OSError when the port is taken."""
    server = ThreadingHTTPServer((host, port), MeterServiceHandler)
    server.store = store  # type: ignore[attr-defined]
    server.config = config or AnalysisConfig()  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def run_server(server: ThreadingHTTPServer) -> None:
    """Serve until SIGINT/SIGTERM, then shut down cleanly."""
    def _handle(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _handle)
    signal.signal(signal.SIGTERM, _handle)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
