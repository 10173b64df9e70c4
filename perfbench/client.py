"""HTTP client side: persistent connections and the open-loop generator.

The load generator is one process with at most two threads, each owning
one persistent HTTP/1.1 connection, so that on a two-CPU host one CPU is
left to the server under test.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

from meterwatch.protocol import POSITIVE_ACTIVE_ENERGY, extract_energy, parse_readout
from meterwatch.store import rfc3339

# Each meter's lane (connection) in the open loop, so that its readings
# arrive in send order.
LANES = {"S1": 0, "S3": 0, "S2": 1, "S4": 1}


@dataclass
class Sample:
    """One request as the client saw it."""

    rid: str
    route: str  # "readings", "power" or "anomalies"
    status: int
    body: bytes
    latency_s: float  # from due time (open loop) or send time (closed loop)
    service_s: float  # send to last response byte
    lag_s: float = 0.0  # how late the generator sent it
    meta: dict = field(default_factory=dict)
    sent_at: float = 0.0  # perf_counter() at send, a clock shared with the server's spans
    done_at: float = 0.0  # perf_counter() at the last response byte


class Connection:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, rid: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/x-ndjson"
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def timed(self, method: str, path: str, rid: str, route: str, body: bytes | None = None) -> Sample:
        t0 = time.perf_counter()
        try:
            status, payload = self.request(method, path, rid, body)
        except (OSError, http.client.HTTPException) as exc:
            # Counted as a failed request; the next request reconnects.
            status, payload = 0, str(exc).encode()
            self.close()
        t1 = time.perf_counter()
        return Sample(rid, route, status, payload, t1 - t0, t1 - t0, sent_at=t0, done_at=t1)

    def close(self) -> None:
        self._conn.close()


def _rfc3339(epoch: float) -> str:
    return rfc3339(datetime.fromtimestamp(epoch, tz=timezone.utc))


def power_path(meter_id: str, start: float, end: float) -> str:
    return "/v1/meters/{}/power?from={}&to={}".format(meter_id, _rfc3339(start), _rfc3339(end))


def anomalies_path(meter_id: str) -> str:
    return "/v1/meters/{}/anomalies".format(meter_id)


def reading_record(meter_id: str, timestamp, value_kwh) -> bytes:
    record = {
        "meter_id": meter_id,
        "obis": str(POSITIVE_ACTIVE_ENERGY),
        "timestamp": rfc3339(timestamp),
        "value_kwh": str(value_kwh),
    }
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def decode_frame(frame: bytes):
    """What the reader does with each optical readout before posting it."""
    return extract_energy(parse_readout(frame), POSITIVE_ACTIVE_ENERGY)


def run_open_loop(port: int, items, newest: dict[str, float], recorder):
    """Send every scheduled item at its due time on its meter's lane.

    ``newest`` holds each meter's newest
    acknowledged reading time (epoch seconds) for the dashboard's 24 h
    window.  Returns the samples of both lanes.
    """
    per_lane: list[list] = [[], []]
    for item in items:
        per_lane[LANES[item.meter_id]].append(item)
    results: list[list[Sample]] = [[], []]
    t_start = time.perf_counter() + 0.05

    def lane(index: int) -> None:
        conn = Connection(port)
        try:
            for n, item in enumerate(per_lane[index]):
                due = t_start + item.due
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                sent = time.perf_counter()
                rid = "t-{}-{}".format(index, n)
                if item.kind == "reading":
                    with recorder.span("protocol.decode", rid=rid):
                        value = decode_frame(item.frame)
                    body = reading_record(item.meter_id, item.reading.timestamp, value)
                    sample = conn.timed("POST", "/v1/readings", rid, "readings", body)
                    sample.meta = {"tag": item.tag, "reading": item.reading}
                    if sample.status == 200:
                        ts = item.reading.timestamp.timestamp()
                        newest[item.meter_id] = max(newest[item.meter_id], ts)
                else:
                    end = newest[item.meter_id]
                    path = power_path(item.meter_id, end - 24 * 3600, end)
                    sample = conn.timed("GET", path, rid, "power")
                done = time.perf_counter()
                sample.lag_s = sent - due
                sample.latency_s = done - due
                results[index].append(sample)
        finally:
            conn.close()

    errors: list[BaseException] = []

    def worker_lane() -> None:
        try:
            lane(1)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    worker = threading.Thread(target=worker_lane)
    worker.start()
    try:
        lane(0)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return results[0] + results[1]
