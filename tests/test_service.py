from __future__ import annotations

import http.client
import itertools
import json
import shutil
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import replace
from datetime import date, timedelta
from zoneinfo import ZoneInfo

import pytest

from conftest import START
from meterwatch.personas import build_persona
from meterwatch.pipeline import AnalysisConfig, analyze_meter, canonical_json
from meterwatch.protocol import POSITIVE_ACTIVE_ENERGY
from meterwatch.service import IDLE_TIMEOUT_S, MAX_BODY_BYTES, MeterServiceHandler, make_server
from meterwatch.simulator import simulate_period
from meterwatch.store import StoreLogError, TelemetryStore, parse_rfc3339
from oracles import RECORD_ERRORS, post_readings, power_body, reading_to_record, snapshot


@pytest.fixture()
def server():
    store = TelemetryStore()
    srv = make_server(store, AnalysisConfig(), port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    base = "http://127.0.0.1:{}".format(srv.server_address[1])
    yield base, store
    srv.shutdown()
    srv.server_close()


def post(base, path, body: bytes):
    request = urllib.request.Request(base + path, data=body, method="POST")
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read().decode())


def get(base, path):
    with urllib.request.urlopen(base + path) as response:
        return response.status, json.loads(response.read().decode())


def ndjson(readings) -> bytes:
    return "\n".join(json.dumps(reading_to_record(r)) for r in readings).encode()


def sim_readings(days=10, seed=6, persona="S4"):
    """The simulated readings as a tuple of ``MeterReading``s, which tests concatenate with ``+``."""
    return tuple(simulate_period(build_persona(persona), START, days, seed=seed).readings)


def test_post_readings_reports_the_stats_delta(server):
    base, _ = server
    readings = sim_readings(days=2)
    status, body = post(base, "/v1/readings", ndjson(readings))
    assert status == 200
    assert body["readings_accepted"] == len(readings)
    status, body = post(base, "/v1/readings", ndjson(readings))
    assert body["duplicates_dropped"] == len(readings)
    assert body["readings_accepted"] == 0


def test_power_endpoint_matches_the_library(server):
    base, store = server
    readings = sim_readings(days=2)
    odd_meter = '%s "\u00e9\\ %b'  # JSON escapes it, and a %-template would read it
    post(base, "/v1/readings", ndjson(readings + tuple(replace(r, meter_id=odd_meter) for r in readings)))
    windows = [
        ("2024-06-02T22:00:00Z", "2024-06-03T00:00:00Z"),
        ("2024-06-02T20:00:00Z", "2024-06-02T23:00:00Z"),  # starts two hours before the first reading
        ("9999-12-31T23:00:00Z", "9999-12-31T23:59:59Z"),  # the last slot boundaries a datetime holds
        ("0001-01-01T00:00:00Z", "0001-01-01T00:30:00Z"),
    ]
    for (start, end), meter in itertools.product(windows, ("S4", odd_meter)):
        path = "/v1/meters/{}/power?from={}&to={}".format(urllib.parse.quote(meter, safe=""), start, end)
        with urllib.request.urlopen(base + path) as response:
            assert response.status == 200
            raw = response.read()
        assert raw == power_body(store, meter, parse_rfc3339(start), parse_rfc3339(end))
        body = json.loads(raw)
        samples = store.mean_power_series(meter, POSITIVE_ACTIVE_ENERGY, parse_rfc3339(start), parse_rfc3339(end))
        assert [parse_rfc3339(s["slot_start"]) for s in body] == [s.slot_start for s in samples]
        assert [s["mean_power_w"] for s in body] == [s.mean_power_w for s in samples]
        assert [s["quality"] for s in body] == [s.quality for s in samples]
        if start.startswith("2024-06-02T22"):
            assert len(body) == 8
            assert all(s["quality"] == "measured" for s in body)
        elif start.startswith("2024"):
            assert [s["quality"] for s in body] == ["missing"] * 8 + ["measured"] * 4
            assert [s["mean_power_w"] for s in body][:8] == [None] * 8
        else:
            assert len(body) in (2, 3)
            assert all(s["quality"] == "missing" for s in body)


@pytest.mark.parametrize(
    "query",
    ["?from=1970-01-01T00:00:00Z&to=9999-12-31T23:59:59Z", ""],
    ids=["explicit-range", "default-span"],
)
def test_power_range_over_ten_years_is_400(server, query):
    base, _ = server
    records = [
        {"meter_id": "X", "timestamp": "2014-01-01T00:00:00Z", "obis": "1.8.0", "value_kwh": "1.000"},
        {"meter_id": "X", "timestamp": "2024-01-03T00:00:00Z", "obis": "1.8.0", "value_kwh": "9.000"},
    ]
    post(base, "/v1/readings", "\n".join(json.dumps(r) for r in records).encode())
    with pytest.raises(urllib.error.HTTPError) as err:
        get(base, "/v1/meters/X/power" + query)
    assert err.value.code == 400
    assert "slots" in json.loads(err.value.read().decode())["error"]


def test_anomalies_over_ten_years_is_409(server):
    base, _ = server
    records = [
        {"meter_id": "X", "timestamp": "0001-01-01T00:00:00Z", "obis": "1.8.0", "value_kwh": "1.000"},
        {"meter_id": "X", "timestamp": "9999-12-31T00:00:00Z", "obis": "1.8.0", "value_kwh": "9.000"},
    ]
    post(base, "/v1/readings", "\n".join(json.dumps(r) for r in records).encode())
    for path, status in (("/v1/meters/X/anomalies", 409), ("/v1/meters/X/power", 400)):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base, path)
        assert err.value.code == status
        assert "slots" in json.loads(err.value.read().decode())["error"]


def test_anomalies_endpoint_equals_direct_analysis(server):
    base, store = server
    readings = sim_readings(days=12)
    post(base, "/v1/readings", ndjson(readings))
    status, body = get(base, "/v1/meters/S4/anomalies")
    assert status == 200
    direct = analyze_meter(store, "S4", AnalysisConfig())
    assert canonical_json(body) == canonical_json(direct.report.to_json_dict())


def test_anomalies_with_no_completeness_floor_skip_a_day_without_samples(server):
    base, store = server
    gap_day = START + timedelta(days=6)
    warsaw = ZoneInfo("Europe/Warsaw")
    readings = [r for r in sim_readings(days=12, persona="S1") if r.timestamp.astimezone(warsaw).date() != gap_day]
    post(base, "/v1/readings", ndjson(readings))
    status, body = get(base, "/v1/meters/S1/anomalies?min_completeness=0")
    assert status == 200
    assert gap_day.isoformat() not in body["scores"] and len(body["scores"]) == 11
    direct = analyze_meter(store, "S1", AnalysisConfig(min_completeness=0.0))
    assert canonical_json(body) == canonical_json(direct.report.to_json_dict())


def test_anomalies_for_the_last_days_of_the_calendar(server):
    base, store = server
    readings = simulate_period(build_persona("S1"), date(9999, 12, 20), 12, seed=1).readings
    last = readings[-1]  # 9999-12-31T23:00:00Z, local midnight in Warsaw
    # Local times in the year 10000: their samples are dropped.
    late = [replace(last, timestamp=last.timestamp + timedelta(minutes=15 * i)) for i in (1, 2, 3)]
    post(base, "/v1/readings", ndjson([*readings, *late]))
    status, body = get(base, "/v1/meters/S1/anomalies")
    assert status == 200
    assert body == json.loads(canonical_json(analyze_meter(store, "S1", AnalysisConfig()).report.to_json_dict()))
    assert len(body["scores"]) == 11 and "9999-12-31" not in body["scores"]


def test_unknown_meter_is_404(server):
    base, _ = server
    for path in ("/v1/meters/NOPE/power", "/v1/meters/NOPE/anomalies"):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base, path)
        assert err.value.code == 404


@pytest.mark.parametrize("meter", ["M 1", "Z\u00e4hler 1", "M/1"])
def test_meter_ids_in_paths_are_percent_decoded(server, meter):
    base, _ = server
    body = b"\n".join(record(index, meter) for index in range(1, 4))
    assert post(base, "/v1/readings", body)[1]["readings_accepted"] == 3
    path = "/v1/meters/{}/".format(urllib.parse.quote(meter, safe=""))
    status, samples = get(base, path + "power")
    assert status == 200 and {s["meter_id"] for s in samples} == {meter} and len(samples) == 8
    with pytest.raises(urllib.error.HTTPError) as err:
        get(base, path + "anomalies")
    assert err.value.code == 409  # known, with too few days


def test_too_few_profiles_is_409(server):
    base, _ = server
    post(base, "/v1/readings", ndjson(sim_readings(days=2)))
    with pytest.raises(urllib.error.HTTPError) as err:
        get(base, "/v1/meters/S4/anomalies")
    assert err.value.code == 409
    detail = json.loads(err.value.read().decode())
    assert "profile" in detail["error"]


def test_conflicting_ingest_is_409(server):
    base, _ = server
    readings = sim_readings(days=1)
    post(base, "/v1/readings", ndjson(readings))
    conflicting = dict(reading_to_record(readings[0]))
    conflicting["value_kwh"] = "999.999"
    with pytest.raises(urllib.error.HTTPError) as err:
        post(base, "/v1/readings", json.dumps(conflicting).encode())
    assert err.value.code == 409


def test_malformed_record_is_400(server):
    base, _ = server
    with pytest.raises(urllib.error.HTTPError) as err:
        post(base, "/v1/readings", b'{"meter_id": "X"}')
    assert err.value.code == 400


@pytest.mark.parametrize(
    "body, headers",
    [
        (b"[1,2]", {}),
        (b"\xff\xfe not utf-8", {}),
        (b"", {"Content-Length": "abc"}),
        (b"", {"Content-Length": "-1"}),
        (b'{"meter_id": "X", "timestamp": "2024-06-03T00:00:00Z", "obis": "1.8.0", "value_kwh": "abc"}', {}),
        (b'{"meter_id": "X", "timestamp": "2024-06-03T00:00:00Z", "obis": "1.8.0", "value_kwh": "Infinity"}', {}),
        (b'{"meter_id": "X", "timestamp": "2024-06-03T00:00:00Z", "obis": "1.8.0", "value_kwh": "1.0005"}', {}),
        (b'{"meter_id": "X", "timestamp": "2024-06-03T00:00:00Z", "obis": "1.8.0", "value_kwh": "1e-999999999999"}', {}),
        (b"[" * 100000, {}),
    ],
    ids=[
        "not-an-object",
        "not-utf8",
        "length-not-an-integer",
        "negative-length",
        "value-not-a-number",
        "value-infinite",
        "value-finer-than-a-wh",
        "value-below-the-exponent-range",
        "nested-too-deep",
    ],
)
def test_unreadable_post_body_is_400_json(server, body, headers):
    base, _ = server
    address = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
    try:
        conn.request("POST", "/v1/readings", body=body, headers=headers)
        response = conn.getresponse()
        assert response.status == 400
        assert "error" in json.loads(response.read().decode())
    finally:
        conn.close()


def test_back_to_back_keep_alive_requests_are_not_held_back(server):
    """A response split over two small writes waits for the client's delayed ACK, about 40 ms a request."""
    base, _ = server
    post(base, "/v1/readings", ndjson(sim_readings(days=1)))
    address = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
    try:
        started = time.perf_counter()
        for _ in range(10):
            conn.request("GET", "/v1/meters/S4/power")
            response = conn.getresponse()
            assert response.status == 200 and len(json.loads(response.read())) == 96
        assert time.perf_counter() - started < 0.2
    finally:
        conn.close()


def test_sub_second_timestamp_is_400_and_the_store_reopens(tmp_path):
    # Log lines keep whole seconds, so .2 and .7 would share one key on reopening.
    path = tmp_path / "readings.ndjson"
    srv = make_server(TelemetryStore(path), AnalysisConfig(), port=0)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    base = "http://127.0.0.1:{}".format(srv.server_address[1])
    record = {"meter_id": "M1", "obis": "1.8.0", "value_kwh": "1.000"}
    try:
        for timestamp, value in (("2024-06-03T12:00:00.2Z", "1.000"), ("2024-06-03T12:00:00.7Z", "2.000")):
            with pytest.raises(urllib.error.HTTPError) as err:
                post(base, "/v1/readings", json.dumps(dict(record, timestamp=timestamp, value_kwh=value)).encode())
            assert err.value.code == 400
            assert "not a whole second" in json.loads(err.value.read().decode())["error"]
        status, body = post(base, "/v1/readings", json.dumps(dict(record, timestamp="2024-06-03T12:00:00.000Z")).encode())
        assert status == 200 and body["readings_accepted"] == 1
    finally:
        srv.shutdown()
        srv.server_close()
    [reading] = TelemetryStore(path).readings("M1", POSITIVE_ACTIVE_ENERGY)
    assert reading.timestamp == parse_rfc3339("2024-06-03T12:00:00Z")


def test_failed_log_append_is_500_and_commits_nothing(tmp_path):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    store = TelemetryStore(store_dir / "readings.ndjson")
    srv = make_server(store, AnalysisConfig(), port=0)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    conn = http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=10)
    body = ndjson(sim_readings(days=1))
    try:
        shutil.rmtree(store_dir)
        conn.request("POST", "/v1/readings", body=body)
        response = conn.getresponse()
        assert response.status == 500
        assert "store log append failed" in json.loads(response.read().decode())["error"]
        assert store.meters() == [] and store.stats.readings_accepted == 0
        store_dir.mkdir()
        conn.request("POST", "/v1/readings", body=body)  # the same connection
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read().decode())["readings_accepted"] == 97
    finally:
        conn.close()
        srv.shutdown()
        srv.server_close()
    assert snapshot(TelemetryStore(store_dir / "readings.ndjson")) == snapshot(store)


def test_chunked_post_is_411_and_closes(server):
    base, store = server
    address = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
    try:
        # A generator body makes http.client send Transfer-Encoding: chunked.
        # The server may answer and close before the body is written; the
        # answer can still be read.
        try:
            conn.request("POST", "/v1/readings", body=(chunk for chunk in [ndjson(sim_readings(days=1))]))
        except (BrokenPipeError, ConnectionResetError):
            pass
        response = conn.getresponse()
        assert response.status == 411
        assert response.getheader("Connection") == "close"
        assert "error" in json.loads(response.read().decode())
    finally:
        conn.close()
    assert store.meters() == []


def test_oversized_post_is_413_and_closes(server):
    base, store = server
    address = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
    try:
        # Declares a body far over the cap and sends none of it: the answer
        # must come without the server waiting for the body.
        conn.putrequest("POST", "/v1/readings")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        assert "error" in json.loads(response.read().decode())
    finally:
        conn.close()
    assert store.meters() == []


def test_power_for_a_meter_without_the_register_is_409(server):
    base, _ = server
    record = {"meter_id": "X", "timestamp": "2024-06-03T00:00:00Z", "obis": "2.8.0", "value_kwh": "1.000"}
    post(base, "/v1/readings", json.dumps(record).encode())
    for query in ("", "?from=2024-06-03T00:00:00Z", "?to=2024-06-03T01:00:00Z"):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base, "/v1/meters/X/power" + query)
        assert err.value.code == 409
        assert "error" in json.loads(err.value.read().decode())
    status, body = get(base, "/v1/meters/X/power?from=2024-06-03T00:00:00Z&to=2024-06-03T00:30:00Z")
    assert status == 200
    assert [s["quality"] for s in body] == ["missing", "missing"]


def test_unknown_endpoint_is_404(server):
    base, _ = server
    with pytest.raises(urllib.error.HTTPError) as err:
        get(base, "/v1/nothing")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        post(base, "/v1/nothing", b"")
    assert err.value.code == 404


def test_anomalies_endpoint_accepts_overrides(server):
    base, _ = server
    post(base, "/v1/readings", ndjson(sim_readings(days=12)))
    status, body_k2 = get(base, "/v1/meters/S4/anomalies?k=2&seed=9")
    assert status == 200
    assert body_k2["k"] == 2
    with pytest.raises(urllib.error.HTTPError) as err:
        get(base, "/v1/meters/S4/anomalies?k=nope")
    assert err.value.code == 400


@pytest.mark.parametrize(
    "query",
    ["restarts=0", "restarts=1000000", "min_completeness=2", "min_completeness=-0.1", "min_completeness=nan", "k=nope"],
)
def test_anomalies_out_of_range_setting_is_400(server, query):
    base, _ = server
    post(base, "/v1/readings", ndjson(sim_readings(days=2)))
    with pytest.raises(urllib.error.HTTPError) as err:
        get(base, "/v1/meters/S4/anomalies?" + query)
    assert err.value.code == 400
    key = query.split("=")[0]
    assert json.loads(err.value.read().decode())["error"].startswith(key + " must")


@pytest.mark.parametrize(
    "path, unknown",
    [("anomalies?foo=1", "foo"), ("anomalies?k=2&K=3", "K"), ("power?k=2", "k"), ("power?from=", None),
     ("anomalies?k=", None), ("anomalies?seed", None)],
    ids=["unknown-key", "key-of-another-case", "key-of-another-endpoint", "blank-from", "blank-k", "bare-seed"],
)
def test_unknown_or_blank_query_key_is_400(server, path, unknown):
    """Each endpoint reads only its own query keys, and a blank value is
    refused as any bad value is, not read as the default."""
    base, _ = server
    post(base, "/v1/readings", ndjson(sim_readings(days=2)))
    with pytest.raises(urllib.error.HTTPError) as err:
        get(base, "/v1/meters/S4/" + path)
    assert err.value.code == 400
    error = json.loads(err.value.read().decode())["error"]
    assert unknown is None or "unknown query key(s) {!r}".format(unknown) in error


def test_busy_port_raises_at_startup():
    store = TelemetryStore()
    first = make_server(store, AnalysisConfig(), port=0)
    try:
        with pytest.raises(OSError):
            make_server(store, AnalysisConfig(), port=first.server_address[1])
    finally:
        first.server_close()


def record(index: int, meter: str = "M1") -> bytes:
    """One reading record as UTF-8 JSON, any line break in ``meter`` kept raw."""
    fields = {"meter_id": meter, "obis": "1.8.0", "value_kwh": "{}.000".format(index)}
    fields["timestamp"] = "2024-06-03T{:02d}:00:00Z".format(index)
    return json.dumps(fields, ensure_ascii=False).encode("utf-8")


def post_status(base, body: bytes) -> tuple[int, dict]:
    try:
        return post(base, "/v1/readings", body)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


@pytest.mark.parametrize("line_break", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
def test_raw_line_break_inside_a_string_is_accepted_as_replay_reads_it(server, tmp_path, line_break):
    # Only b"\n" ends a record, in a POST body as in the store's log.
    base, store = server
    body = record(1, "M" + line_break + "1") + b"\n" + record(2, "M" + line_break + "1")
    assert post_status(base, body) == (200, {"duplicates_dropped": 0, "out_of_order": 0,
                                             "readings_accepted": 2, "rollovers_detected": 0})
    log = tmp_path / "readings.ndjson"
    log.write_bytes(body + b"\n")
    assert snapshot(store) == snapshot(TelemetryStore(log))
    assert store.meters() == ["M" + line_break + "1"]


@pytest.mark.parametrize(
    "separator",
    ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=["CR", "VT", "FF", "FS", "GS", "RS", "NEL", "U+2028", "U+2029"],
)
def test_records_split_by_another_line_break_are_400(server, separator):
    base, store = server
    status, body = post_status(base, record(1) + separator.encode("utf-8") + record(2))
    assert status == 400
    assert body["error"].startswith("bad reading record: line 1: ")
    assert store.meters() == []


@pytest.mark.parametrize(
    "bad, line_number",
    [
        (b'{"meter_id": "M1"}', 3),
        (b"[1, 2]", 3),
        (record(3).replace(b"3.000", b"abc"), 3),
        (record(3).replace(b"3.000", b"3.0005"), 3),
        (record(3).replace(b":00:00Z", b":00:00.5Z"), 3),
        (record(3).replace(b"3.000", b"NaN"), 3),
        (record(3).replace(b'"1.8.0"', b'"1.8.0\\n"'), 3),
        (record(3).replace(b"3.000", b"1E-1000030"), 3),
    ],
    ids=["missing-field", "not-an-object", "value-not-a-number", "value-finer-than-a-wh", "sub-second", "value-nan",
         "obis-with-a-newline", "value-below-the-exponent-range"],
)
def test_400_names_the_line_with_the_old_reason(server, bad, line_number):
    base, store = server
    body = record(1) + b"\n\r\n" + bad + b"\n" + record(2) + b"\n"
    with pytest.raises(RECORD_ERRORS) as old:
        post_readings(body)
    assert post_status(base, body) == (400, {"error": "bad reading record: line {}: {}".format(line_number, old.value)})
    assert store.meters() == []


@pytest.mark.parametrize("bad", [b'{"meter_id": "M1", "timest', b'{"meter_id": '], ids=["in-a-string", "at-the-end"])
def test_400_for_a_record_cut_short_gives_the_log_replay_reason(server, tmp_path, bad):
    # The JSON position counts the line's newline, as a log line's always did.
    base, _ = server
    body = record(1) + b"\n\r\n" + bad + b"\n" + record(2) + b"\n"
    status, answer = post_status(base, body)
    assert status == 400 and answer["error"].startswith("bad reading record: line 3: ")
    reason = answer["error"][len("bad reading record: line 3: "):]
    log = tmp_path / "readings.ndjson"
    log.write_bytes(body)
    with pytest.raises(StoreLogError) as replayed:
        TelemetryStore(log)
    assert str(replayed.value) == "{} line 3: {}".format(log, reason)


def test_non_utf8_byte_position_counts_from_its_line(server):
    base, _ = server
    line = record(2, "M\u00e9").replace("\u00e9".encode("utf-8"), b"\xe9")
    body = record(1) + b"\n" + line + b"\n"
    with pytest.raises(UnicodeDecodeError) as in_line:
        line.decode("utf-8")
    with pytest.raises(UnicodeDecodeError) as in_body:
        body.decode("utf-8")
    assert in_line.value.start == in_body.value.start - len(record(1)) - 1
    status, answer = post_status(base, body)
    assert (status, answer["error"]) == (400, "bad reading record: line 2: {}".format(in_line.value))


def test_idle_and_stalled_connections_are_closed(server, monkeypatch):
    base, _ = server
    assert MeterServiceHandler.timeout == IDLE_TIMEOUT_S > 0
    monkeypatch.setattr(MeterServiceHandler, "timeout", 0.5)
    address = urllib.parse.urlsplit(base)
    idle = socket.create_connection((address.hostname, address.port), timeout=5)
    stalled = socket.create_connection((address.hostname, address.port), timeout=5)
    try:
        stalled.sendall(b"POST /v1/readings HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n0123456789")
        started = time.monotonic()
        for sock in (idle, stalled):
            try:
                assert sock.recv(1024) == b""  # closed with nothing answered
            except ConnectionResetError:
                pass
        assert time.monotonic() - started < 2
    finally:
        idle.close()
        stalled.close()
