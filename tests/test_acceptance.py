"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measurements.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the verdict lines inline.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.request
from datetime import timedelta

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import START, profiles_through_store
from meterwatch.anomaly import anomaly_scores
from meterwatch.clustering import kmeans_fit, select_k
from meterwatch.personas import PERSONA_IDS, build_persona
from meterwatch.pipeline import AnalysisConfig, canonical_json
from meterwatch.protocol import (
    ChecksumMismatch,
    DataLine,
    ObisCode,
    ProtocolError,
    ReadoutFrame,
    Unit,
    encode_readout,
    parse_readout,
)
from meterwatch.service import make_server
from meterwatch.simulator import AnomalyScript, simulate_period
from meterwatch.store import MeterReading, TelemetryStore
from oracles import (
    adjusted_rand_index,
    exact_min_inertia,
    profile_rows,
    profiles_from_matrix,
    reading_to_record,
    snapshot,
)

from datetime import datetime, timezone
from decimal import Decimal


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = "ACCEPTANCE {:d} {}: {} ({})".format(number, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


# -- 1: protocol round-trip, fuzz, corruption ---------------------------------

_VALUE_ALPHABET = "0123456789.abcdefghij"


def _random_lines(rnd: random.Random) -> tuple[DataLine, ...]:
    lines = []
    for _ in range(rnd.randint(0, 5)):
        address = ObisCode(rnd.randint(0, 99), rnd.randint(0, 99), rnd.randint(0, 99))
        value = "".join(rnd.choice(_VALUE_ALPHABET) for _ in range(rnd.randint(0, 12)))
        unit = rnd.choice(list(Unit))
        lines.append(DataLine(address, value, unit))
    return tuple(lines)


def test_criterion_1_protocol_roundtrip_and_fuzz():
    started = time.perf_counter()
    rnd = random.Random(20240601)

    sequences = [_random_lines(rnd) for _ in range(10_000)]
    roundtrips = sum(parse_readout(encode_readout(seq)).lines == seq for seq in sequences)

    crashes = 0
    for _ in range(10_000):
        blob = rnd.randbytes(rnd.randint(0, 100))
        try:
            result = parse_readout(blob)
            assert isinstance(result, ReadoutFrame)
        except ProtocolError:
            pass
        except Exception:  # noqa: BLE001 - the point of the fuzz target
            crashes += 1

    corruptions = 0
    mismatches = 0
    for index, seq in enumerate(sequences[:1000]):
        encoded = bytearray(encode_readout(seq))
        etx_at = len(encoded) - 2
        bits = range(8) if index < 50 else [rnd.randrange(8)]
        for position in range(1, etx_at):
            for bit in bits:
                corrupted = bytearray(encoded)
                corrupted[position] ^= 1 << bit
                corruptions += 1
                try:
                    parse_readout(bytes(corrupted))
                except ChecksumMismatch:
                    mismatches += 1
                except ProtocolError:
                    pass

    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "protocol round-trip & fuzz",
        roundtrips == 10_000 and crashes == 0 and mismatches == corruptions and elapsed < 30.0,
        "roundtrips {}/10000, crashes {}, checksum catches {}/{}, {:.1f}s".format(
            roundtrips, crashes, mismatches, corruptions, elapsed
        ),
    )


# -- 2: energy conservation through the pipeline ------------------------------


def test_criterion_2_energy_conservation():
    started = time.perf_counter()
    worst_slot = 0.0
    worst_total = 0.0
    for pid in PERSONA_IDS:
        sim = simulate_period(build_persona(pid), START, 30, seed=77)
        _, _, store = profiles_through_store(sim)
        span = store.span(pid, ObisCode(1, 8, 0))
        samples = store.mean_power_series(pid, ObisCode(1, 8, 0), *span)
        assert len(samples) == 30 * 96
        registers = [r.value_kwh for r in sim.readings]
        for sample, (r0, r1) in zip(samples, zip(registers, registers[1:])):
            slot_kwh = sample.mean_power_w * 0.25 / 1000.0
            worst_slot = max(worst_slot, abs(slot_kwh - float(r1 - r0)))
        total_kwh = sum(s.mean_power_w for s in samples) * 0.25 / 1000.0
        truth_kwh = float(sim.slot_powers_w.sum()) * 0.25 / 1000.0
        register_delta = float(registers[-1] - registers[0])
        worst_total = max(
            worst_total, abs(total_kwh - register_delta), abs(truth_kwh - register_delta)
        )
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        "energy conservation",
        worst_slot <= 0.001 and worst_total <= 0.001 + 1e-6 and elapsed < 10.0,
        "worst slot error {:.2e} kWh, worst span error {:.2e} kWh, {:.1f}s".format(
            worst_slot, worst_total, elapsed
        ),
    )


# -- 3: cluster recovery on the varied persona --------------------------------


def test_criterion_3_cluster_recovery():
    started = time.perf_counter()
    persona = build_persona("S4")
    good_ari = 0
    good_k = 0
    for seed in range(20):
        sim = simulate_period(persona, START, 30, seed=seed)
        profiles, _, _ = profiles_through_store(sim)
        report = select_k(profiles, seed=seed, restarts=10)
        good_k += report.recommended_k == 3
        model = kmeans_fit(profiles, 3, seed=seed, restarts=10)
        truth = [sim.truth_labels[day] for day in profiles.days]
        predicted = [model.assignments[day] for day in profiles.days]
        good_ari += adjusted_rand_index(truth, predicted) >= 0.9
    elapsed = time.perf_counter() - started
    _verdict(
        3,
        "cluster recovery",
        good_ari >= 18 and good_k >= 18 and elapsed < 60.0,
        "ARI>=0.9 in {}/20 seeds, k==3 in {}/20 seeds, {:.1f}s".format(
            good_ari, good_k, elapsed
        ),
    )


# -- 4: degenerate low-variability persona ------------------------------------


def test_criterion_4_degenerate_persona():
    persona = build_persona("S3")
    low_k = 0
    recommendations = []
    for seed in range(20):
        sim = simulate_period(persona, START, 30, seed=seed)
        profiles, _, _ = profiles_through_store(sim)
        recommended = select_k(profiles, seed=seed, restarts=10).recommended_k
        recommendations.append(recommended)
        low_k += recommended <= 2
    _verdict(
        4,
        "degenerate persona",
        low_k >= 18,
        "k<=2 in {}/20 seeds (recommendations: {})".format(low_k, recommendations),
    )


# -- 5: anomaly recovery -------------------------------------------------------

_KINDS = ("absence-morning", "shifted-morning", "evening-baking")


def test_criterion_5_anomaly_recovery():
    persona = build_persona("S1")
    in_top3 = 0
    in_flagged = 0
    for seed in range(20):
        scripts = [
            AnomalyScript(kind, START + timedelta(days=9 + 7 * i))
            for i, kind in enumerate(_KINDS)
        ]
        sim = simulate_period(persona, START, 30, scripts, seed=seed)
        profiles, _, _ = profiles_through_store(sim)
        model = kmeans_fit(profiles, 3, seed=seed, restarts=10)
        report = anomaly_scores(model, profiles)
        injected = {s.day for s in scripts}
        in_top3 += injected == set(report.top(3))
        in_flagged += injected <= set(report.flagged)
    _verdict(
        5,
        "anomaly recovery",
        in_top3 >= 19 and in_flagged >= 17,
        "injected days in top-3 in {}/20 seeds, flagged in {}/20 seeds".format(
            in_top3, in_flagged
        ),
    )


# -- 6: k-means versus exhaustive search ---------------------------------------


def test_criterion_6_kmeans_oracle():
    rnd = np.random.default_rng(2024)
    matched = 0
    monotone = 0
    total = 200
    for _ in range(total):
        n = int(rnd.integers(2, 9))
        k = int(rnd.integers(1, min(3, n) + 1))
        X = rnd.uniform(0.0, 1000.0, size=(n, 96))
        model = kmeans_fit(
            profiles_from_matrix(X), k, seed=int(rnd.integers(2**63)), restarts=50
        )
        optimal = exact_min_inertia(X, k)
        if abs(model.inertia - optimal) <= 1e-9 * max(optimal, 1.0):
            matched += 1
        history = model.inertia_history
        if all(b <= a + 1e-9 * max(a, 1.0) for a, b in zip(history, history[1:])):
            monotone += 1
    _verdict(
        6,
        "k-means oracle",
        matched == total and monotone == total,
        "optimal inertia in {}/{} instances, Lloyd monotone in {}/{}".format(
            matched, total, monotone, total
        ),
    )


# -- 7: invariant property suites ----------------------------------------------

_CASES = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_T0 = datetime(2024, 6, 3, 0, 0, tzinfo=timezone.utc)
_OBIS = ObisCode(1, 8, 0)


def _batch_from(seed: int, size: int) -> list[MeterReading]:
    rnd = np.random.default_rng(seed)
    increments = rnd.integers(0, 2000, size=size)
    total = 0
    readings = []
    for i, inc in enumerate(increments):
        total += int(inc)
        readings.append(
            MeterReading(
                "P", _T0 + timedelta(minutes=15 * i), _OBIS, Decimal(total) / 1000
            )
        )
    return readings


def test_criterion_7_invariant_suites():
    @_CASES
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def idempotent_ingestion(seed, size):
        store = TelemetryStore()
        batch = _batch_from(seed, size)
        store.ingest(batch)
        state = snapshot(store)
        delta = store.ingest(batch)
        assert delta.readings_accepted == 0
        assert delta.duplicates_dropped == size
        assert snapshot(store) == state

    @_CASES
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.randoms(use_true_random=False))
    def order_independent_ingestion(seed, size, rnd):
        batch = _batch_from(seed, size)
        store_a = TelemetryStore()
        for reading in batch:
            store_a.ingest([reading])
        shuffled = list(batch)
        rnd.shuffle(shuffled)
        store_b = TelemetryStore()
        store_b.ingest(shuffled)
        assert snapshot(store_a) == snapshot(store_b)

    @_CASES
    @given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.integers(1, 2))
    def scale_equivariant_clustering(seed, n, k):
        rnd = np.random.default_rng(seed)
        X = rnd.integers(0, 2000, size=(n, 96)).astype(float)
        base_profiles = profiles_from_matrix(X)
        base_model = kmeans_fit(base_profiles, k, seed=seed, restarts=2)
        base_report = anomaly_scores(base_model, base_profiles)
        for factor in (0.5, 3.0):
            scaled_profiles = profiles_from_matrix(X * factor)
            model = kmeans_fit(scaled_profiles, k, seed=seed, restarts=2)
            assert model.assignments == base_model.assignments
            assert np.allclose(
                model.centroids, base_model.centroids * factor, rtol=1e-12, atol=1e-9
            )
            report = anomaly_scores(model, scaled_profiles)
            assert report.ranked_days == base_report.ranked_days
            assert report.flagged == base_report.flagged
            assert np.isclose(
                report.threshold, base_report.threshold * factor, rtol=1e-9, atol=1e-12
            )
            for day, score in base_report.scores.items():
                assert np.isclose(report.scores[day], score * factor, rtol=1e-9, atol=1e-12)

    @_CASES
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.randoms(use_true_random=False))
    def permutation_independent_scoring(seed, n, rnd):
        np_rnd = np.random.default_rng(seed)
        X = np_rnd.uniform(0, 500, size=(n, 96))
        profiles = profiles_from_matrix(X)
        model = kmeans_fit(profiles, min(2, n), seed=seed, restarts=2)
        reference = anomaly_scores(model, profiles)
        order = list(range(n))
        rnd.shuffle(order)
        report = anomaly_scores(model, profile_rows(profiles, order))
        assert report.scores == reference.scores
        assert report.ranked_days == reference.ranked_days
        assert report.threshold == reference.threshold
        assert report.flagged == reference.flagged

    started = time.perf_counter()
    idempotent_ingestion()
    order_independent_ingestion()
    scale_equivariant_clustering()
    permutation_independent_scoring()
    elapsed = time.perf_counter() - started
    _verdict(
        7,
        "invariant suites",
        True,
        "4 property suites x 1000 cases, {:.1f}s".format(elapsed),
    )


# -- 8: CLI and service agree ---------------------------------------------------


def test_criterion_8_service_cli_equivalence(tmp_path):
    from click.testing import CliRunner

    from meterwatch.cli import main
    from meterwatch.store import write_readings_csv

    sim = simulate_period(build_persona("S4"), START, 12, seed=42)
    csv_path = tmp_path / "S4_readings.csv"
    write_readings_csv(csv_path, sim.readings)

    runner = CliRunner()
    out = tmp_path / "analysis"
    result = runner.invoke(main, ["analyze", str(csv_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    cli_report = json.loads((out / "S4" / "anomaly_report.json").read_text())

    store = TelemetryStore()
    server = make_server(store, AnalysisConfig(), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = "http://127.0.0.1:{}".format(server.server_address[1])
        body = "\n".join(json.dumps(reading_to_record(r)) for r in sim.readings).encode()
        request = urllib.request.Request(base + "/v1/readings", data=body, method="POST")
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
        with urllib.request.urlopen(base + "/v1/meters/S4/anomalies") as response:
            service_report = json.loads(response.read().decode())
    finally:
        server.shutdown()
        server.server_close()

    same = canonical_json(cli_report) == canonical_json(service_report)
    _verdict(
        8,
        "service/CLI equivalence",
        same,
        "canonical AnomalyReport JSON identical: {}".format(same),
    )
