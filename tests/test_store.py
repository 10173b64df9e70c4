from __future__ import annotations

import io
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from meterwatch.personas import build_persona
from meterwatch.protocol import ObisCode
from meterwatch.simulator import simulate_period
from meterwatch.store import (
    CSV_HEADER,
    ConflictingDuplicate,
    MeterReading,
    NonMonotonicRegister,
    QUALITY_INTERPOLATED,
    QUALITY_MEASURED,
    QUALITY_MISSING,
    ReadingsCsvError,
    TelemetryStore,
    parse_rfc3339,
    read_readings_csv,
    register_delta_kwh,
    rfc3339,
    write_readings_csv,
)

OBIS_180 = ObisCode(1, 8, 0)
T0 = datetime(2024, 6, 3, 12, 0, tzinfo=timezone.utc)


def reading(minutes: float, value: str, meter: str = "M1") -> MeterReading:
    return MeterReading(meter, T0 + timedelta(minutes=minutes), OBIS_180, Decimal(value))


def grid_batch(values: list[str], meter: str = "M1") -> list[MeterReading]:
    return [reading(15 * i, v, meter) for i, v in enumerate(values)]


# -- ingestion ----------------------------------------------------------------


def test_reingesting_a_batch_changes_nothing():
    store = TelemetryStore()
    batch = grid_batch(["1.000", "1.100", "1.250"])
    first = store.ingest(batch)
    state = store.snapshot()
    second = store.ingest(batch)
    assert first.readings_accepted == 3
    assert second.readings_accepted == 0
    assert second.duplicates_dropped == len(batch)
    assert store.snapshot() == state


def test_conflicting_duplicate_is_rejected_without_commit():
    store = TelemetryStore()
    store.ingest([reading(0, "5.000")])
    state = store.snapshot()
    with pytest.raises(ConflictingDuplicate):
        store.ingest([reading(15, "5.100"), reading(0, "6.000")])
    assert store.snapshot() == state


def test_rollover_is_accepted_and_counted():
    store = TelemetryStore()
    delta = store.ingest(grid_batch(["999999.900", "0.100"]))
    assert delta.rollovers_detected == 1
    assert register_delta_kwh(Decimal("999999.900"), Decimal("0.100")) == Decimal("0.200")
    samples = store.mean_power_series(
        "M1", OBIS_180, T0, T0 + timedelta(minutes=15)
    )
    assert samples[0].mean_power_w == pytest.approx(800.0)


def test_plain_decrease_is_rejected():
    store = TelemetryStore()
    with pytest.raises(NonMonotonicRegister):
        store.ingest(grid_batch(["5.000", "4.900"]))


def test_decrease_against_stored_history_is_rejected():
    store = TelemetryStore()
    store.ingest([reading(0, "5.000"), reading(30, "5.200")])
    with pytest.raises(NonMonotonicRegister):
        store.ingest([reading(15, "4.000")])


def test_out_of_order_arrivals_are_counted_but_kept():
    store = TelemetryStore()
    store.ingest([reading(30, "5.200")])
    delta = store.ingest([reading(0, "5.000")])
    assert delta.readings_accepted == 1
    assert delta.out_of_order == 1


def test_naive_timestamps_are_rejected():
    with pytest.raises(ValueError):
        MeterReading("M1", datetime(2024, 6, 3, 12, 0), OBIS_180, Decimal("1"))


def test_negative_register_is_rejected():
    for value in ("-1", "Infinity", "1000000.000"):
        with pytest.raises(ValueError):
            MeterReading("M1", T0, OBIS_180, Decimal(value))


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 40)),
        min_size=1,
        max_size=8,
        unique_by=lambda t: t[0],
    ),
    st.randoms(use_true_random=False),
)
def test_final_state_is_arrival_order_independent(slots, rnd):
    slots = sorted(slots)
    batch = [reading(15 * slot, str(Decimal(total) / 10)) for slot, total in
             [(s, sum(x for _, x in slots[: i + 1])) for i, (s, _) in enumerate(slots)]]
    store_a = TelemetryStore()
    store_a.ingest(batch)
    shuffled = list(batch)
    rnd.shuffle(shuffled)
    store_b = TelemetryStore()
    store_b.ingest(shuffled)
    assert store_a.snapshot() == store_b.snapshot()


# -- grid alignment -----------------------------------------------------------


def test_exact_boundary_readings_align_identically():
    store = TelemetryStore()
    batch = grid_batch(["1.000", "1.100", "1.300"])
    store.ingest(batch)
    grid = store.align_to_grid("M1", OBIS_180, T0, T0 + timedelta(minutes=30))
    assert [(g.value_kwh, g.quality) for g in grid] == [
        (Decimal("1.000"), QUALITY_MEASURED),
        (Decimal("1.100"), QUALITY_MEASURED),
        (Decimal("1.300"), QUALITY_MEASURED),
    ]


def test_reading_within_tolerance_snaps_to_boundary():
    store = TelemetryStore()
    store.ingest([MeterReading("M1", T0 + timedelta(seconds=30), OBIS_180, Decimal("2.000"))])
    grid = store.align_to_grid("M1", OBIS_180, T0, T0)
    assert grid[0].value_kwh == Decimal("2.000")
    assert grid[0].quality == QUALITY_MEASURED


def test_short_gap_is_interpolated_linearly():
    store = TelemetryStore()
    store.ingest(
        [
            reading(0, "1.000"),
            MeterReading("M1", T0 + timedelta(minutes=60), OBIS_180, Decimal("1.400")),
        ]
    )
    grid = store.align_to_grid("M1", OBIS_180, T0, T0 + timedelta(minutes=60))
    assert [g.quality for g in grid] == [
        QUALITY_MEASURED,
        QUALITY_INTERPOLATED,
        QUALITY_INTERPOLATED,
        QUALITY_INTERPOLATED,
        QUALITY_MEASURED,
    ]
    assert [g.value_kwh for g in grid] == [
        Decimal("1.000"),
        Decimal("1.100"),
        Decimal("1.200"),
        Decimal("1.300"),
        Decimal("1.400"),
    ]


def test_two_hour_gap_leaves_interior_missing():
    store = TelemetryStore()
    store.ingest(
        [
            reading(0, "1.000"),
            MeterReading("M1", T0 + timedelta(hours=2), OBIS_180, Decimal("2.000")),
        ]
    )
    grid = store.align_to_grid("M1", OBIS_180, T0, T0 + timedelta(hours=2))
    interior = grid[1:-1]
    assert all(g.quality == QUALITY_MISSING and g.value_kwh is None for g in interior)
    assert grid[0].quality == QUALITY_MEASURED
    assert grid[-1].quality == QUALITY_MEASURED


# -- mean power ---------------------------------------------------------------


def test_tenth_kwh_in_a_slot_is_400_watts():
    store = TelemetryStore()
    store.ingest(grid_batch(["1.000", "1.100"]))
    samples = store.mean_power_series("M1", OBIS_180, T0, T0 + timedelta(minutes=15))
    assert len(samples) == 1
    assert samples[0].mean_power_w == pytest.approx(400.0)
    assert samples[0].quality == QUALITY_MEASURED


def test_constant_register_means_zero_power():
    store = TelemetryStore()
    store.ingest(grid_batch(["3.000"] * 5))
    samples = store.mean_power_series("M1", OBIS_180, T0, T0 + timedelta(minutes=60))
    assert all(s.mean_power_w == 0.0 for s in samples)


def test_power_quality_propagates_from_endpoints():
    store = TelemetryStore()
    store.ingest(
        [
            reading(0, "1.000"),
            MeterReading("M1", T0 + timedelta(minutes=60), OBIS_180, Decimal("1.400")),
            MeterReading("M1", T0 + timedelta(minutes=75), OBIS_180, Decimal("1.500")),
        ]
    )
    samples = store.mean_power_series("M1", OBIS_180, T0, T0 + timedelta(minutes=75))
    assert [s.quality for s in samples] == [
        QUALITY_INTERPOLATED,
        QUALITY_INTERPOLATED,
        QUALITY_INTERPOLATED,
        QUALITY_INTERPOLATED,
        QUALITY_MEASURED,
    ]


def test_simulated_power_matches_truth_within_one_count():
    sim = simulate_period(build_persona("S4"), date(2024, 6, 3), 5, seed=13)
    store = TelemetryStore()
    store.ingest(sim.readings)
    span = store.span("S4", OBIS_180)
    samples = store.mean_power_series("S4", OBIS_180, *span)
    truth = sim.slot_powers_w.reshape(-1)
    assert len(samples) == len(truth)
    for sample, expected_w in zip(samples, truth):
        # one register count per slot = 0.001 kWh = 4 W over 15 minutes
        assert abs(sample.mean_power_w - expected_w) <= 4.0 + 1e-9
        assert sample.mean_power_w >= 0.0
    total_sampled = sum(s.mean_power_w for s in samples) * 0.25 / 1000.0
    register_delta = float(sim.readings[-1].value_kwh - sim.readings[0].value_kwh)
    assert total_sampled == pytest.approx(register_delta, abs=1e-9)


# -- persistence --------------------------------------------------------------


def test_store_replays_its_append_log(tmp_path):
    path = tmp_path / "readings.ndjson"
    store = TelemetryStore(path)
    store.ingest(grid_batch(["1.000", "1.100", "999999.999"], meter="A"))
    store.ingest(grid_batch(["7.000", "7.500"], meter="B"))
    reopened = TelemetryStore(path)
    assert reopened.snapshot() == store.snapshot()
    assert reopened.meters() == ["A", "B"]


# -- CSV ----------------------------------------------------------------------


def test_csv_roundtrip():
    batch = grid_batch(["1.000", "1.100", "1.250"])
    buf = io.StringIO()
    write_readings_csv(buf, batch)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert read_readings_csv(io.StringIO(text)) == batch


def test_csv_malformed_row_names_its_line():
    for bad_row in ("M1,not-a-time,1.8.0,2.0", "M1,2024-06-03T12:15:00Z,1.8.0,Infinity"):
        text = "meter_id,timestamp,obis,value_kwh\nM1,2024-06-03T12:00:00Z,1.8.0,1.0\n" + bad_row + "\n"
        with pytest.raises(ReadingsCsvError) as err:
            read_readings_csv(io.StringIO(text))
        assert err.value.line_number == 3
        assert "line 3" in str(err.value)


def test_csv_rejects_wrong_header_and_empty_file():
    with pytest.raises(ReadingsCsvError):
        read_readings_csv(io.StringIO("a,b,c,d\n"))
    with pytest.raises(ReadingsCsvError):
        read_readings_csv(io.StringIO(""))


def test_rfc3339_roundtrip():
    assert rfc3339(T0) == "2024-06-03T12:00:00Z"
    assert parse_rfc3339("2024-06-03T12:00:00Z") == T0
    assert parse_rfc3339("2024-06-03T14:00:00+02:00") == T0
    with pytest.raises(ValueError):
        parse_rfc3339("2024-06-03T12:00:00")
