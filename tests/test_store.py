from __future__ import annotations

import io
import json
import shutil
import tempfile
from bisect import bisect_left
from datetime import date, datetime, timedelta, timezone
from decimal import Decimal
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from meterwatch.personas import build_persona
from meterwatch.pipeline import InsufficientDataError, analyze_meter
from meterwatch.protocol import REGISTER_MODULUS_KWH, ObisCode
from meterwatch import store as store_module
from meterwatch.simulator import simulate_period
from meterwatch.store import (
    CSV_HEADER,
    MAX_GRID_SLOTS,
    REGISTER_MODULUS_WH,
    SLOT,
    ConflictingDuplicate,
    MeterReading,
    NonMonotonicRegister,
    QUALITIES,
    QUALITY_INTERPOLATED,
    QUALITY_MEASURED,
    QUALITY_MISSING,
    ReadingColumns,
    ReadingsFormatError,
    SpanTooLong,
    StoreError,
    StoreLogError,
    StoreStats,
    TelemetryStore,
    parse_rfc3339,
    read_readings_csv,
    read_readings_ndjson,
    register_delta_kwh,
    _CHUNK_BYTES,
    _CHUNK_RECORDS,
    _CSV_RUN,
    _MISSING,
    _NDJSON_RUN,
    _add_canonical,
    _interpolate_wh,
    _merge_window,
    _ndjson_records,
    _read_canonical_csv,
    _read_csv_rows,
    _to_datetime,
    _to_kwh,
    _to_us,
    rfc3339,
    write_readings_csv,
)
from oracles import (
    CSV_RUN, NDJSON_RUN, RECORD_ERRORS, DictStore, GridReading, _check_neighbours, _insert_sorted, _interpolate,
    add_canonical, add_readings, ndjson_records, post_readings, readings_csv, replay_log, snapshot,
)

OBIS_180 = ObisCode(1, 8, 0)
OBIS_280 = ObisCode(2, 8, 0)
T0 = datetime(2024, 6, 3, 12, 0, tzinfo=timezone.utc)


def reading(minutes: float, value: str, meter: str = "M1") -> MeterReading:
    return MeterReading(meter, T0 + timedelta(minutes=minutes), OBIS_180, Decimal(value))


def grid_batch(values: list[str], meter: str = "M1") -> list[MeterReading]:
    return [reading(15 * i, v, meter) for i, v in enumerate(values)]


def grid(store: TelemetryStore, start: datetime, end: datetime, meter: str = "M1", register=OBIS_180):
    """The store's grid pass (bounds in µs, Wh, codes) as the oracle's ``GridReading``s."""
    bounds, wh, codes = store._grid(meter, register, start, end)
    return [
        GridReading(_to_datetime(us), None if code == _MISSING else _to_kwh(v), QUALITIES[code])
        for us, v, code in zip(bounds.tolist(), wh.tolist(), codes.tolist())
    ]


# -- ingestion ----------------------------------------------------------------


def test_reingesting_a_batch_changes_nothing():
    store = TelemetryStore()
    batch = grid_batch(["1.000", "1.100", "1.250"])
    first = store.ingest(batch)
    state = snapshot(store)
    second = store.ingest(batch)
    assert first.readings_accepted == 3
    assert second.readings_accepted == 0
    assert second.duplicates_dropped == len(batch)
    assert snapshot(store) == state


def test_conflicting_duplicate_is_rejected_without_commit():
    store = TelemetryStore()
    store.ingest([reading(0, "5.000")])
    state = snapshot(store)
    with pytest.raises(ConflictingDuplicate):
        store.ingest([reading(15, "5.100"), reading(0, "6.000")])
    assert snapshot(store) == state


def test_rollover_is_accepted_and_counted():
    store = TelemetryStore()
    delta = store.ingest(grid_batch(["999999.900", "0.100"]))
    assert delta.rollovers_detected == 1
    assert register_delta_kwh(Decimal("999999.900"), Decimal("0.100")) == Decimal("0.200")
    [sample] = store.mean_power_series("M1", OBIS_180, T0, T0 + timedelta(minutes=15))
    assert sample.mean_power_w == pytest.approx(800.0)


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


@pytest.mark.parametrize("timestamp", [
    datetime(1, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1))),  # year 0 in UTC
    datetime(9999, 12, 31, 23, 30, tzinfo=timezone(timedelta(hours=-1))),  # year 10000 in UTC
])
def test_timestamps_outside_the_utc_years_are_rejected(timestamp):
    # The store's log and the readings CSV write times in UTC, where a datetime cannot hold these.
    with pytest.raises(ValueError, match="outside the years 1-9999 in UTC"):
        MeterReading("M1", timestamp, OBIS_180, Decimal("1.000"))


def test_sub_second_timestamps_are_rejected():
    # Whole seconds of the UTC instant count, not of the wall clock.
    odd_offset = timezone(timedelta(hours=1, microseconds=500))
    MeterReading("M1", T0.astimezone(odd_offset), OBIS_180, Decimal("1"))
    for ts in (T0.replace(microsecond=1), T0.replace(tzinfo=odd_offset)):
        with pytest.raises(ValueError, match="not a whole second"):
            MeterReading("M1", ts, OBIS_180, Decimal("1"))


def test_negative_register_is_rejected():
    for value in ("-1", "Infinity", "1000000.000", "1.0005"):
        with pytest.raises(ValueError):
            MeterReading("M1", T0, OBIS_180, Decimal(value))
    # Exponents below the decimal context's range: ``value % 0.001`` underflows to 0 for them.
    for value in ("1E-1000030", "1e-999999999999"):
        with pytest.raises(ValueError, match="is finer than 0.001 kWh"):
            MeterReading("M1", T0, OBIS_180, Decimal(value))
    with pytest.raises(ValueError, match="value_kwh 'NaN' is not a decimal number"):
        MeterReading("M1", T0, OBIS_180, Decimal("NaN"))


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
    assert snapshot(store_a) == snapshot(store_b)


@st.composite
def reading_batches(draw):
    """Readings for two meters on both registers, shuffled and split into batches.

    Each series climbs from near zero or from just under the display modulus
    (so it may roll over); then duplicates, conflicting values and drops are
    mixed in, and readings land on and off the 15-minute grid, in UTC or
    another offset.
    """
    readings = []
    for meter in ("A", "B"):
        for register in (OBIS_180, OBIS_280):
            seconds = draw(st.lists(
                st.one_of(st.integers(0, 20).map(lambda i: 900 * i), st.integers(0, 5 * 3600)),
                max_size=10,
                unique=True,
            ))
            value = draw(st.sampled_from([Decimal("0.000"), REGISTER_MODULUS_KWH - Decimal("0.500")]))
            for offset in sorted(seconds):
                value = (value + Decimal(draw(st.integers(0, 300))) / 1000) % REGISTER_MODULUS_KWH
                tz = draw(st.sampled_from([timezone.utc, timezone(timedelta(hours=2))]))
                readings.append(MeterReading(meter, (T0 + timedelta(seconds=offset)).astimezone(tz), register, value))
    faults = draw(st.lists(st.tuples(st.sampled_from(["duplicate", "conflict", "drop"]), st.integers(0)), max_size=4))
    for kind, index in faults:
        if not readings:
            break
        base = readings[index % len(readings)]
        if kind == "duplicate":
            readings.append(base)
        elif kind == "conflict":
            value = (base.value_kwh + Decimal("0.001")) % REGISTER_MODULUS_KWH
            readings.append(MeterReading(base.meter_id, base.timestamp, base.register, value))
        else:
            value = max(base.value_kwh - Decimal("0.050"), Decimal("0.000"))
            readings.append(MeterReading(base.meter_id, base.timestamp + timedelta(seconds=7), base.register, value))
    readings = draw(st.permutations(readings))
    cuts = sorted(draw(st.lists(st.integers(0, len(readings)), max_size=6)))
    return [readings[a:b] for a, b in zip([0] + cuts, cuts + [len(readings)])]


GRID_WINDOWS = [
    (T0 - timedelta(hours=1), T0 + timedelta(hours=6)),  # beyond the data on both sides
    (T0 + timedelta(minutes=7), T0 + timedelta(hours=2, minutes=53)),
    (
        (T0 + timedelta(minutes=40)).astimezone(timezone(timedelta(hours=5, minutes=30))),
        (T0 + timedelta(hours=3, minutes=1)).astimezone(timezone(timedelta(hours=-3))),
    ),
    (T0 + timedelta(hours=5, minutes=30), T0 + timedelta(hours=8)),  # after the data
]


@settings(max_examples=300, deadline=None)
@given(reading_batches())
# A new series' run that repeats a time, with the same value or another: it is checked reading by reading.
@example([[reading(0, "1.000", "A"), reading(1, "2.000", "A"), reading(0, "1.000", "A")]])
@example([[reading(0, "1.000", "A"), reading(1, "2.000", "A"), reading(0, "3.000", "A")]])
@example([[MeterReading("A", T0 + timedelta(seconds=s), OBIS_180, Decimal(v)) for s, v in ((-60, "1"), (60, "2"))]])
# A's first reading in the second batch is a duplicate, so B's decrease is
# the first one met among fresh readings and is the one reported.
@example([
    [MeterReading("A", T0, OBIS_180, Decimal("0.005"))],
    [
        MeterReading("A", T0, OBIS_180, Decimal("0.005")),
        MeterReading("B", T0, OBIS_180, Decimal("0.005")),
        MeterReading("B", T0 + timedelta(minutes=15), OBIS_180, Decimal("0.001")),
        MeterReading("A", T0 + timedelta(minutes=15), OBIS_180, Decimal("0.001")),
    ],
])
def test_store_matches_the_dict_and_sort_oracle(batches):
    store, oracle = TelemetryStore(), DictStore()
    for batch in batches:
        outcomes = []
        for target in (store, oracle):
            try:
                outcomes.append(target.ingest(batch))
            except StoreError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
    assert snapshot(store) == oracle.snapshot()
    for meter in ("A", "B", "C"):
        for register in (OBIS_180, OBIS_280):
            assert store.readings(meter, register) == oracle.readings(meter, register)
            assert store.span(meter, register) == oracle.span(meter, register)
            for start, end in GRID_WINDOWS:
                assert grid(store, start, end, meter, register) == oracle.align_to_grid(meter, register, start, end)
                assert list(store.mean_power_series(meter, register, start, end)) == oracle.mean_power_series(
                    meter, register, start, end
                )


def test_stored_successor_is_checked():
    store = TelemetryStore()
    store.ingest([reading(0, "1.000"), reading(30, "1.200")])
    with pytest.raises(NonMonotonicRegister, match="1.300 -> 1.200"):
        store.ingest([reading(15, "1.300")])


@st.composite
def merge_cases(draw):
    """A stored series and new readings ``{time: value}`` at other times.

    The stored series has up to 200 readings, seconds apart, climbing from
    near zero or from just under the register modulus (so it may roll
    over).  New readings land before, inside and after its span, mostly
    between their neighbours' values, sometimes anywhere; one may split a
    stored rollover pair.
    """
    count = draw(st.integers(0, 200))
    top = REGISTER_MODULUS_WH - 1
    first_wh = draw(st.one_of(st.integers(0, 10**6), st.integers(top - 20_000, top)))
    gaps = draw(st.lists(st.integers(2, 1800), min_size=count, max_size=count))
    steps = draw(st.lists(st.integers(0, 500), min_size=count, max_size=count))
    times = [_to_us(T0) + 10**6 * s for s in accumulate(gaps)]
    values = [(first_wh + wh) % REGISTER_MODULUS_WH for wh in accumulate(steps)]
    news = {}
    for _ in range(draw(st.integers(1, 6))):
        t = _to_us(T0) + 10**6 * draw(st.integers(-3600, sum(gaps) + 3600))
        i = bisect_left(times, t)
        if i < count and times[i] == t:
            continue
        before = values[i - 1] if i else (values[0] if values else first_wh) - 50
        room = (values[i] - before) % REGISTER_MODULUS_WH if i < count else 500
        news[t] = draw(st.one_of(st.integers(0, room).map(lambda wh: (before + wh) % REGISTER_MODULUS_WH),
                                 st.integers(0, top)))
    rolls = [i for i in range(1, count) if values[i] < values[i - 1]]
    if rolls and draw(st.booleans()):
        i = draw(st.sampled_from(rolls))
        t = times[i - 1] + 10**6 * draw(st.integers(1, (times[i] - times[i - 1]) // 10**6 - 1))
        news[t] = draw(st.sampled_from([values[i - 1], top, 0, values[i], REGISTER_MODULUS_WH // 2]))
    assume(news)  # a batch's fresh readings for a series are never none
    return times, values, news


def merged(merge, times: list[int], values: list[int], news: dict[int, int]):
    """The series after ``merge`` adds ``news`` and the rollovers it counted, or the decrease it refused."""
    times, values, delta = list(times), list(values), StoreStats()
    try:
        merge(times, values, news, delta)
    except NonMonotonicRegister as exc:
        return str(exc)
    return times, values, delta.rollovers_detected


def by_window(times, values, news, delta):
    lo, hi, t, v = _merge_window(("M1", "1.8.0"), times, values, news, delta)
    times[lo:hi], values[lo:hi] = t, v


def by_neighbours(times, values, news, delta):
    new_times = sorted(news)
    new_values = [news[t] for t in new_times]
    positions = _check_neighbours(("M1", "1.8.0"), times, values, new_times, new_values, delta)
    _insert_sorted(times, positions, new_times)
    _insert_sorted(values, positions, new_values)


ROLLOVER_PAIR = ([_to_us(T0), _to_us(T0) + 10**9], [REGISTER_MODULUS_WH - 100, 50])


@settings(max_examples=300, deadline=None)
@given(merge_cases())
@example(([], [], {_to_us(T0): 5, _to_us(T0) + 1: REGISTER_MODULUS_WH - 1, _to_us(T0) + 2: 3}))
@example((*ROLLOVER_PAIR, {_to_us(T0) + 5 * 10**8: REGISTER_MODULUS_WH - 10}))
@example((*ROLLOVER_PAIR, {_to_us(T0) + 5 * 10**8: 20}))
@example((*ROLLOVER_PAIR, {_to_us(T0) + 5 * 10**8: REGISTER_MODULUS_WH // 2, _to_us(T0) - 1: 0}))
def test_merged_window_matches_the_neighbour_check_and_splice(case):
    assert merged(by_window, *case) == merged(by_neighbours, *case)


# -- grid alignment -----------------------------------------------------------


def test_exact_boundary_readings_align_identically():
    store = TelemetryStore()
    batch = grid_batch(["1.000", "1.100", "1.300"])
    store.ingest(batch)
    assert [(g.value_kwh, g.quality) for g in grid(store, T0, T0 + timedelta(minutes=30))] == [
        (Decimal("1.000"), QUALITY_MEASURED),
        (Decimal("1.100"), QUALITY_MEASURED),
        (Decimal("1.300"), QUALITY_MEASURED),
    ]


def test_reading_within_tolerance_snaps_to_boundary():
    store = TelemetryStore()
    store.ingest([MeterReading("M1", T0 + timedelta(seconds=30), OBIS_180, Decimal("2.000"))])
    [boundary] = grid(store, T0, T0)
    assert boundary.value_kwh == Decimal("2.000")
    assert boundary.quality == QUALITY_MEASURED


def test_nearest_reading_snaps_and_the_earlier_wins_a_tie():
    def grid_value(before_s: int, after_s: int) -> Decimal:
        store = TelemetryStore()
        store.ingest([
            MeterReading("M1", T0 - timedelta(seconds=before_s), OBIS_180, Decimal("1.000")),
            MeterReading("M1", T0 + timedelta(seconds=after_s), OBIS_180, Decimal("1.010")),
        ])
        [boundary] = grid(store, T0, T0)
        assert boundary.quality == QUALITY_MEASURED
        return boundary.value_kwh

    assert grid_value(60, 60) == Decimal("1.000")
    assert grid_value(90, 90) == Decimal("1.000")
    assert grid_value(60, 30) == Decimal("1.010")
    assert grid_value(30, 60) == Decimal("1.000")
    assert grid_value(91, 90) == Decimal("1.010")


def test_short_gap_is_interpolated_linearly():
    store = TelemetryStore()
    store.ingest(
        [
            reading(0, "1.000"),
            MeterReading("M1", T0 + timedelta(minutes=60), OBIS_180, Decimal("1.400")),
        ]
    )
    boundaries = grid(store, T0, T0 + timedelta(minutes=60))
    assert [g.quality for g in boundaries] == [
        QUALITY_MEASURED,
        QUALITY_INTERPOLATED,
        QUALITY_INTERPOLATED,
        QUALITY_INTERPOLATED,
        QUALITY_MEASURED,
    ]
    assert [g.value_kwh for g in boundaries] == [
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
    first, *interior, last = grid(store, T0, T0 + timedelta(hours=2))
    assert all(g.quality == QUALITY_MISSING and g.value_kwh is None for g in interior)
    assert first.quality == QUALITY_MEASURED
    assert last.quality == QUALITY_MEASURED


def two_readings(first: datetime, last: datetime) -> TelemetryStore:
    store = TelemetryStore()
    store.ingest([
        MeterReading("M1", first, OBIS_180, Decimal("1.000")),
        MeterReading("M1", last, OBIS_180, Decimal("9.000")),
    ])
    return store


def test_grid_over_ten_years_is_refused_before_it_is_built():
    first = datetime(1, 1, 1, tzinfo=timezone.utc)
    last = datetime(9999, 12, 31, tzinfo=timezone.utc)
    store = two_readings(first, last)
    for read in (store._grid, store.mean_power_series):
        with pytest.raises(SpanTooLong, match="0001-01-01T00:00:00Z to 9999-12-31T00:00:00Z"):
            read("M1", OBIS_180, first, last)
    with pytest.raises(SpanTooLong):
        analyze_meter(store, "M1")
    limit = first + MAX_GRID_SLOTS * SLOT
    assert len(store.mean_power_series("M1", OBIS_180, first, limit)) == MAX_GRID_SLOTS
    with pytest.raises(SpanTooLong):
        store.mean_power_series("M1", OBIS_180, first, limit + SLOT)
    assert len(store.mean_power_series("M1", OBIS_180, last - SLOT, last)) == 1


def test_readings_three_years_apart_are_too_few_not_too_long():
    store = two_readings(T0, T0 + timedelta(days=3 * 365))
    with pytest.raises(InsufficientDataError, match="0 profile"):
        analyze_meter(store, "M1")


# -- mean power ---------------------------------------------------------------


def test_tenth_kwh_in_a_slot_is_400_watts():
    store = TelemetryStore()
    store.ingest(grid_batch(["1.000", "1.100"]))
    samples = store.mean_power_series("M1", OBIS_180, T0, T0 + timedelta(minutes=15))
    assert len(samples) == 1
    [sample] = list(samples)
    assert sample.mean_power_w == pytest.approx(400.0)
    assert sample.quality == QUALITY_MEASURED


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
    assert snapshot(reopened) == snapshot(store)
    assert reopened.meters() == ["A", "B"]


def test_failed_append_commits_nothing(tmp_path):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    store = TelemetryStore(store_dir / "readings.ndjson")
    store.ingest([reading(0, "1.000")])
    state = snapshot(store)
    shutil.rmtree(store_dir)
    with pytest.raises(OSError):
        store.ingest([reading(15, "1.100")])
    assert snapshot(store) == state
    store_dir.mkdir()
    assert store.ingest([reading(15, "1.100")]).readings_accepted == 1
    assert TelemetryStore(store_dir / "readings.ndjson").readings("M1", OBIS_180) == [reading(15, "1.100")]


@pytest.mark.parametrize("error", [OSError, ValueError])
def test_append_failing_at_its_second_chunk_commits_nothing(tmp_path, monkeypatch, error):
    path = tmp_path / "readings.ndjson"
    store = TelemetryStore(path)
    store.ingest(grid_batch(["1.000", "1.100"]))
    log, state = path.read_bytes(), snapshot(store)
    written = []

    def failing_writer(fresh):
        for chunk in _ndjson_records(fresh):
            if written:
                raise error("the second chunk fails")
            written.append(chunk)
            yield chunk

    monkeypatch.setattr(store_module, "_ndjson_records", failing_writer)
    batch = [reading(15 * i, "{}.000".format(i)) for i in range(2, 2 * _CHUNK_RECORDS + 2)]
    with pytest.raises(error, match="second chunk"):
        store.ingest(batch)
    assert len(written) == 1 and written[0].count(b"\n") == _CHUNK_RECORDS
    assert path.read_bytes() == log
    assert snapshot(store) == state
    assert store.stats.readings_accepted == 2


def test_torn_final_record_is_cut_and_reported(tmp_path):
    path = tmp_path / "readings.ndjson"
    store = TelemetryStore(path)
    store.ingest(grid_batch(["1.000", "1.100"]))
    committed = path.read_bytes()
    torn = b'{"meter_id": "M1", "timest'
    path.write_bytes(committed + torn)
    reopened = TelemetryStore(path)
    assert reopened.dropped_tail_bytes == len(torn)
    assert snapshot(reopened) == snapshot(store)
    assert path.read_bytes() == committed
    assert TelemetryStore(path).dropped_tail_bytes == 0


@st.composite
def rollover_batches(draw):
    """A stored series and a batch of new readings that the store accepts,
    counting a rollover: the new readings ``merge_cases`` draws, if the
    store takes them, then two after all the others that roll the register
    over, from its top 1000 kWh to its first."""
    times, values, news = draw(merge_cases())
    if isinstance(merged(by_window, times, values, news), str):
        news = {}
    series = dict(zip(times, values)) | news
    last = max(series, default=_to_us(T0))
    high = draw(st.integers(max(series.get(last, 0), REGISTER_MODULUS_WH - 10**6), REGISTER_MODULUS_WH - 1))
    news[last + 10**6 * draw(st.integers(1, 1800))] = high
    news[max(news) + 10**6 * draw(st.integers(1, 1800))] = draw(st.integers(0, 10**6))
    return times, values, news


def series_columns(times, values) -> ReadingColumns:
    columns = ReadingColumns()
    if times:
        columns.extend("M1", OBIS_180, list(times), list(values))
    return columns


@settings(max_examples=20, deadline=None)  # each example opens the log once per byte of its batch
@given(rollover_batches())
@example((*ROLLOVER_PAIR, {_to_us(T0) + 3 * 10**8: REGISTER_MODULUS_WH - 50, _to_us(T0) + 6 * 10**8: 20}))
def test_append_cut_anywhere_opens_as_the_store_before_it(case):
    """Cut at any byte of a multi-line append, the log opens holding the
    series from before the batch while the ``.pending`` record is there;
    whole and with no record, it holds the series from after the batch."""
    times, values, news = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readings.ndjson"
        pending = path.with_name("readings.ndjson.pending")
        store = TelemetryStore(path)
        store.ingest(series_columns(times, values))
        before, state = path.read_bytes() if path.exists() else b"", snapshot(store)
        assert store.ingest(series_columns(sorted(news), [news[t] for t in sorted(news)])).rollovers_detected
        after = path.read_bytes()
        for cut in range(len(before), len(after) + 1):
            path.write_bytes(after[:cut])
            pending.write_bytes(b"%d" % len(before))
            reopened = TelemetryStore(path)
            assert snapshot(reopened) == state and reopened.dropped_tail_bytes == cut - len(before)
            assert path.read_bytes() == before and not pending.exists()
        path.write_bytes(after)
        assert snapshot(TelemetryStore(path)) == snapshot(store)


@pytest.mark.parametrize("error", [None, OSError])
def test_pending_record_lasts_while_a_multi_line_append_runs(tmp_path, monkeypatch, error):
    """It holds the log's length before the append, and is gone after it,
    whether the append succeeds or fails; a one-line append writes none."""
    path = tmp_path / "readings.ndjson"
    pending = tmp_path / "readings.ndjson.pending"
    store = TelemetryStore(path)
    store.ingest([reading(0, "1.000")])
    log, seen = path.read_bytes(), []

    def watched_writer(fresh):
        for chunk in _ndjson_records(fresh):
            seen.append(pending.read_bytes() if pending.exists() else None)
            if error and len(seen) == 3:  # the batch's second chunk
                raise error("the second chunk fails")
            yield chunk

    monkeypatch.setattr(store_module, "_ndjson_records", watched_writer)
    store.ingest([reading(15, "1.100")])
    assert seen == [None]
    log = path.read_bytes()
    batch = [reading(15 * i, "{}.000".format(i)) for i in range(2, 2 * _CHUNK_RECORDS + 2)]
    if error:
        with pytest.raises(error):
            store.ingest(batch)
        assert path.read_bytes() == log
    else:
        store.ingest(batch)
    assert seen[1:] == [b"%d" % len(log)] * 2  # the batch's two chunks
    assert not pending.exists() and not tmp_path.joinpath("readings.ndjson.pending.tmp").exists()


@pytest.mark.parametrize("record", [b"", b"12x", b"-1", b" 5"])
def test_pending_record_that_is_not_a_length_stops_the_open(tmp_path, record):
    path = tmp_path / "readings.ndjson"
    TelemetryStore(path).ingest(grid_batch(["1.000", "1.100"]))
    log, pending = path.read_bytes(), tmp_path / "readings.ndjson.pending"
    pending.write_bytes(record)
    with pytest.raises(StoreLogError) as err:
        TelemetryStore(path)
    assert str(err.value) == "{} line 1: {!r} is not a log length".format(pending, record)
    assert path.read_bytes() == log and pending.read_bytes() == record


def test_unparsable_interior_line_names_its_line(tmp_path):
    path = tmp_path / "readings.ndjson"
    TelemetryStore(path).ingest(grid_batch(["1.000", "1.100"]))
    lines = path.read_bytes().splitlines(keepends=True)
    finer_than_a_wh = b'{"meter_id": "M1", "obis": "1.8.0", "timestamp": "2024-06-03T12:07:00Z", "value_kwh": "1.0005"}\n'
    sub_second = b'{"meter_id": "M1", "obis": "1.8.0", "timestamp": "2024-06-03T12:07:00.5Z", "value_kwh": "1.050"}\n'
    nested_too_deep = b"[" * 100000 + b"\n"
    not_a_number = finer_than_a_wh.replace(b"1.0005", b"x")
    nan = finer_than_a_wh.replace(b"1.0005", b"NaN")
    below_the_exponent_range = finer_than_a_wh.replace(b"1.0005", b"1E-1000030")
    obis_with_lf = b'{"meter_id": "M1", "obis": "1.8.0\\n", "timestamp": "2024-06-03T12:07:00Z", "value_kwh": "1.050"}\n'
    for bad in (b'{"meter_id": "M1", "timest\n', b'{"meter_id": "M1"}\n', finer_than_a_wh, sub_second, nested_too_deep,
                not_a_number, nan, obis_with_lf, below_the_exponent_range):
        path.write_bytes(lines[0] + bad + lines[1])
        with pytest.raises(StoreLogError, match="line 2") as err:
            TelemetryStore(path)
        assert err.value.line_number == 2


def log_record(minutes: int, value: str) -> bytes:
    return json.dumps({"meter_id": "M1", "obis": "1.8.0", "timestamp": rfc3339(T0 + timedelta(minutes=minutes)),
                       "value_kwh": value}, sort_keys=True).encode() + b"\n"


@pytest.mark.parametrize(
    "lines, line, error, reason",
    [
        ([log_record(0, "5.000"), log_record(15, "0.011")], 2, NonMonotonicRegister,
         "M1 1.8.0: 5.000 -> 0.011 between 2024-06-03T12:00:00+00:00 and 2024-06-03T12:15:00+00:00"),
        # The later reading in the log is named, not the later one in time; blank lines count.
        ([log_record(15, "0.011"), b"\n", log_record(30, "0.020"), log_record(0, "5.000"), log_record(45, "0.030")],
         4, NonMonotonicRegister,
         "M1 1.8.0: 5.000 -> 0.011 between 2024-06-03T12:00:00+00:00 and 2024-06-03T12:15:00+00:00"),
        ([log_record(0, "1.000"), log_record(15, "1.100"), log_record(0, "1.050"), log_record(30, "1.200")], 3,
         ConflictingDuplicate, "M1 1.8.0 at 2024-06-03T12:00:00+00:00: stored 1.000 vs new 1.050"),
        # Enough canonical lines to be read as columns.
        ([log_record(15 * i, "{}.000".format(i - 7 if i >= 8 else i)) for i in range(12)], 9, NonMonotonicRegister,
         "M1 1.8.0: 7.000 -> 1.000 between 2024-06-03T13:45:00+00:00 and 2024-06-03T14:00:00+00:00"),
    ],
    ids=["decrease", "decrease-logged-out-of-order", "conflict", "decrease-among-columns"],
)
def test_log_that_fails_a_register_check_names_the_log_and_the_line(tmp_path, lines, line, error, reason):
    path = tmp_path / "readings.ndjson"
    path.write_bytes(b"".join(lines) + b'{"meter_id": "M1", "timest')  # a torn tail is not a line that counts
    with pytest.raises(StoreLogError) as err:
        TelemetryStore(path)
    assert (err.value.path, err.value.line_number, err.value.reason) == (path, line, reason)
    assert str(err.value) == "{} line {}: {}".format(path, line, reason)
    assert type(err.value.__cause__) is error


# -- NDJSON -------------------------------------------------------------------


def record_line(index: int, meter: str = "M1", ascii_only: bool = True) -> bytes:
    """The ``index``-th reading of one rising series as a record: a key
    always comes with the same value, so records never conflict."""
    timestamp = rfc3339(T0 + timedelta(minutes=15 * index))
    record = {"meter_id": meter, "timestamp": timestamp, "obis": "1.8.0", "value_kwh": "{}.250".format(index)}
    return json.dumps(record, ensure_ascii=ascii_only).encode("utf-8")


BLANK_LINES = [b"", b" ", b"\t", b"\r", b" \t\r", b"\x0b", b"\x0c"]
BAD_RECORDS = [
    b'{"meter_id": "M1"}',
    b"[1, 2]",
    b'"text"',
    b"42",
    b"not json",
    b'{"meter_id": "M1", "timest',
    record_line(1).replace(b"1.250", b"abc"),
    record_line(1).replace(b"1.250", b"1.0005"),
    record_line(1).replace(b":15:00Z", b":15:00.5Z"),
    record_line(1).replace(b"1.8.0", b"01.8.0"),
    b"\xff\xfe" + record_line(2),
    record_line(2).replace(b"M1", b"M\xe9"),
    b"[" * 100000,
]


def ndjson_lines(raw_line_breaks: bool):
    """One NDJSON line without its newline: mostly valid records, some
    blank, some bad; with ``raw_line_breaks``, also records whose meter id
    holds a raw U+2028, U+2029 or U+0085."""
    meters = ["M1", "M2", "M\u20281"]
    valid = st.builds(record_line, st.integers(0, 12), st.sampled_from(meters))
    kinds = [valid, valid, valid, st.sampled_from(BLANK_LINES), st.sampled_from(BAD_RECORDS)]
    if raw_line_breaks:
        raw_meters = st.sampled_from(["M\u2028", "M\u2029", "M\x85"])
        kinds.append(st.builds(record_line, st.integers(0, 12), raw_meters, st.just(False)))
    return st.one_of(kinds)


@st.composite
def ndjson_logs(draw):
    """Log bytes: lines ended by ``\\n`` or ``\\r\\n``, then maybe a torn tail."""
    lines = draw(st.lists(st.tuples(ndjson_lines(True), st.sampled_from([b"\n", b"\r\n"])), max_size=8))
    tail = draw(st.one_of(st.just(b""), ndjson_lines(True)))
    return b"".join(line + end for line, end in lines) + tail


class ReplaySpy(TelemetryStore):
    """A store that keeps the columns its log replay ingests."""

    replayed: list = []

    def _ingest(self, batch, persist):
        if not persist:
            self.replayed = batch.runs
        return super()._ingest(batch, persist)


def replay_outcomes(log: bytes) -> tuple:
    """What the old replay loop and the store make of the log ``log``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readings.ndjson"
        path.write_bytes(log)
        try:
            columns, committed = replay_log(path)
            oracle = TelemetryStore()
            oracle.ingest(columns)
            expected = (columns.runs, snapshot(oracle), oracle.stats, len(log) - committed, log[:committed])
        except StoreLogError as exc:
            expected = ("StoreLogError", exc.line_number, str(exc), log)
        try:
            store = ReplaySpy(path)
            actual = (store.replayed, snapshot(store), store.stats, store.dropped_tail_bytes, path.read_bytes())
        except StoreLogError as exc:
            actual = ("StoreLogError", exc.line_number, str(exc), path.read_bytes())
    return expected, actual


@settings(max_examples=300, deadline=None)
@given(ndjson_logs())
@example(b"")
@example(record_line(0) + b"\n" + record_line(1))
@example(record_line(0) + b"\n\n \r\n" + BAD_RECORDS[-1] + b"\n" + record_line(1)[:9])
def test_log_replay_matches_the_old_replay_loop(log):
    expected, actual = replay_outcomes(log)
    assert actual == expected


def written_lines(meter: str, count: int, first: int = 0) -> list[bytes]:
    """Log lines of one rising series, as the store writes them."""
    news = {_to_us(T0) + 900_000_000 * i: 1000 * i + 250 for i in range(first, first + count)}
    return b"".join(_ndjson_records({(meter, "1.8.0"): news})).splitlines(keepends=True)


def reordered(line: bytes) -> bytes:
    """The same record with its keys unsorted: valid, but not canonical."""
    record = json.loads(line)
    return json.dumps({key: record[key] for key in CSV_HEADER}).encode() + b"\n"


# About three chunks: canonical runs of two meters, the second beginning
# inside the first chunk, so both meters' runs cross a chunk boundary.
CHUNKED_LOG = written_lines("M1", 500) + written_lines("M2", 2 * _CHUNK_BYTES // 90)
# The first line of the second chunk: each chunk ends with the first line
# that ends past ``_CHUNK_BYTES`` bytes.
AFTER_BOUNDARY = next(i for i in range(len(CHUNKED_LOG)) if sum(map(len, CHUNKED_LOG[:i])) > _CHUNK_BYTES)
MISSING_FIELD = b'{"meter_id": "M2"}\n'
# Canonical in form, but not times: each field one past its range.
NO_SUCH_TIMES = ["2023-02-29T12:00:00", "0000-06-03T12:00:00", "2024-13-03T12:00:00", "2024-06-00T12:00:00",
                 "2024-06-03T24:00:00", "2024-06-03T12:60:00", "2024-06-03T23:59:60"]


def at_time(time: str):
    return lambda line: written_lines("M2", 1)[0].replace(b"2024-06-03T12:00:00", time.encode())


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize(
    "change",
    [lambda line: line, reordered, lambda line: line[:-1] + b"\r\n", lambda line: MISSING_FIELD]
    + [at_time(time) for time in NO_SUCH_TIMES],
    ids=["canonical", "reordered-keys", "crlf", "missing-field"] + NO_SUCH_TIMES,
)
@pytest.mark.parametrize("tail", [b"", b'{"meter_id": "M2", "timest'], ids=["whole", "torn"])
def test_replay_in_chunks_matches_the_old_replay_loop(offset, change, tail):
    lines = list(CHUNKED_LOG)
    at = AFTER_BOUNDARY + offset
    lines[at] = change(lines[at])
    expected, actual = replay_outcomes(b"".join(lines) + tail)
    assert actual == expected
    if expected[0] == "StoreLogError":
        assert actual[1] == at + 1


def test_a_run_continues_into_the_next_piece():
    pieces = (b"".join(written_lines("M1", 2) + written_lines("M2", 1)), b"".join(written_lines("M2", 1, first=1)))
    columns = read_readings_ndjson(pieces)
    assert [(meter, len(times)) for meter, _, times, _ in columns.runs] == [("M1", 2), ("M2", 2)]


# Meter ids that JSON escapes or that are not ASCII.
METER_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "/", "%", " ", "\u00e9", "\u2028", "\ud800", "\U0001f600", "M", "1"]
LAST_SECOND_US = _to_us(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc))


@st.composite
def log_batches(draw):
    """A batch's new readings as the oracle ``ndjson_records`` takes them:
    per series key, its times (whole seconds from year 1 to 9999) and rising values."""
    keys = draw(st.sets(st.tuples(
        st.one_of(st.text(st.sampled_from(METER_CHARS), max_size=4), st.text(max_size=4)),
        st.sampled_from(["1.8.0", "2.8.0", "99.99.99"]),
    ), min_size=1, max_size=3))
    merges = []
    for key in keys:
        seconds = draw(st.lists(st.integers(_to_us(datetime(1, 1, 1, tzinfo=timezone.utc)) // 10**6,
                                            LAST_SECOND_US // 10**6), min_size=1, max_size=6, unique=True))
        values = draw(st.lists(st.integers(0, 999_999_999), min_size=len(seconds), max_size=len(seconds)))
        merges.append((key, [], [s * 10**6 for s in sorted(seconds)], sorted(values)))
    return merges


FIRST_AND_LAST = [(("M", "1.8.0"), [], [_to_us(datetime(1, 1, 1, tzinfo=timezone.utc)), LAST_SECOND_US], [0, 999_999_999])]
# One series longer than one pass of the writer.
LONG_SERIES = [(("M", "1.8.0"), [], [_to_us(T0) + 10**6 * i for i in range(2 * _CHUNK_RECORDS + 1)],
                list(range(2 * _CHUNK_RECORDS + 1)))]


@settings(max_examples=300, deadline=None)
@given(log_batches())
@example(FIRST_AND_LAST)
@example(LONG_SERIES)
def test_log_writer_matches_the_per_record_encoder(merges):
    log = b"".join(_ndjson_records({key: dict(zip(times, values)) for key, _, times, values in merges}))
    assert log == ndjson_records(merges)
    assert _add_canonical(ReadingColumns(), _NDJSON_RUN, log, 2, json.loads)  # read back as columns
    expected, actual = replay_outcomes(log)
    assert actual == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(ndjson_lines(False), max_size=8), st.sampled_from([b"\n", b"\r\n"]), st.booleans())
@example([record_line(0), b"", record_line(1)], b"\r\n", False)
def test_post_body_reader_matches_the_old_splitlines_parser(lines, newline, final_newline):
    body = newline.join(lines) + (newline if final_newline else b"")
    try:
        expected = ReadingColumns(post_readings(body)).runs
    except RECORD_ERRORS:
        expected = "refused"
    for pieces in (io.BytesIO(body), (body,)):  # a line at a time, or the whole body as the service passes it
        try:
            actual = read_readings_ndjson(pieces).runs
        except ReadingsFormatError:
            actual = "refused"
        assert actual == expected


# -- CSV ----------------------------------------------------------------------


def csv_file(directory: Path, text: str) -> Path:
    """``text`` as the UTF-8 file ``readings.csv`` in ``directory``."""
    path = directory / "readings.csv"
    path.write_bytes(text.encode())
    return path


def test_csv_roundtrip(tmp_path):
    batch = grid_batch(["1.000", "1.100", "1.250"])
    path = tmp_path / "readings.csv"
    write_readings_csv(path, batch)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert list(read_readings_csv(path)) == batch


def test_csv_malformed_row_names_its_line(tmp_path):
    for bad_row in (
        "M1,not-a-time,1.8.0,2.0",
        "M1,2024-06-03T12:15:00Z,1.8.0,Infinity",
        "M1,2024-06-03T12:15:00Z,1.8.0,1.0005",
        "M1,2024-06-03T12:15:00.5Z,1.8.0,2.0",
        "M1,2024-06-03T12:15:00Z,1.8.0,x",
        "M1,2024-06-03T12:15:00Z,1.8.0,NaN",
        'M1,2024-06-03T12:15:00Z,"1.8.0\n",2.0',
        "M1,2024-06-03T12:15:00Z,1.8.0,1E-1000030",
        "M1,2024-06-03T12:15:00Z,1.8.0,1e-999999999999",
        '"' + "m" * 100_000 + "\n" + "m" * 100_000 + '",x',  # over csv's field size limit, on lines 3 and 4
    ):
        text = "meter_id,timestamp,obis,value_kwh\nM1,2024-06-03T12:00:00Z,1.8.0,1.0\n" + bad_row + "\n"
        with pytest.raises(ReadingsFormatError) as err:
            read_readings_csv(csv_file(tmp_path, text))
        assert err.value.line_number == 3
        assert "line 3" in str(err.value)


@pytest.mark.parametrize(
    "value, reason",
    [("x", "value_kwh 'x' is not a decimal number"), ("NaN", "value_kwh 'NaN' is not a decimal number"),
     ("-Infinity", "value_kwh '-Infinity' is not a decimal number"), ("-1", "register values lie in [0, 1000000) kWh")],
    ids=["not-a-number", "nan", "minus-infinity", "negative"],
)
def test_csv_value_error_names_the_value_and_the_line_where_its_row_starts(tmp_path, value, reason):
    # The first row's quoted meter id spans lines 2-3 and the third's holds a
    # lone \r, which ends no line, so the bad row starts on line 6.
    text = CSV_TEXT + '"M\n1",2024-06-03T12:00:00Z,1.8.0,1.0\nM1,2024-06-03T12:00:00Z,1.8.0,1.0\n'
    text += '"a\rb",2024-06-03T12:00:00Z,1.8.0,1.0\n'
    with pytest.raises(ReadingsFormatError) as err:
        read_readings_csv(csv_file(tmp_path, text + "M1,2024-06-03T12:15:00Z,1.8.0,{}\n".format(value)))
    assert (err.value.line_number, err.value.reason) == (6, reason)


def test_csv_that_is_not_utf8_names_the_line_of_the_byte(tmp_path):
    path = tmp_path / "readings.csv"
    path.write_bytes(CSV_TEXT.encode() + b"M1,2024-06-03T12:00:00Z,1.8.0,1.0\nM\xff1,2024-06-03T12:15:00Z,1.8.0,1.0\n")
    with pytest.raises(ReadingsFormatError) as err:
        read_readings_csv(path)
    assert str(err.value) == "{} line 3: byte 0xFF is not UTF-8 text".format(path)
    assert (err.value.path, err.value.line_number) == (path, 3)


def test_csv_day_that_does_not_exist_names_its_line_in_a_long_file(tmp_path):
    # Read as columns by numpy's text-to-datetime64 cast, such a day in a
    # file of more than a few hundred rows crashed the process.
    rows = ["M1,2024-01-{:02d}T{:02d}:00:00Z,1.8.0,{}.000".format(1 + i // 24, i % 24, i) for i in range(600)]
    text = CSV_TEXT + "\n".join(rows + ["M1,2023-02-29T00:00:00Z,1.8.0,999.000"]) + "\n"
    with pytest.raises(ReadingsFormatError) as err:
        read_readings_csv(csv_file(tmp_path, text))
    assert err.value.line_number == 602


def test_csv_rejects_wrong_header_and_empty_file(tmp_path):
    with pytest.raises(ReadingsFormatError):
        read_readings_csv(csv_file(tmp_path, "a,b,c,d\n"))
    with pytest.raises(ReadingsFormatError):
        read_readings_csv(csv_file(tmp_path, ""))


def test_canonical_file_is_read_as_columns(tmp_path):
    batch = grid_batch(["0.000", "12.345", "999999.999"]) + grid_batch(["7.000"], meter="M10")
    path = tmp_path / "readings.csv"
    write_readings_csv(path, batch)
    columns = _read_canonical_csv(path.read_bytes())
    assert columns is not None
    assert [run[0] for run in columns.runs] == ["M1", "M10"]
    assert list(columns) == batch
    assert len(columns) == len(batch)


# Meter id pieces that csv quotes, that a %-template would read, or that are not ASCII.
CSV_METER_PIECES = [",", '"', "\n", "\r", "%", "%s", "%b", " ", "\u00e9", "\U0001f600", "\ud800", "M", "1"]
CSV_ZONES = [timezone.utc, timezone(timedelta(hours=1)), timezone(timedelta(hours=-1)),
             timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-23, minutes=-59))]


def in_utc_years(t: datetime) -> bool:
    try:
        return bool(t.astimezone(timezone.utc))
    except OverflowError:
        return False


@st.composite
def csv_batches(draw):
    """Readings in interleaved runs of up to three meters and two registers,
    at whole-second times from year 1 to 9999 in UTC given in any of
    ``CSV_ZONES``, with values from 0.000 to 999999.999."""
    meters = draw(st.lists(st.lists(st.sampled_from(CSV_METER_PIECES), max_size=4).map("".join),
                           min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.sampled_from(meters), st.sampled_from([OBIS_180, OBIS_280]),
                                   st.integers(1, 5)), max_size=6))
    times = st.datetimes(timezones=st.sampled_from(CSV_ZONES)).map(lambda t: t.replace(microsecond=0)).filter(
        in_utc_years)
    values = st.one_of(st.sampled_from([0, 999_999_999]), st.integers(0, 999_999_999))
    return [MeterReading(meter, draw(times), register, Decimal(draw(values)).scaleb(-3))
            for meter, register, count in runs for _ in range(count)]


def written_csv(readings) -> str:
    """The text of the file ``write_readings_csv`` writes for ``readings``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readings.csv"
        write_readings_csv(path, readings)
        return path.read_bytes().decode()


FIRST_AND_LAST_READINGS = [
    MeterReading(",%s", datetime(1, 1, 1, tzinfo=timezone.utc), OBIS_180, Decimal("0.000")),
    MeterReading(",%s", datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc), OBIS_180, Decimal("999999.999")),
    MeterReading("", datetime(1, 1, 1, 5, 30, tzinfo=CSV_ZONES[3]), OBIS_280, Decimal("1.000")),
    MeterReading("", datetime(9999, 12, 31, 22, 59, 59, tzinfo=CSV_ZONES[2]), OBIS_280, Decimal("2.000")),
]
# Runs longer than one pass of the writer, one of a meter id csv quotes.
LONG_RUNS = [reading(i, "{}.000".format(i), meter) for meter in ("M1", '"%b\n"') for i in range(_CHUNK_RECORDS + 3)]


@settings(max_examples=300, deadline=None)
@given(csv_batches())
@example(FIRST_AND_LAST_READINGS)
@example(LONG_RUNS)
@example([reading(0, "1.000", "a\rb"), reading(15, "1.100", "a\rb")])  # a lone \r is quoted, so it reads back
@example([reading(0, "1.000"), reading(0, "1.000", "bad\ud800")])  # M1's run comes before the id that cannot be written
def test_csv_writer_matches_the_row_writer(readings):
    text = readings_csv(readings)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readings.csv"
        try:
            text.encode()
        except UnicodeEncodeError:  # a meter id with a lone surrogate, which no UTF-8 file holds
            with pytest.raises(UnicodeEncodeError):
                write_readings_csv(path, readings)
            assert not path.exists()  # nothing is written, not even the runs before that meter's
            return
        write_readings_csv(path, readings)
        assert path.read_bytes() == text.encode()
        assert list(read_readings_csv(path)) == readings


CSV_TEXT = "meter_id,timestamp,obis,value_kwh\n"


@st.composite
def csv_texts(draw):
    """Readings CSV text: all rows canonical, or canonical and non-canonical
    rows mixed (offsets, dates that do not exist, short, long or too fine
    values, CRLF, quoting, bad fields, no final newline)."""

    def pick(canonical, others):
        return draw(st.sampled_from(canonical if strict else canonical + others))

    strict = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        meter = pick(["S1", "S10", "M 1"], ['"S1"', "", "S1,x"])
        ts = draw(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)))
        fields = [ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second]
        if draw(st.integers(0, 9)) == 0:  # a date or time that may not exist
            fields = [draw(st.integers(0, 9999)), *(draw(st.integers(0, 61)) for _ in range(5))]
        timestamp = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format(*fields) + pick(["Z"], ["+02:00", "Q"])
        obis = pick(["1.8.0", "2.8.0"], ["01.8.0"])
        value = pick(["{}.{:03d}"], ["{}", "{}.5", "{}.{:03d}5", "1{:06d}.000"])
        value = value.format(draw(st.integers(0, 999999)), draw(st.integers(0, 999)))
        rows.append(",".join([meter, timestamp, obis, value]) + pick(["\n"], ["\r\n"]))
    text = CSV_TEXT + "".join(rows)
    return text if strict or not rows or draw(st.booleans()) else text.rstrip("\n")


def parse_outcome(parse, text):
    """What ``parse`` reads of ``text``: its readings, or its error's line and reason.
    ``read_readings_csv`` reads ``text`` from a file, any other parser from a text stream."""
    try:
        if parse is read_readings_csv:
            with tempfile.TemporaryDirectory() as tmp:
                return list(parse(csv_file(Path(tmp), text)))
        return list(parse(io.StringIO(text, newline="")))
    except ReadingsFormatError as exc:
        return ("ReadingsFormatError", exc.line_number, exc.reason)


@settings(max_examples=400, deadline=None)
@given(csv_texts())
@example(CSV_TEXT + "S1,2024-02-29T23:59:59Z,1.8.0,999999.999\nS1,2024-03-01T00:00:00Z,1.8.0,0.001\n")
@example(CSV_TEXT + "S1,2023-02-29T00:00:00Z,1.8.0,1.000\n")
@example(CSV_TEXT + "S1,0000-06-01T00:00:00Z,1.8.0,1.000\n")
@example(CSV_TEXT + "S1,0001-01-01T00:00:00Z,1.8.0,0.000\nS10,9999-12-31T23:59:59Z,2.8.0,1.000\n")
def test_csv_columns_match_the_row_parser(text):
    rows = parse_outcome(_read_csv_rows, text)
    columns = _read_canonical_csv(text.encode())
    if columns is not None:
        assert list(columns) == rows
    assert parse_outcome(read_readings_csv, text) == rows


# Values at and past the bounds of each field of a stamp: year, month, day, hour, minute, second.
STAMP_EDGES = [(0, 1, 1900, 2000, 2023, 2024, 9999), (0, 1, 2, 12, 13, 99), (0, 1, 28, 29, 30, 31, 32, 99),
               (0, 23, 24, 99), (0, 59, 60, 99), (0, 59, 60, 99)]


@st.composite
def canonical_texts(draw):
    """The same readings as canonical CSV rows and as canonical log lines:
    up to four runs of one to five lines, values from 0.000 to 999999.999
    and times from year 1 to 9999.  Half the texts also set a third of
    their stamps' fields, one field each, to a value at or past its bound
    (year 0, Feb 29 or 30, hour 24, second 60, ...), and now and then draw
    a meter that is not ASCII, a register that is not a canonical OBIS
    code, or a line that is not canonical (an offset, a short value)."""

    def pick(canonical, other):
        return draw(st.sampled_from([canonical] * 9 + ([] if strict else [other])))

    strict = draw(st.booleans())
    valid = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
        lambda t: (t.year, t.month, t.day, t.hour, t.minute, t.second))
    rows, records = [], []
    for _ in range(draw(st.integers(0, 4))):
        meter, obis = pick("S1", "m\u00e9") + draw(st.sampled_from(["", " 1", "%b"])), pick("1.8.0", "01.8.0")
        for _ in range(draw(st.integers(1, 5))):
            fields = draw(valid)
            if not strict and draw(st.integers(0, 2)) == 0:
                i = draw(st.integers(0, 5))
                fields = fields[:i] + (draw(st.sampled_from(STAMP_EDGES[i])),) + fields[i + 1:]
            stamp = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format(*fields) + pick("Z", "+00:00")
            whole = draw(st.one_of(st.sampled_from([0, 999999]), st.integers(0, 999999)))
            value = pick("{}.{:03d}", "{}.{:02d}").format(whole, draw(st.integers(0, 999)))
            rows.append("{},{},{},{}\n".format(meter, stamp, obis, value))
            records.append('{{"meter_id": {}, "obis": "{}", "timestamp": "{}", "value_kwh": "{}"}}\n'.format(
                json.dumps(meter), obis, stamp, value))
    return "".join(rows), "".join(records)


def canonical_outcome(add, columns_re, data, tail, meter_id):
    columns = ReadingColumns()
    return columns.runs if add(columns, columns_re, data, tail, meter_id) else "refused"


@settings(max_examples=300, deadline=None)
@given(canonical_texts())
@example(("S1,2024-02-30T00:00:00Z,1.8.0,1.000\n", '{"meter_id": "S1", "obis": "1.8.0", '
          '"timestamp": "2024-02-30T00:00:00Z", "value_kwh": "1.000"}\n'))
@example(("S1,0001-01-01T00:00:00Z,1.8.0,0.000\nS1,9999-12-31T23:59:59Z,1.8.0,999999.999\n"
          "M 1,2024-02-29T12:00:00Z,2.8.0,7.010\n", ""))
def test_canonical_reader_matches_the_line_slicing_reader(texts):
    """``_add_canonical``'s arithmetic on the bytes reads the same columns as
    the string slices it replaced, and refuses the same texts.  The CSV
    reader took only ASCII files to that reader; the log reader decoded its
    chunks as latin-1."""
    rows, records = texts
    data = rows.encode()
    expected = canonical_outcome(add_canonical, CSV_RUN, rows, 0, str) if rows.isascii() else "refused"
    assert canonical_outcome(_add_canonical, _CSV_RUN, data, 0, bytes.decode) == expected
    data = records.encode()
    expected = canonical_outcome(add_canonical, NDJSON_RUN, data.decode("latin-1"), 2, json.loads)
    assert canonical_outcome(_add_canonical, _NDJSON_RUN, data, 2, json.loads) == expected


def test_canonical_reader_takes_the_stamps_numpy_takes():
    """Each date of the edge years, months and days at noon, and each time
    of the edge hours, minutes and seconds on 2024-01-01, reads or is
    refused as the line-slicing reader reads it: alone, and after over a
    thousand stamps that read (where numpy's cast of bytes crashes on one
    that does not exist)."""
    stamps = [date + (12, 0, 0) for date in product(*STAMP_EDGES[:3])]
    stamps += [(2024, 1, 1) + time for time in product(*STAMP_EDGES[3:])]
    lines = ["S1,{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z,1.8.0,1.000\n".format(*stamp) for stamp in stamps]
    read = []
    for line in lines:
        expected = canonical_outcome(add_canonical, CSV_RUN, line, 0, str)
        assert canonical_outcome(_add_canonical, _CSV_RUN, line.encode(), 0, bytes.decode) == expected
        read += [line] if expected != "refused" else []
    many = "".join(read) * (1000 // len(read) + 1)
    for text in (many, many + next(line for line in lines if line not in read)):
        expected = canonical_outcome(add_canonical, CSV_RUN, text, 0, str)
        assert canonical_outcome(_add_canonical, _CSV_RUN, text.encode(), 0, bytes.decode) == expected


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.integers(0, 10**9 - 1), st.integers(10**9 - 10**6, 10**9 - 1)),
    st.one_of(st.integers(0, 10**9 - 1), st.integers(0, 10**6)),
    st.integers(180_000_002, 3_600_000_000).flatmap(
        lambda gap: st.tuples(st.integers(90_000_001, gap - 90_000_001), st.just(gap))
    ),
)
@example(999_999_999, 999_999, (90_000_001, 3_600_000_000))
@example(999_999_999, 2, (600_000_000, 3_600_000_000))  # 3 Wh * 0.16666666666666666: just under a tie
@example(999_000_000, 500, (1_800_000_000, 3_600_000_000))
def test_integer_interpolation_matches_the_decimal_formula(v_prev, v_next, times):
    elapsed, gap = times
    expected = _interpolate(Decimal(v_prev).scaleb(-3), Decimal(v_next).scaleb(-3), elapsed / gap)
    assert Decimal(_interpolate_wh(v_prev, v_next, elapsed, gap)).scaleb(-3) == expected


def test_log_values_have_three_decimals(tmp_path):
    # 2.0000 is a whole number of Wh, so it is accepted despite four decimals.
    path = tmp_path / "readings.ndjson"
    batch = [reading(0, "1"), reading(15, "1.5"), reading(30, "2.0000")]
    TelemetryStore(path).ingest(batch)
    logged = [json.loads(line)["value_kwh"] for line in path.read_text(encoding="utf-8").splitlines()]
    assert logged == ["1.000", "1.500", "2.000"]
    assert [row.split(",")[-1] for row in written_csv(batch).splitlines()[1:]] == logged  # the CSV writes them so too


def test_rfc3339_roundtrip():
    assert rfc3339(T0) == "2024-06-03T12:00:00Z"
    first = datetime(1, 1, 1, tzinfo=timezone.utc)
    assert rfc3339(first) == "0001-01-01T00:00:00Z"
    assert parse_rfc3339(rfc3339(first)) == first
    with pytest.raises(ValueError):
        parse_rfc3339("0001-01-01T00:00:00+01:00")  # before year 1 in UTC
    assert parse_rfc3339("2024-06-03T12:00:00Z") == T0
    assert parse_rfc3339("2024-06-03T14:00:00+02:00") == T0
    with pytest.raises(ValueError):
        parse_rfc3339("2024-06-03T12:00:00")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["M1", "M2", ""]),
            st.sampled_from([OBIS_180, OBIS_280, ObisCode(1, 8, 0)]),
            st.integers(-10**9, 10**9),
            st.integers(0, 10**9 - 1),
        ),
        max_size=30,
    )
)
def test_reading_columns_group_runs_as_the_add_loop_does(rows):
    """Meters and registers interleave; an equal register object continues a run."""
    readings = [
        MeterReading(meter, T0 + timedelta(seconds=seconds), register, Decimal(wh).scaleb(-3))
        for meter, register, seconds, wh in rows
    ]
    assert ReadingColumns(iter(readings)).runs == add_readings(ReadingColumns(), readings).runs


@st.composite
def reading_columns(draw) -> ReadingColumns:
    """Up to five runs, of two meters (one needing CSV quoting) and two registers, each of 1-6 readings."""
    columns = ReadingColumns()
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 6))
        t0 = _to_us(T0) + draw(st.integers(-10**6, 10**6)) * 10**6
        columns.extend(draw(st.sampled_from(["M1", 'M "2", a'])), draw(st.sampled_from([OBIS_180, OBIS_280])),
                       list(range(t0, t0 + n * 900 * 10**6, 900 * 10**6)),
                       draw(st.lists(st.integers(0, REGISTER_MODULUS_WH - 1), min_size=n, max_size=n)))
    return columns


@settings(max_examples=200, deadline=None)
@given(reading_columns(), st.data())
def test_reading_columns_index_and_slice_as_a_tuple_of_their_readings(columns, data):
    readings = tuple(columns)
    n = len(readings)
    assert len(columns) == n and columns == readings and readings == columns
    for i in range(-n, n):
        assert columns[i] == readings[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            columns[i]
    bound = st.none() | st.integers(-n - 2, n + 2)
    index = slice(data.draw(bound), data.draw(bound), data.draw(st.none() | st.integers(-4, 4).filter(bool)))
    picked = columns[index]
    assert isinstance(picked, ReadingColumns)
    assert picked == readings[index] and picked.runs == ReadingColumns(readings[index]).runs


@settings(max_examples=50, deadline=None)
@given(reading_columns())
def test_csv_of_columns_is_the_csv_of_their_readings(columns):
    assert written_csv(columns) == written_csv(list(columns))
