from __future__ import annotations

import io
import math
from datetime import date, datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import profiles_through_store
from meterwatch.profiles import (
    SLOTS_PER_DAY,
    DailyProfiles,
    ExcludedDay,
    _fill_gaps,
    build_daily_profiles,
    write_profiles_csv,
)
from meterwatch.store import _INTERPOLATED, _MEASURED, _MISSING, _SLOT_US, _to_us, PowerSeries

# Local midnight in Warsaw during summer time is 22:00 UTC the evening before.
DAY_START_UTC = datetime(2024, 6, 2, 22, 0, tzinfo=timezone.utc)


def day_samples(values, meter="M1", start=DAY_START_UTC) -> PowerSeries:
    """Consecutive 15-minute samples from ``start``; ``None`` is a missing one."""
    starts = _to_us(start) + _SLOT_US * np.arange(len(values), dtype=np.int64)
    watts = np.array([math.nan if v is None else v for v in values])
    return PowerSeries(meter, starts, watts, np.where(np.isnan(watts), _MISSING, _MEASURED))


def test_full_day_of_constant_power():
    profiles, excluded = build_daily_profiles(day_samples([400.0] * 96))
    assert excluded == []
    assert len(profiles) == 1
    assert profiles.meter_id == "M1"
    assert profiles.days == (date(2024, 6, 3),)
    assert profiles.values.tolist() == [[400.0] * 96]
    assert profiles.completeness == (1.0,)


def test_half_missing_day_is_excluded_with_reason():
    values = [300.0] * 50 + [None] * 46
    profiles, excluded = build_daily_profiles(day_samples(values), min_completeness=0.9)
    assert len(profiles) == 0
    assert len(excluded) == 1
    assert "0.52" in excluded[0].reason


def test_small_gaps_are_interpolated_and_edges_held():
    values = [None, 100.0] + [100.0] * 40 + [None, None, 400.0] + [100.0] * 51
    assert len(values) == 96
    profiles, excluded = build_daily_profiles(day_samples(values), min_completeness=0.9)
    assert len(profiles) == 1
    p = profiles.values[0]
    assert p[0] == 100.0  # edge held from first present slot
    assert p[42] == pytest.approx(200.0)  # linear ramp 100 -> 400
    assert p[43] == pytest.approx(300.0)
    assert profiles.completeness[0] == pytest.approx(93 / 96)


def test_simulated_month_retains_all_days(s4_month):
    profiles, excluded, _ = profiles_through_store(s4_month)
    assert len(profiles) >= 25
    assert len(profiles) == 30
    assert excluded == []
    assert profiles.completeness == (1.0,) * 30


def test_day_without_samples_is_excluded_at_any_floor():
    values = [200.0] * 96 + [None] * 96 + [300.0] * 96
    for floor, reason in ((0.0, "no samples"), (0.5, "completeness 0.00 below 0.50")):
        profiles, excluded = build_daily_profiles(day_samples(values), min_completeness=floor)
        assert profiles.days == (date(2024, 6, 3), date(2024, 6, 5))
        assert [(e.day.isoformat(), e.reason) for e in excluded] == [("2024-06-04", reason)]


def test_dst_transition_day_is_excluded():
    # Europe/Warsaw 2024-10-27 has 25 local hours = 100 slots.
    start = datetime(2024, 10, 26, 22, 0, tzinfo=timezone.utc)
    samples = day_samples([100.0] * 100, start=start)
    profiles, excluded = build_daily_profiles(samples)
    assert len(profiles) == 0
    assert len(excluded) == 1
    assert excluded[0].day.isoformat() == "2024-10-27"
    assert "100-slot" in excluded[0].reason


def test_profile_validation():
    days = tuple(date(2024, 6, 3) + timedelta(days=i) for i in range(3))
    DailyProfiles("M1", days, np.ones((3, 96)), (1.0,) * 3)
    with pytest.raises(ValueError, match="96 values"):
        DailyProfiles("M1", days, np.ones((3, 95)), (1.0,) * 3)
    with pytest.raises(ValueError, match="one completeness per day"):
        DailyProfiles("M1", days, np.ones((3, 96)), (1.0,) * 2)
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        values = np.ones((3, 96))
        values[1, 40] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            DailyProfiles("M1", days, values, (1.0,) * 3)


def test_profiles_csv_has_96_value_columns(s4_month):
    profiles, _, _ = profiles_through_store(s4_month)
    buf = io.StringIO()
    write_profiles_csv(buf, oracles.profile_rows(profiles, range(3)))
    lines = buf.getvalue().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["meter_id", "day", "completeness"]
    assert len(header) == 3 + 96
    assert header[3] == "s00"
    assert header[-1] == "s95"
    assert len(lines) == 4


@settings(max_examples=200, deadline=None)
@given(
    st.text(min_size=1, max_size=12) | st.sampled_from(["S1", 'a,"b"', "m%s", "x\ny", "a\rb", " lead"]),
    st.lists(
        st.tuples(
            st.lists(st.floats(0, 1e7, allow_nan=False) | st.sampled_from([0.0005, 0.0015, 2.4995]), min_size=1, max_size=9),
            st.floats(0, 1, allow_nan=False),
        ),
        max_size=4,
    ),
)
def test_profiles_csv_matches_the_per_value_writer(meter_id, rows):
    """Ids that csv must quote, and values on a rounding tie at three places
    (each row repeats its few drawn values over the 96 slots)."""
    values = np.array([np.resize(r, SLOTS_PER_DAY) for r, _ in rows]).reshape(-1, SLOTS_PER_DAY)
    profiles = oracles.profiles_from_matrix(values, meter_id)
    profiles = DailyProfiles(meter_id, profiles.days, profiles.values, tuple(c for _, c in rows))
    buf = io.StringIO()
    write_profiles_csv(buf, profiles)
    assert buf.getvalue() == oracles.profiles_csv(profiles)


PROFILE_ZONES = ["Europe/Warsaw", "UTC", "Asia/Kathmandu", "Australia/Lord_Howe", "America/St_Johns"]
# Offset changes: Warsaw and St John's DST in 2024, Lord Howe's half-hour
# DST in 2024, Kathmandu's +05:30 -> +05:45 on 1986-01-01; and a plain day.
FIRST_DAYS = [
    date(2024, 3, 31), date(2024, 10, 27), date(2024, 3, 10), date(2024, 11, 3),
    date(2024, 4, 7), date(2024, 10, 6), date(1986, 1, 1), date(2024, 6, 3),
]


@st.composite
def profile_inputs(draw):
    """Up to three local days of one meter's samples around an offset
    change, with missing (NaN) and absent slots, as a ``PowerSeries``.

    Each day loses either no slots, exactly as many as the completeness
    floor allows, one more, or all of them.  Per-sample choices come from one seeded
    ``random.Random`` to keep examples fast.
    """
    tz_name = draw(st.sampled_from(PROFILE_ZONES))
    tz = ZoneInfo(tz_name)
    first_day = draw(st.sampled_from(FIRST_DAYS)) - timedelta(days=draw(st.integers(0, 1)))
    start = datetime.combine(first_day, time(0, 0), tzinfo=tz).astimezone(timezone.utc)
    start_us = _to_us(start) + _SLOT_US * draw(st.sampled_from([0, 0, -3, 5]))
    allowed = draw(st.integers(0, 12))
    rnd = draw(st.randoms(use_true_random=True))
    days = draw(st.integers(1, 3))
    missing = set()
    for d in range(days):
        lost = rnd.choice([0, 0, allowed, allowed, allowed + 1, 96])
        missing |= {96 * d + i for i in rnd.sample(range(96), lost)}
    starts, watts, codes = [], [], []
    for i in range(96 * days):
        if i in missing and rnd.random() < 0.3:
            continue  # absent: the series skips the slot
        starts.append(start_us + i * _SLOT_US)
        if i in missing:
            watts.append(math.nan)
            codes.append(_MISSING)
        else:
            watts.append(rnd.choice([rnd.uniform(-50.0, 5000.0), 0.0, -0.0, 250.0]))
            codes.append(rnd.choice([_MEASURED, _INTERPOLATED]))
    series = PowerSeries("M1", np.array(starts, np.int64), np.array(watts, float), np.array(codes, np.int64))
    return series, (96 - allowed) / 96, tz_name


@settings(max_examples=200, deadline=None)
@given(profile_inputs())
def test_profiles_match_the_sample_by_sample_builder(inputs):
    series, min_completeness, tz_name = inputs
    profiles, excluded = build_daily_profiles(series, min_completeness, tz_name)
    expected_profiles, expected_excluded = oracles.build_daily_profiles(list(series), min_completeness, tz_name)
    assert excluded == expected_excluded
    assert [(profiles.meter_id, day, c) for day, c in zip(profiles.days, profiles.completeness)] == [
        (p.meter_id, p.day, p.completeness) for p in expected_profiles
    ]
    for row, expected in zip(profiles.values.tolist(), expected_profiles):
        assert [v.hex() for v in row] == [float(v).hex() for v in expected.values]


@st.composite
def gap_grids(draw):
    """(days x 96) grids with NaN gaps.  Each row keeps 0-96 known slots,
    often with a missing run at either edge or both; rows with no known
    slot occur.  Values come from one seeded ``random.Random``."""
    rnd = draw(st.randoms(use_true_random=True))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        lead = draw(st.sampled_from([0, 0, 1, 30]))
        trail = draw(st.sampled_from([0, 0, 1, 30]))
        inside = range(lead, SLOTS_PER_DAY - trail)
        known = rnd.sample(inside, draw(st.integers(0, len(inside))))
        row = [math.nan] * SLOTS_PER_DAY
        for slot in known:
            row[slot] = rnd.choice([rnd.uniform(0.0, 5000.0), 0.0, 250.0, rnd.uniform(0.0, 1e-3)])
        rows.append(row)
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(gap_grids())
def test_fill_gaps_matches_the_per_slot_loop(grid):
    filled = _fill_gaps(grid)
    assert filled.shape == grid.shape
    for row, got in zip(grid.tolist(), filled.tolist()):
        present = {slot: v for slot, v in enumerate(row) if not math.isnan(v)}
        if present:
            assert [v.hex() for v in got] == [v.hex() for v in oracles.fill_gaps(present)]
        else:
            assert all(math.isnan(v) for v in got)



@pytest.mark.parametrize(
    "tz_name, outside",
    [
        # Ahead of UTC: local 0001-01-01 begins in the UTC year 0, and local
        # 10000-01-01 at 9999-12-31T23:00Z, so the last samples are dropped.
        ("Europe/Warsaw", [date(1, 1, 1), date(9999, 12, 31)]),
        # Behind UTC: the first samples fall in the local year 0 and are
        # dropped; local 9999-12-31 ends past the last UTC instant.
        ("America/St_Johns", [date(9999, 12, 31)]),
    ],
)
def test_samples_past_the_local_calendar_are_dropped(tz_name, outside):
    first, last = (_to_us(datetime(*day, tzinfo=timezone.utc)) for day in ((1, 1, 1), (9999, 12, 31, 23, 45)))
    starts = np.concatenate([first + _SLOT_US * np.arange(3 * 96), last - _SLOT_US * np.arange(7 * 96)[::-1]])
    series = PowerSeries("M1", starts, np.full(len(starts), 100.0), np.zeros(len(starts), np.int64))
    profiles, excluded = build_daily_profiles(series, 0.9, tz_name)
    reason = "day starts or ends outside the years 1-9999"
    assert [e.day for e in excluded if e.reason == reason] == outside
    assert date(1, 1, 2) in profiles.days and date(9999, 12, 30) in profiles.days
    assert (profiles.values == 100.0).all()
