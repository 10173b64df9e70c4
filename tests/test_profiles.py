from __future__ import annotations

import io
from datetime import datetime, timedelta, timezone

import pytest

from conftest import profiles_through_store
from meterwatch.profiles import (
    DailyProfile,
    build_daily_profiles,
    write_profiles_csv,
)
from meterwatch.store import (
    PowerSample,
    QUALITY_MEASURED,
    QUALITY_MISSING,
)

# Local midnight in Warsaw during summer time is 22:00 UTC the evening before.
DAY_START_UTC = datetime(2024, 6, 2, 22, 0, tzinfo=timezone.utc)


def day_samples(values, meter="M1", start=DAY_START_UTC):
    samples = []
    for i, v in enumerate(values):
        quality = QUALITY_MEASURED if v is not None else QUALITY_MISSING
        samples.append(
            PowerSample(meter, start + timedelta(minutes=15 * i), v, quality)
        )
    return samples


def test_full_day_of_constant_power():
    profiles, excluded = build_daily_profiles(day_samples([400.0] * 96))
    assert excluded == []
    assert len(profiles) == 1
    profile = profiles[0]
    assert profile.day.isoformat() == "2024-06-03"
    assert profile.values == (400.0,) * 96
    assert profile.completeness == 1.0


def test_half_missing_day_is_excluded_with_reason():
    values = [300.0] * 50 + [None] * 46
    profiles, excluded = build_daily_profiles(day_samples(values), min_completeness=0.9)
    assert profiles == []
    assert len(excluded) == 1
    assert "0.52" in excluded[0].reason


def test_small_gaps_are_interpolated_and_edges_held():
    values = [None, 100.0] + [100.0] * 40 + [None, None, 400.0] + [100.0] * 51
    assert len(values) == 96
    profiles, excluded = build_daily_profiles(day_samples(values), min_completeness=0.9)
    assert len(profiles) == 1
    p = profiles[0].values
    assert p[0] == 100.0  # edge held from first present slot
    assert p[42] == pytest.approx(200.0)  # linear ramp 100 -> 400
    assert p[43] == pytest.approx(300.0)
    assert profiles[0].completeness == pytest.approx(93 / 96)


def test_simulated_month_retains_all_days(s4_month):
    profiles, excluded, _ = profiles_through_store(s4_month)
    assert len(profiles) >= 25
    assert len(profiles) == 30
    assert excluded == []
    assert all(p.completeness == 1.0 for p in profiles)


def test_dst_transition_day_is_excluded():
    # Europe/Warsaw 2024-10-27 has 25 local hours = 100 slots.
    start = datetime(2024, 10, 26, 22, 0, tzinfo=timezone.utc)
    samples = day_samples([100.0] * 100, start=start)
    profiles, excluded = build_daily_profiles(samples)
    assert profiles == []
    assert len(excluded) == 1
    assert excluded[0].day.isoformat() == "2024-10-27"
    assert "100-slot" in excluded[0].reason


def test_profile_validation():
    with pytest.raises(ValueError):
        DailyProfile("M1", DAY_START_UTC.date(), (1.0,) * 95, 1.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DailyProfile("M1", DAY_START_UTC.date(), (bad,) + (1.0,) * 95, 1.0)


def test_profiles_csv_has_96_value_columns(s4_month):
    profiles, _, _ = profiles_through_store(s4_month)
    buf = io.StringIO()
    write_profiles_csv(buf, profiles[:3])
    lines = buf.getvalue().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["meter_id", "day", "completeness"]
    assert len(header) == 3 + 96
    assert header[3] == "s00"
    assert header[-1] == "s95"
    assert len(lines) == 4
