"""Daily 96-slot mean-power profiles built from grid-aligned samples.

Days follow the meter's civil calendar (default Europe/Warsaw) while the
underlying samples stay in UTC.  Days whose local calendar does not have
exactly 96 slots (DST transitions) are excluded and reported, as are days
falling below the completeness threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import Sequence, TextIO
from zoneinfo import ZoneInfo

import numpy as np

from .personas import SLOTS_PER_DAY
from .store import _EPOCH, _SLOT_US, _US, PowerSeries

# Day and slot assignment works in integer microseconds since the Unix epoch.
_EPOCH_ORDINAL = _EPOCH.toordinal()
_DAY_US = timedelta(days=1) // _US

DEFAULT_MIN_COMPLETENESS = 0.9
DEFAULT_TIMEZONE = "Europe/Warsaw"


@dataclass(frozen=True)
class DailyProfile:
    meter_id: str
    day: date
    values: tuple[float, ...]
    completeness: float

    def __post_init__(self):
        if len(self.values) != SLOTS_PER_DAY:
            raise ValueError("profile must have exactly 96 values")
        if not all(0 <= v < math.inf for v in self.values):
            raise ValueError("profile values must be finite and non-negative")


@dataclass(frozen=True)
class ExcludedDay:
    meter_id: str
    day: date
    reason: str


def build_daily_profiles(
    series: PowerSeries,
    min_completeness: float = DEFAULT_MIN_COMPLETENESS,
    tz_name: str = DEFAULT_TIMEZONE,
) -> tuple[list[DailyProfile], list[ExcludedDay]]:
    """Group one meter's samples into per-day profiles; fill small gaps by interpolation.

    Completeness is the fraction of the 96 slots carrying a measured or
    interpolated sample.  Days at or above ``min_completeness`` get their
    missing slots filled by linear interpolation across the day (edges
    held constant); days below it, and days with a non-96-slot local
    calendar, are excluded with a reason.  Two samples share a local slot
    only where the offset turns back, on such a day.
    """
    tz = ZoneInfo(tz_name)
    utc_us, watts = series.starts_us, series.watts
    if not len(utc_us):
        return [], []
    present = ~np.isnan(watts)
    power = np.where(watts > 0.0, watts, 0.0)  # max(0.0, w)

    local_us = utc_us + _utc_offsets_us(utc_us, tz)
    days, day_of = np.unique(local_us // _DAY_US, return_inverse=True)
    slot = local_us % _DAY_US // _SLOT_US

    # One row per local day, NaN where no sample is present.
    grid = np.full((len(days), SLOTS_PER_DAY), np.nan)
    grid[day_of[present], slot[present]] = power[present]
    known = ~np.isnan(grid)
    counts = known.sum(axis=1).tolist()

    profiles: list[DailyProfile] = []
    excluded: list[ExcludedDay] = []
    for g, day in enumerate(days.tolist()):
        local_day = date.fromordinal(_EPOCH_ORDINAL + day)
        expected = _slots_in_local_day(local_day, tz)
        completeness = counts[g] / SLOTS_PER_DAY
        if expected != SLOTS_PER_DAY:
            excluded.append(ExcludedDay(series.meter_id, local_day, "{}-slot day (DST transition)".format(expected)))
        elif completeness < min_completeness:
            reason = "completeness {:.2f} below {:.2f}".format(completeness, min_completeness)
            excluded.append(ExcludedDay(series.meter_id, local_day, reason))
        else:
            values = grid[g].tolist()
            if counts[g] < SLOTS_PER_DAY:
                values = _fill_gaps({slot: values[slot] for slot in np.flatnonzero(known[g]).tolist()})
            profiles.append(DailyProfile(series.meter_id, local_day, tuple(values), completeness))
    return profiles, excluded


def _utc_offsets_us(utc_us: np.ndarray, tz: ZoneInfo) -> np.ndarray:
    """UTC offset of ``tz`` at each of the strictly increasing instants, in
    microseconds.

    The offset is looked up at the first and last instant of each UTC day
    that holds samples; where the two differ, the day is bisected down to
    the transition, so ``astimezone`` runs about twice per day and a few
    times per transition rather than once per sample.  An offset that
    changes and changes back between two instants of one UTC day would be
    missed.
    """
    points = utc_us.tolist()
    offsets = np.empty(len(points), dtype=np.int64)

    def offset(i: int) -> int:
        local = (_EPOCH + timedelta(microseconds=points[i])).astimezone(tz)
        return local.utcoffset() // _US

    def fill(lo: int, hi: int, lo_offset: int, hi_offset: int) -> None:
        if lo_offset == hi_offset:
            offsets[lo : hi + 1] = lo_offset
        elif hi == lo + 1:
            offsets[lo], offsets[hi] = lo_offset, hi_offset
        else:
            mid = (lo + hi) // 2
            mid_offset = offset(mid)
            fill(lo, mid, lo_offset, mid_offset)
            fill(mid, hi, mid_offset, hi_offset)

    days = [0, *(np.flatnonzero(np.diff(utc_us // _DAY_US)) + 1).tolist(), len(points)]
    for lo, end in zip(days, days[1:]):
        fill(lo, end - 1, offset(lo), offset(end - 1))
    return offsets


def _slots_in_local_day(day: date, tz: ZoneInfo) -> int:
    # Same-tzinfo subtraction is wall-clock arithmetic; go through UTC so
    # DST transition days really count 92 or 100 slots.
    start = datetime.combine(day, time(0, 0), tzinfo=tz).astimezone(timezone.utc)
    end = datetime.combine(day + timedelta(days=1), time(0, 0), tzinfo=tz).astimezone(
        timezone.utc
    )
    return int((end - start) / timedelta(minutes=15))


def _fill_gaps(present: dict[int, float]) -> tuple[float, ...]:
    """Linear interpolation between known slots; edges held constant."""
    known = sorted(present)
    values = [0.0] * SLOTS_PER_DAY
    for slot in range(SLOTS_PER_DAY):
        if slot in present:
            values[slot] = present[slot]
            continue
        prev = max((s for s in known if s < slot), default=None)
        nxt = min((s for s in known if s > slot), default=None)
        if prev is None and nxt is None:
            raise ValueError("cannot fill a day with no present slots")
        if prev is None:
            values[slot] = present[nxt]
        elif nxt is None:
            values[slot] = present[prev]
        else:
            frac = (slot - prev) / (nxt - prev)
            values[slot] = present[prev] + (present[nxt] - present[prev]) * frac
    return tuple(values)


def write_profiles_csv(target: str | Path | TextIO, profiles: Sequence[DailyProfile]) -> None:
    """Export profiles with one column per slot (s00..s95)."""

    def _write(fh: TextIO) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["meter_id", "day", "completeness"]
            + ["s{:02d}".format(i) for i in range(SLOTS_PER_DAY)]
        )
        for p in profiles:
            writer.writerow(
                [p.meter_id, p.day.isoformat(), "{:.4f}".format(p.completeness)]
                + ["{:.3f}".format(v) for v in p.values]
            )

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(target)
