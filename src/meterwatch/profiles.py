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
from itertools import repeat
from operator import attrgetter, is_not, ne
from pathlib import Path
from typing import Iterable, Sequence, TextIO
from zoneinfo import ZoneInfo

import numpy as np

from .store import PowerSample, PowerSeries, QUALITY_MISSING

SLOTS_PER_DAY = 96

# Day and slot assignment works in integer microseconds since the Unix epoch.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_US = timedelta(microseconds=1)
_DAY_US = timedelta(days=1) // _US
_SLOT_US = timedelta(minutes=15) // _US

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
    samples: Iterable[PowerSample],
    min_completeness: float = DEFAULT_MIN_COMPLETENESS,
    tz_name: str = DEFAULT_TIMEZONE,
) -> tuple[list[DailyProfile], list[ExcludedDay]]:
    """Group samples into per-day profiles; fill small gaps by interpolation.

    A ``PowerSeries`` is read as its arrays; any other iterable of
    samples, which may mix meters, is first turned into the same columns.

    Completeness is the fraction of the 96 slots carrying a measured or
    interpolated sample.  Days at or above ``min_completeness`` get their
    missing slots filled by linear interpolation across the day (edges
    held constant); days below it, and days with a non-96-slot local
    calendar, are excluded with a reason.  When several samples land in
    one slot, the last present one wins.
    """
    tz = ZoneInfo(tz_name)
    if isinstance(samples, PowerSeries):
        meter_ids, utc_us, watts = [samples.meter_id], samples.starts_us, samples.watts
        meters = np.zeros(len(utc_us), np.int64)
        present = ~np.isnan(watts)
    else:
        samples = list(samples)
        n = len(samples)
        meter_col = list(map(attrgetter("meter_id"), samples))
        meter_ids = sorted(set(meter_col))
        rank = {meter_id: i for i, meter_id in enumerate(meter_ids)}
        meters = np.fromiter(map(rank.__getitem__, meter_col), np.int64, n)
        utc_us = np.fromiter(((s.slot_start - _EPOCH) // _US for s in samples), np.int64, n)
        raw = list(map(attrgetter("mean_power_w"), samples))
        present = np.fromiter(map(is_not, raw, repeat(None)), bool, n) & np.fromiter(
            map(ne, map(attrgetter("quality"), samples), repeat(QUALITY_MISSING)), bool, n
        )
        watts = np.array(raw, dtype=float)
    if not len(utc_us):
        return [], []
    power = np.where(watts > 0.0, watts, 0.0)  # max(0.0, w): NaN and None become 0.0

    local_us = utc_us + _utc_offsets_us(utc_us, tz)
    day = local_us // _DAY_US
    slot = local_us % _DAY_US // _SLOT_US
    first_day = int(day.min())
    days_span = int(day.max()) - first_day + 1
    groups, group_of = np.unique(meters * days_span + (day - first_day), return_inverse=True)

    # One row per (meter, day), NaN where no sample is present.  Reversed,
    # np.unique's first occurrence is the last present sample of a slot.
    cell = (group_of * SLOTS_PER_DAY + slot)[present][::-1]
    cell, last = np.unique(cell, return_index=True)
    grid = np.full((len(groups), SLOTS_PER_DAY), np.nan)
    grid.flat[cell] = power[present][::-1][last]
    known = ~np.isnan(grid)
    counts = known.sum(axis=1).tolist()

    profiles: list[DailyProfile] = []
    excluded: list[ExcludedDay] = []
    for g, key in enumerate(groups.tolist()):
        meter_id = meter_ids[key // days_span]
        local_day = date.fromordinal(_EPOCH_ORDINAL + first_day + key % days_span)
        expected = _slots_in_local_day(local_day, tz)
        completeness = counts[g] / SLOTS_PER_DAY
        if expected != SLOTS_PER_DAY:
            excluded.append(ExcludedDay(meter_id, local_day, "{}-slot day (DST transition)".format(expected)))
        elif completeness < min_completeness:
            reason = "completeness {:.2f} below {:.2f}".format(completeness, min_completeness)
            excluded.append(ExcludedDay(meter_id, local_day, reason))
        else:
            values = grid[g].tolist()
            if counts[g] < SLOTS_PER_DAY:
                values = _fill_gaps({slot: values[slot] for slot in np.flatnonzero(known[g]).tolist()})
            profiles.append(DailyProfile(meter_id, local_day, tuple(values), completeness))
    return profiles, excluded


def _utc_offsets_us(utc_us: np.ndarray, tz: ZoneInfo) -> np.ndarray:
    """UTC offset of ``tz`` at each instant, in microseconds.

    The offset is looked up at the first and last distinct instant of
    each UTC day that holds samples; where the two differ, the day is
    bisected down to the transition, so ``astimezone`` runs about twice
    per day and a few times per transition rather than once per sample.
    An offset that changes and changes back between two instants of one
    UTC day would be missed.
    """
    instants, index = np.unique(utc_us, return_inverse=True)
    points = instants.tolist()
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

    days = [0, *(np.flatnonzero(np.diff(instants // _DAY_US)) + 1).tolist(), len(points)]
    for lo, end in zip(days, days[1:]):
        fill(lo, end - 1, offset(lo), offset(end - 1))
    return offsets[index]


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
