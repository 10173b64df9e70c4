"""Daily 96-slot mean-power profiles built from grid-aligned samples.

Days follow the meter's civil calendar (default Europe/Warsaw) while the
underlying samples stay in UTC.  Days whose local calendar does not have
exactly 96 slots (DST transitions) are excluded and reported, as are days
falling below the completeness threshold and days with no sample at all.
Samples whose local time lies outside the years 1-9999 are dropped, and a
local day whose start or end cannot be held as a ``datetime`` is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from typing import TextIO
from zoneinfo import ZoneInfo

import numpy as np

from .personas import SLOTS_PER_DAY
from .store import _EPOCH, _SLOT_US, _US, PowerSeries, _to_us, csv_field

# Day and slot assignment works in integer microseconds since the Unix epoch.
_EPOCH_ORDINAL = _EPOCH.toordinal()
_DAY_US = timedelta(days=1) // _US

DEFAULT_MIN_COMPLETENESS = 0.9
DEFAULT_TIMEZONE = "Europe/Warsaw"


@dataclass(frozen=True, eq=False)
class DailyProfiles:
    """One meter's kept days as a (days x 96) matrix of mean power in watts.

    Row ``i`` holds local day ``days[i]``, its gaps filled, and
    ``completeness[i]`` is the fraction of its slots that had a sample.
    """

    meter_id: str
    days: tuple[date, ...]
    values: np.ndarray
    completeness: tuple[float, ...]

    def __post_init__(self):
        if np.shape(self.values) != (len(self.days), SLOTS_PER_DAY) or len(self.completeness) != len(self.days):
            raise ValueError("profiles need 96 values and one completeness per day")
        if not (np.isfinite(self.values).all() and (self.values >= 0).all()):
            raise ValueError("profile values must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.days)


@dataclass(frozen=True)
class ExcludedDay:
    meter_id: str
    day: date
    reason: str


def build_daily_profiles(
    series: PowerSeries,
    min_completeness: float = DEFAULT_MIN_COMPLETENESS,
    tz_name: str = DEFAULT_TIMEZONE,
) -> tuple[DailyProfiles, list[ExcludedDay]]:
    """Group one meter's samples into daily profiles; fill small gaps by interpolation.

    Completeness is the fraction of the 96 slots carrying a measured or
    interpolated sample.  Days at or above ``min_completeness`` get their
    missing slots filled by linear interpolation across the day (edges
    held constant); days below it, days with no sample, and days with a
    non-96-slot local calendar are excluded with a reason.  Two samples
    share a local slot only where the offset turns back, on such a day.
    """
    tz = ZoneInfo(tz_name)
    # The (sorted) samples from local 0001-01-01 00:00 until 10000-01-01 00:00.
    first, end = _to_us(datetime.min.replace(tzinfo=tz)), _to_us(datetime.max.replace(tzinfo=tz)) + 1
    lo, hi = np.searchsorted(series.starts_us, [first, end])
    utc_us, watts = series.starts_us[lo:hi], series.watts[lo:hi]
    if not len(utc_us):
        return DailyProfiles(series.meter_id, (), np.empty((0, SLOTS_PER_DAY)), ()), []
    present = ~np.isnan(watts)
    power = np.where(watts > 0.0, watts, 0.0)  # max(0.0, w)

    local_us = utc_us + _utc_offsets_us(utc_us, tz)
    days, day_of = np.unique(local_us // _DAY_US, return_inverse=True)
    slot = local_us % _DAY_US // _SLOT_US

    # One row per local day, NaN where no sample is present.
    grid = np.full((len(days), SLOTS_PER_DAY), np.nan)
    grid[day_of[present], slot[present]] = power[present]
    counts = (~np.isnan(grid)).sum(axis=1).tolist()
    filled = _fill_gaps(grid)

    kept: list[int] = []
    local_days = [date.fromordinal(_EPOCH_ORDINAL + day) for day in days.tolist()]
    excluded: list[ExcludedDay] = []
    for g, local_day in enumerate(local_days):
        expected = _slots_in_local_day(local_day, tz)
        completeness = counts[g] / SLOTS_PER_DAY
        if expected is None:
            excluded.append(ExcludedDay(series.meter_id, local_day, "day starts or ends outside the years 1-9999"))
        elif expected != SLOTS_PER_DAY:
            excluded.append(ExcludedDay(series.meter_id, local_day, "{}-slot day (DST transition)".format(expected)))
        elif completeness < min_completeness:
            reason = "completeness {:.2f} below {:.2f}".format(completeness, min_completeness)
            excluded.append(ExcludedDay(series.meter_id, local_day, reason))
        elif not counts[g]:
            excluded.append(ExcludedDay(series.meter_id, local_day, "no samples"))
        else:
            kept.append(g)
    profiles = DailyProfiles(
        series.meter_id,
        tuple(local_days[g] for g in kept),
        filled[kept],
        tuple(counts[g] / SLOTS_PER_DAY for g in kept),
    )
    return profiles, excluded


def _utc_offsets_us(utc_us: np.ndarray, tz: ZoneInfo) -> np.ndarray:
    """UTC offset of ``tz`` at each of the strictly increasing instants, in
    microseconds.

    The offset is looked up at the first and last instant of each UTC day
    that holds samples, and at every instant of a day where the two differ
    (a transition, about twice a year).  An offset that changes and changes
    back between two instants of one UTC day would be missed.
    """
    points = utc_us.tolist()
    offsets = np.empty(len(points), dtype=np.int64)

    def offset(i: int) -> int:
        local = (_EPOCH + timedelta(microseconds=points[i])).astimezone(tz)
        return local.utcoffset() // _US

    days = [0, *(np.flatnonzero(np.diff(utc_us // _DAY_US)) + 1).tolist(), len(points)]
    for lo, end in zip(days, days[1:]):
        first, last = offset(lo), offset(end - 1)
        offsets[lo:end] = first if first == last else [offset(i) for i in range(lo, end)]
    return offsets


def regular_days(start: date, days: int) -> int:
    """How many of the ``days`` local days from ``start`` in
    ``DEFAULT_TIMEZONE`` have 96 slots, that is, are not excluded."""
    tz = ZoneInfo(DEFAULT_TIMEZONE)
    return sum(_slots_in_local_day(start + timedelta(days=i), tz) == SLOTS_PER_DAY for i in range(days))


def _slots_in_local_day(day: date, tz: ZoneInfo) -> int | None:
    """The slots of local ``day``, or ``None`` when its start or end lies
    outside the years 1-9999 (as a local date or in UTC)."""
    # Same-tzinfo subtraction is wall-clock arithmetic; go through UTC so
    # DST transition days really count 92 or 100 slots.
    try:
        start = datetime.combine(day, time(0, 0), tzinfo=tz).astimezone(timezone.utc)
        end = datetime.combine(day + timedelta(days=1), time(0, 0), tzinfo=tz).astimezone(timezone.utc)
    except OverflowError:
        return None
    return int((end - start) / timedelta(minutes=15))


def _fill_gaps(grid: np.ndarray) -> np.ndarray:
    """Fill the NaN slots of a (days x 96) grid by linear interpolation
    between each row's nearest known slots, holding the edges constant; a
    row with no known slot stays NaN.

    ``before + (after - before) * ((slot - prev) / (nxt - prev))`` runs the
    same IEEE operations as the per-slot loop ``tests/oracles.py`` keeps;
    ``np.interp`` does not.
    """
    known = ~np.isnan(grid)
    slot = np.arange(SLOTS_PER_DAY)
    prev = np.maximum.accumulate(np.where(known, slot, -1), axis=1)
    nxt = np.minimum.accumulate(np.where(known, slot, SLOTS_PER_DAY)[:, ::-1], axis=1)[:, ::-1]
    # An edge run holds its one known neighbour; a row with none reads slot 0, NaN.
    prev = np.where(prev < 0, nxt, prev)
    nxt = np.where(nxt == SLOTS_PER_DAY, prev, nxt)
    rows = np.arange(len(grid))[:, None]
    before, after = grid[rows, prev % SLOTS_PER_DAY], grid[rows, nxt % SLOTS_PER_DAY]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where prev == nxt
        inner = before + (after - before) * ((slot - prev) / (nxt - prev))
    return np.where(prev == nxt, before, inner)


def write_profiles_csv(fh: TextIO, profiles: DailyProfiles) -> None:
    """Write profiles to ``fh`` with one column per slot (s00..s95)."""
    fh.write(",".join(["meter_id", "day", "completeness"] + ["s{:02d}".format(i) for i in range(SLOTS_PER_DAY)]) + "\n")
    # Only the meter id can need quoting: it is quoted once, and each row is formatted by one call.
    prefix = csv_field(profiles.meter_id) + ","
    row = "%s,%.4f" + ",%.3f" * SLOTS_PER_DAY + "\n"
    for day, completeness, values in zip(profiles.days, profiles.completeness, profiles.values.tolist()):
        fh.write(prefix + row % (day.isoformat(), completeness, *values))
