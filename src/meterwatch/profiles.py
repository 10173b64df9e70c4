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
from typing import Iterable, Sequence, TextIO
from zoneinfo import ZoneInfo

from .store import PowerSample, QUALITY_MISSING

SLOTS_PER_DAY = 96

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

    Completeness is the fraction of the 96 slots carrying a measured or
    interpolated sample.  Days at or above ``min_completeness`` get their
    missing slots filled by linear interpolation across the day (edges
    held constant); days below it, and days with a non-96-slot local
    calendar, are excluded with a reason.
    """
    tz = ZoneInfo(tz_name)
    by_day: dict[tuple[str, date], dict[int, float]] = {}
    for sample in samples:
        local = sample.slot_start.astimezone(tz)
        day = local.date()
        slot = local.hour * 4 + local.minute // 15
        bucket = by_day.setdefault((sample.meter_id, day), {})
        if sample.quality != QUALITY_MISSING and sample.mean_power_w is not None:
            bucket[slot] = max(0.0, sample.mean_power_w)
        else:
            bucket.setdefault(slot, None)  # type: ignore[arg-type]

    profiles: list[DailyProfile] = []
    excluded: list[ExcludedDay] = []
    for (meter_id, day), bucket in sorted(by_day.items()):
        expected = _slots_in_local_day(day, tz)
        if expected != SLOTS_PER_DAY:
            excluded.append(
                ExcludedDay(meter_id, day, "{}-slot day (DST transition)".format(expected))
            )
            continue
        present = {slot: v for slot, v in bucket.items() if v is not None}
        completeness = len(present) / SLOTS_PER_DAY
        if completeness < min_completeness:
            excluded.append(
                ExcludedDay(
                    meter_id,
                    day,
                    "completeness {:.2f} below {:.2f}".format(completeness, min_completeness),
                )
            )
            continue
        profiles.append(
            DailyProfile(meter_id, day, _fill_gaps(present), completeness)
        )
    return profiles, excluded


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
