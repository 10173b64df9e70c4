"""Telemetry store: reading ingestion, grid alignment, mean-power series.

Readings are keyed by (meter_id, register, timestamp); ingestion is
idempotent and validates register monotonicity (allowing the rollover at
the display modulus) before committing anything, so the final store state
does not depend on arrival order.  Persistence is an append-only
newline-delimited JSON file with the whole index held in memory.

Power derivation: cumulative readings are snapped or interpolated onto
the 15-minute grid, then each slot's mean power is the energy delta
between consecutive grid values divided by the slot length
(``(E2 - E1) * 4 * 1000`` watts).
"""

from __future__ import annotations

import csv
import json
import os
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from itertools import accumulate, repeat
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .protocol import ObisCode, REGISTER_MODULUS_KWH

QUALITY_MEASURED = "measured"
QUALITY_INTERPOLATED = "interpolated"
QUALITY_MISSING = "missing"

SLOT = timedelta(minutes=15)
SNAP_TOLERANCE = timedelta(seconds=90)
MAX_INTERPOLATION_GAP = timedelta(hours=1)
# Ten years of 15-minute slots: the longest span one grid read may cover.
MAX_GRID_SLOTS = 3653 * 96

# The grid pass works in integer microseconds since the Unix epoch.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
_SLOT_US = SLOT // _US
_SNAP_US = SNAP_TOLERANCE // _US
_GAP_US = MAX_INTERPOLATION_GAP // _US
# Quality codes of the grid pass, indexing _QUALITIES; ordered so that a
# power sample's quality is the larger code of its two boundaries.
_MEASURED, _INTERPOLATED, _MISSING = 0, 1, 2
_QUALITIES = np.array([QUALITY_MEASURED, QUALITY_INTERPOLATED, QUALITY_MISSING], dtype=object)

# A register drop counts as display rollover only when the old value sits
# near the top of the range and the new one near the bottom.
_ROLLOVER_HIGH = REGISTER_MODULUS_KWH * Decimal("0.9")
_ROLLOVER_LOW = REGISTER_MODULUS_KWH * Decimal("0.1")

CSV_HEADER = ["meter_id", "timestamp", "obis", "value_kwh"]


class StoreError(Exception):
    pass


class ConflictingDuplicate(StoreError):
    """Same (meter, register, timestamp) key ingested with another value."""


class NonMonotonicRegister(StoreError):
    """Register decreased without a plausible rollover."""


class SpanTooLong(StoreError):
    """A grid read would cover more than ``MAX_GRID_SLOTS`` slots."""


class ReadingsCsvError(StoreError):
    """A readings CSV file violates the expected format."""

    def __init__(self, line_number: int, reason: str):
        super().__init__("line {}: {}".format(line_number, reason))
        self.line_number = line_number
        self.reason = reason


class StoreLogError(StoreError):
    """A committed line of the store's append log does not parse."""

    def __init__(self, path: Path, line_number: int, reason: str):
        super().__init__("{} line {}: {}".format(path, line_number, reason))
        self.line_number = line_number


@dataclass(frozen=True)
class MeterReading:
    meter_id: str
    timestamp: datetime
    register: ObisCode
    value_kwh: Decimal

    def __post_init__(self):
        if self.timestamp.tzinfo is None:
            raise ValueError("reading timestamps must be timezone-aware")
        if not 0 <= self.value_kwh < REGISTER_MODULUS_KWH:
            raise ValueError("register values lie in [0, {}) kWh".format(REGISTER_MODULUS_KWH))


@dataclass(frozen=True)
class GridReading:
    """A register value placed on a 15-minute boundary."""

    slot_start: datetime
    value_kwh: Decimal | None
    quality: str


@dataclass(frozen=True)
class PowerSample:
    meter_id: str
    slot_start: datetime
    mean_power_w: float | None
    quality: str


@dataclass
class StoreStats:
    readings_accepted: int = 0
    duplicates_dropped: int = 0
    out_of_order: int = 0
    rollovers_detected: int = 0

    def add(self, other: "StoreStats") -> None:
        self.readings_accepted += other.readings_accepted
        self.duplicates_dropped += other.duplicates_dropped
        self.out_of_order += other.out_of_order
        self.rollovers_detected += other.rollovers_detected

    def to_json_dict(self) -> dict:
        return {
            "readings_accepted": self.readings_accepted,
            "duplicates_dropped": self.duplicates_dropped,
            "out_of_order": self.out_of_order,
            "rollovers_detected": self.rollovers_detected,
        }


def is_rollover(old: Decimal, new: Decimal) -> bool:
    return new < old and old > _ROLLOVER_HIGH and new < _ROLLOVER_LOW


def register_delta_kwh(old: Decimal, new: Decimal) -> Decimal:
    """Energy between two register values, unwrapping the display rollover."""
    if new >= old:
        return new - old
    return new - old + REGISTER_MODULUS_KWH


class TelemetryStore:
    """Single-writer reading store with an in-memory index.

    Each (meter, register) series is two parallel lists, ``times`` and
    ``values``, kept sorted by time, so lookups and grid reads bisect
    instead of sorting.  When constructed with a path, accepted readings
    are appended to that newline-delimited JSON file and replayed on open.
    A record counts as committed once its newline is on disk: a final
    fragment without one (a torn append) is cut from the file on open and
    its size kept in ``dropped_tail_bytes``.  Reads and writes are
    serialized through one lock; readers always observe the state left by
    the last completed ingest.
    """

    def __init__(self, path: str | Path | None = None):
        self._series: dict[tuple[str, str], tuple[list[datetime], list[Decimal]]] = {}
        self._lock = threading.RLock()
        self._path = Path(path) if path is not None else None
        self.stats = StoreStats()
        self.dropped_tail_bytes = 0
        if self._path is not None and self._path.exists():
            self._replay(self._path)

    def _replay(self, path: Path) -> None:
        readings = []
        committed = 0  # bytes up to and including the last newline
        with open(path, "rb") as fh:
            for line_number, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    break
                committed += len(line)
                if line.strip():
                    try:
                        readings.append(reading_from_record(json.loads(line.decode("utf-8"))))
                    except (ValueError, KeyError, TypeError, InvalidOperation) as exc:
                        raise StoreLogError(path, line_number, str(exc)) from exc
        if readings:
            self._ingest_validated(readings, persist=False)
        torn = path.stat().st_size - committed
        if torn:
            with open(path, "r+b") as fh:
                fh.truncate(committed)
            self.dropped_tail_bytes = torn

    # -- ingestion ----------------------------------------------------------

    def ingest(self, batch: Iterable[MeterReading]) -> StoreStats:
        """Validate and commit a batch atomically; returns the stats delta.

        Re-ingesting any batch is a no-op (identical duplicates are
        dropped).  Nothing is committed when any reading conflicts or when
        appending to the log fails.

        Raises:
            ConflictingDuplicate: same key seen with a different value.
            NonMonotonicRegister: a register decrease that is not a
                rollover, checked against time-adjacent neighbours in the
                merged (stored + incoming) timeline.
            OSError: the log append failed; the log is cut back to its
                previous length where it could be opened.
        """
        with self._lock:
            return self._ingest_validated(list(batch), persist=True)

    def _ingest_validated(self, batch: Sequence[MeterReading], persist: bool) -> StoreStats:
        delta = StoreStats()
        fresh: dict[tuple[str, str], dict[datetime, Decimal]] = {}
        for reading in batch:
            key = (reading.meter_id, str(reading.register))
            ts = reading.timestamp.astimezone(timezone.utc)
            pending = fresh.get(key)
            known = pending.get(ts) if pending is not None else None
            if known is None:
                known = self._stored_value(key, ts)
            if known is not None:
                if known == reading.value_kwh:
                    delta.duplicates_dropped += 1
                    continue
                raise ConflictingDuplicate(
                    "{} {} at {}: stored {} vs new {}".format(
                        key[0], key[1], ts.isoformat(), known, reading.value_kwh
                    )
                )
            if pending is None:
                pending = fresh[key] = {}
            pending[ts] = reading.value_kwh

        merges = []
        for key, news in fresh.items():
            times, values = self._series.get(key, ((), ()))
            new_times = sorted(news)
            new_values = [news[t] for t in new_times]
            positions = _check_neighbours(key, times, values, new_times, new_values, delta)
            if times:
                delta.out_of_order += bisect_left(new_times, times[-1])
            merges.append((key, positions, new_times, new_values))
            delta.readings_accepted += len(news)

        if persist and self._path is not None and delta.readings_accepted:
            self._append(_ndjson_records(merges))
        for key, positions, new_times, new_values in merges:
            times, values = self._series.setdefault(key, ([], []))
            _insert_sorted(times, positions, new_times)
            _insert_sorted(values, positions, new_values)
        self.stats.add(delta)
        return delta

    def _stored_value(self, key: tuple[str, str], ts: datetime) -> Decimal | None:
        series = self._series.get(key)
        if series is None:
            return None
        times, values = series
        i = bisect_left(times, ts)
        if i < len(times) and times[i] == ts:
            return values[i]
        return None

    def _append(self, data: bytes) -> None:
        """Append ``data`` to the log, or leave the log as it was and raise."""
        with open(self._path, "ab", buffering=0) as fh:
            start = fh.seek(0, os.SEEK_END)
            try:
                view = memoryview(data)
                while view:
                    view = view[fh.write(view):]
            except OSError:
                fh.truncate(start)
                raise

    # -- queries ------------------------------------------------------------

    def meters(self) -> list[str]:
        with self._lock:
            return sorted({meter for meter, _ in self._series})

    def registers(self, meter_id: str) -> list[ObisCode]:
        with self._lock:
            return sorted(
                ObisCode.parse(obis) for meter, obis in self._series if meter == meter_id
            )

    def readings(self, meter_id: str, register: ObisCode) -> list[MeterReading]:
        with self._lock:
            times, values = self._series.get((meter_id, str(register)), ((), ()))
            return [
                MeterReading(meter_id, ts, register, value)
                for ts, value in zip(times, values)
            ]

    def span(self, meter_id: str, register: ObisCode) -> tuple[datetime, datetime] | None:
        with self._lock:
            series = self._series.get((meter_id, str(register)))
            if series is None:
                return None
            times = series[0]
            return times[0], times[-1]

    def snapshot(self) -> dict[tuple[str, str], dict[datetime, Decimal]]:
        """Deep copy of the index, for state-equality checks."""
        with self._lock:
            return {key: dict(zip(times, values)) for key, (times, values) in self._series.items()}

    # -- derivation ---------------------------------------------------------

    def align_to_grid(
        self, meter_id: str, register: ObisCode, start: datetime, end: datetime
    ) -> list[GridReading]:
        """Place readings onto each 15-minute boundary in [start, end].

        A reading within 90 s of a boundary snaps to it (nearest wins,
        earlier on ties).  Otherwise the boundary value is linearly
        interpolated when its two enclosing readings are at most one hour
        apart; boundaries without such neighbours are marked missing.

        Raises:
            SpanTooLong: [start, end] holds more than ``MAX_GRID_SLOTS`` slots.
        """
        starts, values, codes = self._grid(meter_id, register, start, end)
        return list(map(GridReading, starts, values, _QUALITIES[codes].tolist()))

    def mean_power_series(
        self, meter_id: str, register: ObisCode, start: datetime, end: datetime
    ) -> list[PowerSample]:
        """15-minute mean power from consecutive grid values.

        A sample is missing when either endpoint is missing, interpolated
        when either endpoint was interpolated, measured otherwise.

        Raises:
            SpanTooLong: [start, end] holds more than ``MAX_GRID_SLOTS`` slots.
        """
        starts, values, codes = self._grid(meter_id, register, start, end)
        quality = _QUALITIES[np.maximum(codes[:-1], codes[1:])].tolist()
        powers = [
            None if a is None or b is None else float(register_delta_kwh(a, b)) * 4000.0
            for a, b in zip(values, values[1:])
        ]
        return list(map(PowerSample, repeat(meter_id), starts, powers, quality))

    def _grid(
        self, meter_id: str, register: ObisCode, start: datetime, end: datetime
    ) -> tuple[list[datetime], list[Decimal | None], np.ndarray]:
        """Boundary times, values and quality codes for ``align_to_grid``.

        One array pass: the window's reading times become epoch
        microseconds, each boundary finds its enclosing readings by
        ``searchsorted``, and masks pick snap, interpolation or missing.
        Measured boundaries take the stored ``Decimal``; only interpolated
        ones do ``Decimal`` arithmetic.
        """
        start = start.astimezone(timezone.utc)
        end = end.astimezone(timezone.utc)
        start_us, end_us = (start - _EPOCH) // _US, (end - _EPOCH) // _US
        if (end_us - start_us) // _SLOT_US > MAX_GRID_SLOTS:
            raise SpanTooLong(
                "{} {}: {} to {} holds more than {} slots (ten years)".format(
                    meter_id, register, rfc3339(start), rfc3339(end), MAX_GRID_SLOTS
                )
            )
        with self._lock:
            times, values = self._series.get((meter_id, str(register)), ((), ()))
            # Every boundary in [start, end] lies between these readings.
            lo = max(bisect_left(times, start) - 1, 0)
            hi = bisect_right(times, end) + 1
            times, values = times[lo:hi], values[lo:hi]
        first_us = -(-start_us // _SLOT_US) * _SLOT_US
        count = (end_us - first_us) // _SLOT_US + 1
        if count <= 0:
            return [], [], np.full(0, _MISSING)
        first = _EPOCH + timedelta(microseconds=first_us)
        starts = list(accumulate(repeat(SLOT, count - 1), initial=first))
        if not times:
            return starts, [None] * count, np.full(count, _MISSING)
        bounds = first_us + _SLOT_US * np.arange(count, dtype=np.int64)
        t = np.fromiter(((ts - _EPOCH) // _US for ts in times), np.int64, len(times))
        after = np.searchsorted(t, bounds)  # first reading at or after each boundary
        before = np.maximum(after - 1, 0)
        has_before, has_after = after > 0, after < len(t)
        after = np.minimum(after, len(t) - 1)
        gap_before, gap_after = bounds - t[before], t[after] - bounds
        snap_before = has_before & (gap_before <= _SNAP_US)
        snap_after = has_after & (gap_after <= _SNAP_US)
        # Nearest reading within the snap tolerance; earlier wins a tie.
        take_after = snap_after & ~(snap_before & (gap_before <= gap_after))
        measured = snap_before | snap_after
        interpolated = ~measured & has_before & has_after & (t[after] - t[before] <= _GAP_US)
        source = np.where(take_after, after, np.where(measured, before, len(t)))
        grid_values = list(map([*values, None].__getitem__, source.tolist()))
        for k in np.flatnonzero(interpolated).tolist():
            i, j = int(before[k]), int(after[k])
            fraction = (int(bounds[k]) - int(t[i])) / (int(t[j]) - int(t[i]))
            grid_values[k] = _interpolate(values[i], values[j], fraction)
        codes = np.where(measured, _MEASURED, np.where(interpolated, _INTERPOLATED, _MISSING))
        return starts, grid_values, codes


def _check_neighbours(
    key: tuple[str, str],
    times: Sequence[datetime],
    values: Sequence[Decimal],
    new_times: list[datetime],
    new_values: list[Decimal],
    delta: StoreStats,
) -> list[int]:
    """Check every time-adjacent pair that holds a new reading, in time order.

    ``new_times`` is sorted and disjoint from the stored ``times``.  Each
    new reading is checked against its predecessor in the merged timeline
    and, when that is a stored reading, against its successor; rollovers
    are counted into ``delta``.  Returns each new reading's insertion
    index into the stored lists.
    """

    def decrease(t1, v1, t2, v2):
        if is_rollover(v1, v2):
            delta.rollovers_detected += 1
            return
        raise NonMonotonicRegister(
            "{} {}: {} -> {} between {} and {}".format(
                key[0], key[1], v1, v2, t1.isoformat(), t2.isoformat()
            )
        )

    positions = []
    prev_t = prev_v = None
    j = 0
    stored = len(times)
    last = len(new_times) - 1
    for i, (t, v) in enumerate(zip(new_times, new_values)):
        j = bisect_left(times, t, j)
        positions.append(j)
        if j > 0 and (prev_t is None or times[j - 1] > prev_t):
            prev_t, prev_v = times[j - 1], values[j - 1]
        if prev_t is not None and v < prev_v:
            decrease(prev_t, prev_v, t, v)
        if j < stored and (i == last or times[j] < new_times[i + 1]) and values[j] < v:
            decrease(t, v, times[j], values[j])
        prev_t, prev_v = t, v
    return positions


def _insert_sorted(items: list, positions: list[int], news: list) -> None:
    """Insert ``news[i]`` before ``items[positions[i]]`` (positions non-decreasing)."""
    first = positions[0]
    if first == len(items):
        items.extend(news)
        return
    tail = items[first:]
    del items[first:]
    done = first
    for j, item in zip(positions, news):
        items.extend(tail[done - first : j - first])
        items.append(item)
        done = j
    items.extend(tail[done - first :])


def _ndjson_records(merges: list[tuple[tuple[str, str], list[int], list[datetime], list[Decimal]]]) -> bytes:
    """Log lines for a batch's new readings, by series key, then by time."""
    lines = []
    for (meter_id, obis), _, new_times, new_values in sorted(merges, key=lambda merge: merge[0]):
        for ts, value in zip(new_times, new_values):
            record = {
                "meter_id": meter_id,
                "timestamp": rfc3339(ts),
                "obis": obis,
                "value_kwh": str(value),
            }
            lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode("utf-8")


def _interpolate(v_prev: Decimal, v_next: Decimal, fraction: float) -> Decimal:
    """Register value ``fraction`` of the way from ``v_prev`` to ``v_next``,
    across a rollover, to the meter's 0.001 kWh resolution."""
    if v_next < v_prev and is_rollover(v_prev, v_next):
        v_next = v_next + REGISTER_MODULUS_KWH
    value = v_prev + (v_next - v_prev) * Decimal(str(fraction))
    value = value % REGISTER_MODULUS_KWH
    return value.quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN)


# -- interchange formats ------------------------------------------------------


def rfc3339(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).replace(tzinfo=None, microsecond=0).isoformat() + "Z"


def parse_rfc3339(text: str) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError("timestamp {!r} lacks a timezone".format(text))
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError as exc:
        raise ValueError("timestamp {!r} lies outside the years 1-9999 in UTC".format(text)) from exc


def reading_to_record(reading: MeterReading) -> dict:
    return {
        "meter_id": reading.meter_id,
        "timestamp": rfc3339(reading.timestamp),
        "obis": str(reading.register),
        "value_kwh": str(reading.value_kwh),
    }


def reading_from_record(record: dict) -> MeterReading:
    return MeterReading(
        meter_id=str(record["meter_id"]),
        timestamp=parse_rfc3339(str(record["timestamp"])),
        register=ObisCode.parse(str(record["obis"])),
        value_kwh=Decimal(str(record["value_kwh"])),
    )


def write_readings_csv(target: str | Path | TextIO, readings: Iterable[MeterReading]) -> None:
    """Write the readings CSV (header ``meter_id,timestamp,obis,value_kwh``)."""

    def _write(fh: TextIO) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in readings:
            writer.writerow([r.meter_id, rfc3339(r.timestamp), str(r.register), str(r.value_kwh)])

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(target)


def read_readings_csv(source: str | Path | TextIO) -> list[MeterReading]:
    """Parse a readings CSV; malformed rows name their line number.

    Raises:
        ReadingsCsvError: missing/invalid header or an unparsable row.
    """

    def _read(fh: TextIO) -> list[MeterReading]:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ReadingsCsvError(1, "empty file; expected header {}".format(",".join(CSV_HEADER)))
        if [h.strip() for h in header] != CSV_HEADER:
            raise ReadingsCsvError(
                1, "bad header {!r}; expected {}".format(",".join(header), ",".join(CSV_HEADER))
            )
        readings = []
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ReadingsCsvError(line_number, "expected 4 columns, got {}".format(len(row)))
            try:
                readings.append(
                    MeterReading(
                        meter_id=row[0],
                        timestamp=parse_rfc3339(row[1]),
                        register=ObisCode.parse(row[2]),
                        value_kwh=Decimal(row[3]),
                    )
                )
            except (ValueError, InvalidOperation) as exc:
                raise ReadingsCsvError(line_number, str(exc)) from exc
        return readings

    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _read(fh)
    return _read(source)
