"""Telemetry store: reading ingestion, grid alignment, mean-power series.

Readings are keyed by (meter_id, register, timestamp); ingestion is
idempotent and validates register monotonicity (allowing the rollover at
the display modulus) before committing anything, so the final store state
does not depend on arrival order.  Persistence is an append-only
newline-delimited JSON file with the whole index held in memory.  While
an append of two or more lines runs, the file ``<log>.pending`` beside
the log holds the log's length before it; opening a log that has one (a
crash cut that append short) cuts the log back to that length and
removes the record, so a batch is all or nothing on disk too.

Inside, a reading is two integers: epoch microseconds and its register
value in Wh (the meter's 0.001 kWh resolution); ``datetime`` and
``Decimal`` appear only in the CSV, log and HTTP formats and the views.

Power derivation: cumulative readings are snapped or interpolated onto
the 15-minute grid, then each slot's mean power is the energy delta
between consecutive grid values divided by the slot length
(``(E2 - E1) * 4 * 1000`` watts).
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import threading
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timedelta, timezone
from decimal import Decimal, InvalidOperation
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import attrgetter, eq, lt
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .protocol import ObisCode, REGISTER_MODULUS_KWH, REGISTER_RESOLUTION_KWH

QUALITY_MEASURED = "measured"
QUALITY_INTERPOLATED = "interpolated"
QUALITY_MISSING = "missing"

SLOT = timedelta(minutes=15)
SNAP_TOLERANCE = timedelta(seconds=90)
MAX_INTERPOLATION_GAP = timedelta(hours=1)
# Ten years of 15-minute slots: the longest span one grid read may cover.
MAX_GRID_SLOTS = 3653 * 96

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
_SECOND = timedelta(seconds=1)
_SLOT_US = SLOT // _US
_SNAP_US = SNAP_TOLERANCE // _US
_GAP_US = MAX_INTERPOLATION_GAP // _US
_FIRST, _LAST = (t.replace(tzinfo=timezone.utc) - _EPOCH for t in (datetime.min, datetime.max))  # years 1-9999
# Quality codes of the grid pass, indexing QUALITIES; ordered so that a
# power sample's quality is the larger code of its two boundaries.
_MEASURED, _INTERPOLATED, _MISSING = 0, 1, 2
QUALITIES = np.array([QUALITY_MEASURED, QUALITY_INTERPOLATED, QUALITY_MISSING], dtype=object)

REGISTER_MODULUS_WH = int(REGISTER_MODULUS_KWH) * 1000
# A register drop counts as display rollover only when the old value sits
# near the top of the range and the new one near the bottom.
_ROLLOVER_HIGH_WH = REGISTER_MODULUS_WH * 9 // 10
_ROLLOVER_LOW_WH = REGISTER_MODULUS_WH // 10

CSV_HEADER = ["meter_id", "timestamp", "obis", "value_kwh"]
# Log text one pass of the NDJSON reader takes, and records one pass of the
# log writer formats: bounds on what a replay or a large batch adds to memory.
_CHUNK_BYTES = 2**16
_CHUNK_RECORDS = 2**12
# Fewer lines than this (a streamed POST, say) are read record by record:
# reading them as columns costs more, a few dozen µs in numpy calls.
_MIN_COLUMN_LINES = 10
# CSV text one pass of the column reader takes: the file is in memory already,
# and each pass adds a few times its size in arrays.
_CSV_CHUNK_BYTES = 2**18


class StoreError(Exception):
    pass


class ConflictingDuplicate(StoreError):
    """Same (meter, register, timestamp) key ingested with another value."""


class NonMonotonicRegister(StoreError):
    """Register decreased without a plausible rollover."""


class SpanTooLong(StoreError):
    """A grid read would cover more than ``MAX_GRID_SLOTS`` slots."""


class ReadingsFormatError(StoreError):
    """A readings CSV file or NDJSON record violates the expected format;
    ``path`` names the file read, if there was one."""

    def __init__(self, line_number: int, reason: str, path: str | Path | None = None):
        super().__init__(line_number, reason, path)  # the arguments, so that pickle makes the same error
        self.line_number, self.reason, self.path = line_number, reason, path

    def __str__(self) -> str:
        where = "line" if self.path is None else "{} line".format(self.path)
        return "{} {}: {}".format(where, self.line_number, self.reason)


class StoreLogError(ReadingsFormatError):
    """A committed line of the store's append log does not parse."""


@dataclass(frozen=True)
class MeterReading:
    meter_id: str
    timestamp: datetime
    register: ObisCode
    value_kwh: Decimal

    def __post_init__(self):
        if self.timestamp.tzinfo is None:
            raise ValueError("reading timestamps must be timezone-aware")
        if (self.timestamp - _EPOCH) % _SECOND:
            raise ValueError("timestamp {} is not a whole second".format(self.timestamp.isoformat()))
        if not _FIRST <= self.timestamp - _EPOCH <= _LAST:
            raise ValueError("timestamp {} lies outside the years 1-9999 in UTC".format(self.timestamp.isoformat()))
        if not self.value_kwh.is_finite():
            raise ValueError("value_kwh {!r} is not a decimal number".format(str(self.value_kwh)))
        if not 0 <= self.value_kwh < REGISTER_MODULUS_KWH:
            raise ValueError("register values lie in [0, {}) kWh".format(REGISTER_MODULUS_KWH))
        if self.value_kwh.quantize(REGISTER_RESOLUTION_KWH) != self.value_kwh:  # exact, whatever the exponent
            raise ValueError("register value {} is finer than 0.001 kWh".format(self.value_kwh))


@dataclass(frozen=True)
class PowerSample:
    meter_id: str
    slot_start: datetime
    mean_power_w: float | None
    quality: str


class ReadingColumns(Sequence):
    """A batch of readings as runs ``(meter_id, register, times, values)`` of
    int epoch µs and Wh, one meter and register per run.  A read-only sequence
    that builds a ``MeterReading`` only on access; a slice is ``ReadingColumns``."""

    def __init__(self, readings: Iterable[MeterReading] = ()):
        self.runs: list[tuple[str, ObisCode, list[int], list[int]]] = []
        for (meter_id, register), run in groupby(readings, attrgetter("meter_id", "register")):
            run = list(run)
            times, values = [_to_us(r.timestamp) for r in run], [int(r.value_kwh.scaleb(3)) for r in run]
            self.runs.append((meter_id, register, times, values))

    def extend(self, meter_id: str, register: ObisCode, times: list[int], values: list[int]) -> None:
        """Append a run, taking its lists; it continues the last run when
        that is of the same meter and register."""
        if self.runs and self.runs[-1][:2] == (meter_id, register):
            self.runs[-1][2].extend(times)
            self.runs[-1][3].extend(values)
        else:
            self.runs.append((meter_id, register, times, values))

    def __len__(self) -> int:
        return sum(len(times) for _, _, times, _ in self.runs)

    def __iter__(self):
        for meter_id, register, times, values in self.runs:
            for us, wh in zip(times, values):
                yield MeterReading(meter_id, _to_datetime(us), register, _to_kwh(wh))

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Each reading's run number, time and value as flat lists, sliced, then cut back into runs.
            owners = list(chain.from_iterable(repeat(k, len(run[2])) for k, run in enumerate(self.runs)))[index]
            times, values = (iter(list(chain.from_iterable(run[j] for run in self.runs))[index]) for j in (2, 3))
            picked = ReadingColumns()
            for k, run in groupby(owners):
                n = len(list(run))
                picked.extend(*self.runs[k][:2], list(islice(times, n)), list(islice(values, n)))
            return picked
        i = index + len(self) if index < 0 else index
        for meter_id, register, times, values in self.runs:
            if 0 <= i < len(times):
                return MeterReading(meter_id, _to_datetime(times[i]), register, _to_kwh(values[i]))
            i -= len(times)
        raise IndexError("reading index out of range")

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and len(self) == len(other) and all(map(eq, self, other))


class PowerSeries:
    """One meter's mean-power samples as arrays: slot starts in epoch
    microseconds, watts (NaN exactly when missing) and quality codes.
    Iterating yields ``PowerSample``s, built as it goes."""

    def __init__(self, meter_id: str, starts_us: np.ndarray, watts: np.ndarray, codes: np.ndarray):
        self.meter_id, self.starts_us, self.watts, self.codes = meter_id, starts_us, watts, codes

    def __len__(self) -> int:
        return len(self.starts_us)

    def __iter__(self):
        powers = self.watts.astype(object)
        powers[self.codes == _MISSING] = None
        # Stepping from the first start is much cheaper than converting each one.
        steps = (timedelta(0, 0, step) for step in np.diff(self.starts_us).tolist())
        starts = accumulate(steps, initial=_to_datetime(int(self.starts_us[0]))) if len(self) else ()
        return map(PowerSample, repeat(self.meter_id), starts, powers.tolist(), QUALITIES[self.codes].tolist())


@dataclass
class StoreStats:
    readings_accepted: int = 0
    duplicates_dropped: int = 0
    out_of_order: int = 0
    rollovers_detected: int = 0

    def add(self, other: "StoreStats") -> None:
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))

    def to_json_dict(self) -> dict:
        return asdict(self)


def register_delta_kwh(old: Decimal, new: Decimal) -> Decimal:
    """Energy between two register values, unwrapping the display rollover."""
    if new >= old:
        return new - old
    return new - old + REGISTER_MODULUS_KWH


def _is_rollover(old_wh: int, new_wh: int) -> bool:
    return new_wh < old_wh and old_wh > _ROLLOVER_HIGH_WH and new_wh < _ROLLOVER_LOW_WH


def _to_us(ts: datetime) -> int:
    return (ts - _EPOCH) // _US


def _to_datetime(us: int) -> datetime:
    return _EPOCH + timedelta(0, 0, us)


def _to_kwh(wh: int) -> Decimal:
    return Decimal(wh).scaleb(-3)


class TelemetryStore:
    """Single-writer reading store with an in-memory index.

    Each (meter, register) series is two parallel lists of ints, ``times``
    (epoch microseconds) and ``values`` (Wh), kept sorted by time, so
    lookups and grid reads bisect instead of sorting.  Every batch, from a
    streamed reading to a log replay, goes through one merge over the
    window of stored readings it touches (``_merge_window``).  When
    constructed with a path, accepted readings are appended to that
    newline-delimited JSON file and replayed on open.  A record counts as
    committed once its newline is on disk, and a multi-line append once it
    is all on disk: a final fragment without a newline (a torn append), and
    an append that its ``.pending`` record shows unfinished, are cut from
    the file on open and their size kept in ``dropped_tail_bytes``.  Reads
    and writes are serialized through one lock; readers always observe the
    state left by the last completed ingest.
    """

    def __init__(self, path: str | Path | None = None):
        self._series: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
        self._lock = threading.RLock()
        self._path = Path(path) if path is not None else None
        self.stats = StoreStats()
        self.dropped_tail_bytes = 0
        if self._path is not None and self._path.exists():
            self._replay(self._path)

    def _replay(self, path: Path) -> None:
        pending = _pending_path(path)
        if pending.exists():  # a multi-line append that did not finish: cut it off
            length = pending.read_bytes()
            if not length.isdigit():
                raise StoreLogError(1, "{!r} is not a log length".format(length), pending)
            with open(path, "r+b") as fh:
                self.dropped_tail_bytes = max(fh.seek(0, os.SEEK_END) - int(length), 0)
                if self.dropped_tail_bytes:
                    fh.truncate(int(length))
            pending.unlink()
        committed = 0  # bytes up to and including the last newline

        def committed_chunks(fh):
            nonlocal committed
            while lines := fh.readlines(_CHUNK_BYTES):
                if not lines[-1].endswith(b"\n"):
                    lines.pop()  # a torn final fragment
                chunk = b"".join(lines)
                committed += len(chunk)
                yield chunk

        with open(path, "rb") as fh:
            try:
                readings = read_readings_ndjson(committed_chunks(fh))
            except ReadingsFormatError as exc:
                raise StoreLogError(exc.line_number, exc.reason, path) from exc
        try:
            self._ingest(readings, persist=False)
        except (ConflictingDuplicate, NonMonotonicRegister) as exc:
            raise StoreLogError(_log_line(path, exc.key, exc.times), str(exc), path) from exc
        torn = path.stat().st_size - committed
        if torn:
            with open(path, "r+b") as fh:
                fh.truncate(committed)
            self.dropped_tail_bytes += torn

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
                previous length where it could be opened, and the
                ``.pending`` record of a multi-line append is removed.
        """
        columns = batch if isinstance(batch, ReadingColumns) else ReadingColumns(batch)
        with self._lock:
            return self._ingest(columns, persist=True)

    def _ingest(self, batch: ReadingColumns, persist: bool) -> StoreStats:
        delta = StoreStats()
        # Keys in the order of their first fresh reading, which decides the
        # decrease reported when several keys hold one.
        fresh: dict[tuple[str, str], dict[int, int]] = {}
        for meter_id, register, run_times, run_values in batch.runs:
            key = (meter_id, str(register))
            pending = fresh.get(key, {})
            times, values = self._series.get(key, ((), ()))
            first = {} if pending or times else dict(zip(run_times, run_values))
            if first and len(first) == len(run_times):  # a new series' run of distinct times: all fresh
                fresh[key] = first
                continue
            for t, v in zip(run_times, run_values):
                known = pending.get(t)
                if known is None and times:
                    i = bisect_left(times, t)
                    if i < len(times) and times[i] == t:
                        known = values[i]
                if known is None:
                    pending[t] = v
                elif known == v:
                    delta.duplicates_dropped += 1
                else:
                    error = ConflictingDuplicate("{} {} at {}: stored {} vs new {}".format(
                        *key, _to_datetime(t).isoformat(), _to_kwh(known), _to_kwh(v)))
                    error.key, error.times = key, (t,)  # for _log_line
                    raise error
            if pending:
                fresh.setdefault(key, pending)

        merges = []
        for key, news in fresh.items():
            times, values = self._series.get(key, ((), ()))
            merges.append((key, _merge_window(key, times, values, news, delta)))
            if times:
                delta.out_of_order += sum(map(times[-1].__gt__, news))
            delta.readings_accepted += len(news)

        if persist and self._path is not None and delta.readings_accepted:
            self._append(_ndjson_records(fresh), delta.readings_accepted > 1)
        for key, (lo, hi, t, v) in merges:
            times, values = self._series.setdefault(key, ([], []))
            times[lo:hi], values[lo:hi] = t, v
        self.stats.add(delta)
        return delta

    def _append(self, chunks: Iterable[bytes], several_lines: bool) -> None:
        """Append ``chunks`` to the log in turn, or leave the log as it was
        and raise: an exception while writing or making any chunk cuts the
        log back to its length before the first.  While an append of
        ``several_lines`` runs, the ``.pending`` record holds that length,
        so that opening the log after a crash midway cuts it back too; a
        one-line append needs no record, as its torn line is cut on open."""
        pending = _pending_path(self._path)
        with open(self._path, "ab", buffering=0) as fh:
            start = fh.seek(0, os.SEEK_END)
            try:
                if several_lines:
                    temporary = pending.with_name(pending.name + ".tmp")
                    temporary.write_bytes(b"%d" % start)
                    os.replace(temporary, pending)
                for chunk in chunks:
                    view = memoryview(chunk)
                    while view:
                        view = view[fh.write(view):]
            except BaseException:
                fh.truncate(start)
                raise
            finally:
                if several_lines:
                    pending.unlink(missing_ok=True)

    # -- queries ------------------------------------------------------------

    def meters(self) -> list[str]:
        with self._lock:
            return sorted({meter for meter, _ in self._series})

    def readings(self, meter_id: str, register: ObisCode) -> list[MeterReading]:
        with self._lock:
            times, values = self._series.get((meter_id, str(register)), ((), ()))
            return [MeterReading(meter_id, _to_datetime(us), register, _to_kwh(wh)) for us, wh in zip(times, values)]

    def span(self, meter_id: str, register: ObisCode) -> tuple[datetime, datetime] | None:
        with self._lock:
            times = self._series.get((meter_id, str(register)), ((),))[0]
            return (_to_datetime(times[0]), _to_datetime(times[-1])) if times else None

    # -- derivation ---------------------------------------------------------

    def mean_power_series(self, meter_id: str, register: ObisCode, start: datetime, end: datetime) -> PowerSeries:
        """15-minute mean power from consecutive grid values.

        A sample is missing when either endpoint is missing, interpolated
        when either endpoint was interpolated, measured otherwise.  Each
        present sample's power is ``(Δ Wh / 1000.0) * 4000.0``, the same
        float as ``float(register_delta_kwh(a, b)) * 4000.0``.

        Raises:
            SpanTooLong: [start, end] holds more than ``MAX_GRID_SLOTS`` slots.
        """
        bounds, wh, codes = self._grid(meter_id, register, start, end)
        delta = np.diff(wh)
        delta[delta < 0] += REGISTER_MODULUS_WH
        codes = np.maximum(codes[:-1], codes[1:])
        watts = np.where(codes == _MISSING, np.nan, (delta / 1000.0) * 4000.0)
        return PowerSeries(meter_id, bounds[:-1], watts, codes)

    def _grid(self, meter_id: str, register: ObisCode, start: datetime, end: datetime) -> tuple[np.ndarray, ...]:
        """Boundary times (epoch µs), values (Wh) and quality codes.

        One array pass: each boundary finds its enclosing readings by
        ``searchsorted``, and masks pick snap, interpolation or missing.
        A missing boundary's value is 0.
        """
        start_us, end_us = _to_us(start), _to_us(end)
        if (end_us - start_us) // _SLOT_US > MAX_GRID_SLOTS:
            raise SpanTooLong("{} {}: {} to {} holds more than {} slots (ten years)".format(
                meter_id, register, rfc3339(start), rfc3339(end), MAX_GRID_SLOTS))
        with self._lock:
            times, values = self._series.get((meter_id, str(register)), ((), ()))
            # Every boundary in [start, end] lies between these readings.
            lo = max(bisect_left(times, start_us) - 1, 0)
            hi = bisect_right(times, end_us) + 1
            t = np.array(times[lo:hi], dtype=np.int64)
            v = np.array(values[lo:hi], dtype=np.int64)
        first_us = -(-start_us // _SLOT_US) * _SLOT_US
        count = max((end_us - first_us) // _SLOT_US + 1, 0)
        bounds = first_us + _SLOT_US * np.arange(count, dtype=np.int64)
        if not len(t):
            return bounds, np.zeros(count, np.int64), np.full(count, _MISSING)
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
        wh = np.where(take_after, v[after], np.where(measured, v[before], 0))
        for k in np.flatnonzero(interpolated).tolist():
            i, j = int(before[k]), int(after[k])
            wh[k] = _interpolate_wh(int(v[i]), int(v[j]), int(bounds[k] - t[i]), int(t[j] - t[i]))
        codes = np.where(measured, _MEASURED, np.where(interpolated, _INTERPOLATED, _MISSING))
        return bounds, wh, codes


def _interpolate_wh(v_prev: int, v_next: int, elapsed_us: int, gap_us: int) -> int:
    """Register value ``elapsed_us / gap_us`` of the way from ``v_prev`` to
    ``v_next`` (Wh), across a rollover, rounded half-even to whole Wh.

    Exact integer arithmetic on the decimal the float fraction's ``repr``
    prints, as the ``Decimal`` formula it replaces read it.  Interpolated
    boundaries lie over 90 s from both readings, at most 1 h apart, so the
    fraction is in (0.025, 0.975) with at most 18 decimals, and the kWh sum
    (below 2·10⁶, at most 21 decimals) fits 28 digits: that formula never
    rounded before its final quantize.
    """
    if v_next < v_prev and _is_rollover(v_prev, v_next):
        v_next += REGISTER_MODULUS_WH
    whole, _, decimals = repr(elapsed_us / gap_us).partition(".")
    scale = 10 ** len(decimals)
    exact = (v_prev * scale + (v_next - v_prev) * int(whole + decimals)) % (REGISTER_MODULUS_WH * scale)
    wh, rest = divmod(exact, scale)
    return wh + (2 * rest > scale or (2 * rest == scale and wh % 2))


def _merge_window(
    key: tuple[str, str], times: Sequence[int], values: Sequence[int], news: dict[int, int], delta: StoreStats,
) -> tuple[int, int, list[int], list[int]]:
    """Merge new readings ``{time: value}``, disjoint from the stored
    ``times``, into the stored readings they touch, checking each
    time-adjacent pair that holds a new reading, in time order; rollovers
    are counted into ``delta``.

    The window runs from one stored reading before the earliest new time
    to one after the latest.  Returns ``(lo, hi, t, v)``: the merged
    window's times and values replace ``times[lo:hi]`` and ``values[lo:hi]``.
    """
    lo = max(bisect_left(times, min(news)) - 1, 0)
    hi = bisect_left(times, max(news)) + 1
    merged = dict(zip(times[lo:hi], values[lo:hi]))
    merged.update(news)
    t = sorted(merged)
    v = list(map(merged.__getitem__, t))
    for i in compress(range(1, len(v)), map(lt, islice(v, 1, None), v)):
        if t[i - 1] in news or t[i] in news:
            if not _is_rollover(v[i - 1], v[i]):
                error = NonMonotonicRegister("{} {}: {} -> {} between {} and {}".format(
                    *key, _to_kwh(v[i - 1]), _to_kwh(v[i]), _to_datetime(t[i - 1]).isoformat(),
                    _to_datetime(t[i]).isoformat()))
                error.key, error.times = key, (t[i - 1], t[i])  # for _log_line
                raise error
            delta.rollovers_detected += 1
    return lo, hi, t, v


def _pending_path(log: Path) -> Path:
    """The pending-append record of the store log ``log``: while a multi-line append runs, the log's length before it."""
    return log.with_name(log.name + ".pending")


def _log_line(path: Path, key: tuple[str, str], times: tuple[int, ...]) -> int:
    """The last committed line of the log ``path`` that holds a reading of
    series ``key`` at one of the epoch-µs ``times``: of the readings a check
    refused (the ``key`` and ``times`` of its error), the one logged last."""
    data = path.read_bytes()
    data = data[: data.rfind(b"\n") + 1]  # the committed lines
    # The log's readings come in line order, one from each line that is not blank.
    numbers = (number for number, line in enumerate(data.split(b"\n"), start=1) if line.strip())
    readings = chain.from_iterable(zip(repeat((meter_id, str(register))), run_times)
                                   for meter_id, register, run_times, _ in read_readings_ndjson([data]).runs)
    return max((number for number, (series, t) in zip(numbers, readings) if series == key and t in times), default=0)


def _ndjson_records(fresh: dict[tuple[str, str], dict[int, int]]) -> Iterator[bytes]:
    """Log lines for a batch's new readings ``{key: {time: value}}``, by series key, then by time: each
    its record's ``json.dumps`` with sorted keys, a series' meter id and register encoded once."""
    for (meter_id, obis), news in sorted(fresh.items()):
        head = '{{"meter_id": {}, "obis": {}, "timestamp": "'.format(json.dumps(meter_id), json.dumps(obis))
        line = head.replace("%", "%%").encode("utf-8") + b'%bZ", "value_kwh": "%d.%03d"}\n'
        times = sorted(news)
        yield from _format_readings(line, times, list(map(news.__getitem__, times)))


def _format_readings(line: bytes, times: list[int], values: list[int]) -> Iterator[bytes]:
    """``line % (time, whole kWh, thousandths)`` per reading (µs, Wh), joined ``_CHUNK_RECORDS`` lines a piece."""
    for i in range(0, len(times), _CHUNK_RECORDS):
        chunk = zip(utc_stamps(times[i : i + _CHUNK_RECORDS]), values[i : i + _CHUNK_RECORDS])
        yield b"".join([line % (stamp, wh // 1000, wh % 1000) for stamp, wh in chunk])


def utc_stamps(times_us: Sequence[int] | np.ndarray) -> list[bytes]:
    """Epoch-µs times (years 1-9999) as ``YYYY-MM-DDTHH:MM:SS`` in UTC: the CSV, log and ``/power`` form less ``Z``."""
    return np.array(times_us, dtype="datetime64[us]").astype("datetime64[s]").astype("S19").tolist()


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


def _reading(meter_id: str, timestamp: str, obis: str, value_kwh: str) -> MeterReading:
    """A reading from the text fields of a CSV row or NDJSON record."""
    try:
        value = Decimal(value_kwh)
    except InvalidOperation:
        raise ValueError("value_kwh {!r} is not a decimal number".format(value_kwh)) from None
    return MeterReading(meter_id, parse_rfc3339(timestamp), ObisCode.parse(obis), value)


def read_readings_ndjson(pieces: Iterable[bytes]) -> ReadingColumns:
    """Columns of newline-delimited JSON reading records, one per line.

    ``pieces`` yields the text in pieces that each end with ``b"\\n"``,
    but for the last: a line at a time, as a binary file or ``io.BytesIO``
    does, or a whole body at once.  Lines are framed by ``b"\\n"`` alone; a
    ``\\r`` before the newline is JSON whitespace, and blank lines are
    skipped.  The text is read in chunks of whole lines of about
    ``_CHUNK_BYTES``: a chunk of at least ``_MIN_COLUMN_LINES`` canonical
    log lines (as ``_ndjson_records`` writes them) as columns, any other
    chunk line by line, with the same result.  Raises ``ReadingsFormatError`` naming the line.
    """
    columns, first_line = ReadingColumns(), 1
    for chunk in _chunks(pieces):
        lines = chunk.count(b"\n")
        if lines < _MIN_COLUMN_LINES or not _add_canonical(columns, _NDJSON_RUN, chunk, 2, json.loads):
            readings = []
            for line_number, line in enumerate(io.BytesIO(chunk), start=first_line):
                if line.strip():
                    try:
                        record = json.loads(line.decode("utf-8"))
                        readings.append(_reading(*(str(record[key]) for key in CSV_HEADER)))
                    except (ValueError, KeyError, TypeError, RecursionError) as exc:
                        raise ReadingsFormatError(line_number, str(exc)) from exc
            for run in ReadingColumns(readings).runs:
                columns.extend(*run)
        first_line += lines
    return columns


def _chunks(pieces: Iterable[bytes], size: int = _CHUNK_BYTES):
    """``pieces`` cut after the first line that ends past ``size`` bytes,
    as ``readlines(size)`` cuts a file."""
    for piece in pieces:
        start = 0
        while start < len(piece):
            end = piece.find(b"\n", start + size) + 1 or len(piece)
            yield piece[start:end]
            start = end


def write_readings_csv(path: str | Path, readings: Iterable[MeterReading]) -> None:
    """Write the readings CSV file (header ``meter_id,timestamp,obis,value_kwh``), rows formatted as log lines are."""
    columns = readings if isinstance(readings, ReadingColumns) else ReadingColumns(readings)
    # Each run's line, encoded before the file opens: text that is not UTF-8 writes nothing.
    # Only the meter id can need quoting: it is quoted once per run.
    lines = [(csv_field(meter_id).replace("%", "%%") + ",%bZ,{},%d.%03d\n".format(register)).encode("utf-8")
             for meter_id, register, _, _ in columns.runs]
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_HEADER).encode() + b"\n")
        for line, (_, _, times, values) in zip(lines, columns.runs):
            fh.writelines(_format_readings(line, times, values))


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, as ``csv`` quotes, when it holds a comma, a quote, ``\\r`` or ``\\n``."""
    csv.writer(field := io.StringIO(), lineterminator="\r\n").writerow([text, ""])
    return field.getvalue()[:-3]


def read_readings_csv(path: str | Path) -> ReadingColumns:
    """Parse a readings CSV file; malformed rows name the file and their line number.

    Files of canonical rows (``…Z`` times, ``d.ddd`` values, ``\\n`` line
    ends) are parsed as whole columns; any other file row by row.

    Raises:
        ReadingsFormatError: missing/invalid header, an unparsable row, or
            a file that is not UTF-8.
    """
    data = Path(path).read_bytes()
    try:
        columns = _read_canonical_csv(data)
        if columns is not None:
            return columns
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ReadingsFormatError(line, "byte 0x{:02X} is not UTF-8 text".format(data[exc.start])) from None
        return _read_csv_rows(io.StringIO(text, newline=""))
    except ReadingsFormatError as exc:
        raise ReadingsFormatError(exc.line_number, exc.reason, path) from None


_TIME = rb"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ"
_VALUE = rb"\d{1,6}\.\d{3}"
# One canonical CSV row, then every following row of the same meter and register.
_CSV_RUN = re.compile(
    rb'(?P<meter>[^,"\r\n\x00\x80-\xff]+),(?P<time>)' + _TIME + rb',(?P<obis>[^,"\r\n\x00\x80-\xff]+),(?P<value>)'
    + _VALUE + rb"\n(?:(?P=meter)," + _TIME + rb",(?P=obis)," + _VALUE + rb"\n)*"
)
# A JSON string as ``json.dumps`` writes it: ASCII, no raw control characters.
_JSON_TEXT = rb'"(?:[^"\\\x00-\x1f\x80-\xff]|\\["\\/bfnrt]|\\u[0-9A-Fa-f]{4})*"'
# One log line as ``_ndjson_records`` writes it, then every following line
# of the same meter and register.
_NDJSON_RUN = re.compile(
    rb'\{"meter_id": (?P<meter>' + _JSON_TEXT + rb'), "obis": "(?P<obis>[^"\\\x00-\x1f\x80-\xff]+)", '
    rb'"timestamp": "(?P<time>)' + _TIME + rb'", "value_kwh": "(?P<value>)' + _VALUE + rb'"\}\n'
    rb'(?:\{"meter_id": (?P=meter), "obis": "(?P=obis)", "timestamp": "' + _TIME + rb'", "value_kwh": "' + _VALUE
    + rb'"\}\n)*'
)
# The first digit of each two-digit field of a stamp (century, year of the
# century, month, day, hour, minute, second), and each month's days in a
# common year (index 1-12; 0 for the other two-digit numbers).
_TENS = np.array([0, 2, 5, 8, 11, 14, 17])
_MONTH_DAYS = np.zeros(100, np.uint8)
_MONTH_DAYS[1:13] = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# The days from 1 March to the first of each month (index 1-12).
_MARCH_DAYS = np.array([0, 306, 337, 0, 31, 61, 92, 122, 153, 184, 214, 245, 275])
# The place value in Wh of each of the 10 bytes that end a value of up to
# 999999.999 kWh; a byte before the value's first digit weighs nothing.
_VALUE_WEIGHTS = np.array([10**8, 10**7, 10**6, 10**5, 10**4, 10**3, 0, 100, 10, 1])


def _read_canonical_csv(data: bytes) -> ReadingColumns | None:
    """Columns of a file made only of canonical rows, else ``None``."""
    header = ",".join(CSV_HEADER).encode() + b"\n"
    if not data.startswith(header):
        return None
    columns = ReadingColumns()
    chunks = _chunks([data[len(header):]], _CSV_CHUNK_BYTES)
    return columns if all(_add_canonical(columns, _CSV_RUN, c, 0, bytes.decode) for c in chunks) else None


def _add_canonical(columns: ReadingColumns, run_re: re.Pattern, data: bytes, tail: int, meter_id) -> bool:
    """Add the readings of ``data`` to ``columns`` when it is made only of
    canonical lines; whether it was.

    ``run_re`` matches a canonical line and every following line of the
    same meter and register: it is the only check of the text.  Its empty
    groups ``time`` and ``value`` give the offsets of the time and the
    value in every line of the run; a value ends ``tail`` bytes before its
    newline.  ``meter_id`` decodes the ``meter`` group.  The rest is
    arithmetic on the bytes: each line's 19-byte stamp is gathered and cut
    into its two-digit fields, a range check of the fields refuses dates
    that do not exist or lie before year 1, and the checked fields are
    converted to epoch seconds by integer arithmetic (Hinnant's
    ``days_from_civil``); each value is its digits times their place values.
    """
    matches, pos = [], 0
    while pos < len(data):
        match = run_re.match(data, pos)
        if match is None:
            return False
        matches.append(match)
        pos = match.end()
    if not matches:
        return True
    try:
        keys = [(meter_id(match["meter"]), ObisCode.parse(match["obis"].decode())) for match in matches]
    except ValueError:
        return False
    text = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    counts = [data.count(b"\n", match.start(), match.end()) for match in matches]
    time_at = starts + np.repeat([match.start("time") - match.start() for match in matches], counts)
    value_at = starts + np.repeat([match.start("value") - match.start() for match in matches], counts)
    # Each line's stamp and the 10 bytes that end its value, as rows of
    # windows onto the text (no index array per byte).
    stamps = as_strided(text, (len(text) - 18, 19), (1, 1))[time_at]
    digits = as_strided(text, (len(text) - 9, 10), (1, 1))[ends - tail - 10] - ord("0")
    fields = (stamps[:, _TENS] - ord("0")) * 10 + stamps[:, _TENS + 1] - ord("0")
    century, year, month, day, hour, minute, second = fields.T
    leap = (year % 4 == 0) & ((year != 0) | (century % 4 == 0))
    days = _MONTH_DAYS[month] + (leap & (month == 2))
    if not (((century | year) > 0) & (day >= 1) & (day <= days) & (hour < 24) & (minute < 60) & (second < 60)).all():
        return False
    # days_from_civil in int64 (uint8 wraps), counting each year from March so
    # that a leap day ends it; on 1970-01-01 the other terms sum to 719469.
    century, year, month, day, hour, minute, second = fields.T.astype(np.int64)
    march_year = century * 100 + year - (month <= 2)
    leap_days = march_year // 4 - march_year // 100 + march_year // 400
    epoch_days = march_year * 365 + leap_days + _MARCH_DAYS[month] + day - 719469
    seconds = ((epoch_days * 24 + hour) * 60 + minute) * 60 + second
    digits[np.arange(10) < (value_at - ends + tail + 10)[:, None]] = 0
    times, values, start = (seconds * 1_000_000).tolist(), (digits.astype(np.int64) @ _VALUE_WEIGHTS).tolist(), 0
    for (meter, register), count in zip(keys, counts):
        columns.extend(meter, register, times[start : start + count], values[start : start + count])
        start += count
    return True


def _read_csv_rows(fh: TextIO) -> ReadingColumns:
    """Parse a readings CSV row by row; an error names the line where its row starts."""
    # ``fh`` also ends a line at a lone "\r"; starts[i] is the "\n"-counted line where its line i + 1 starts.
    lines = fh.readlines()
    starts = list(accumulate((line.endswith("\n") for line in lines), initial=1))
    reader, readings, row_at = csv.reader(lines), [], 0
    try:
        header, row_at = next(reader, None), reader.line_num  # the line count after the header
        if header is None:
            raise ReadingsFormatError(1, "empty file; expected header {}".format(",".join(CSV_HEADER)))
        if [h.strip() for h in header] != CSV_HEADER:
            raise ReadingsFormatError(1, "bad header {!r}; expected {}".format(",".join(header), ",".join(CSV_HEADER)))
        for row in reader:
            line_number, row_at = starts[row_at], reader.line_num
            if not row:
                continue
            if len(row) != 4:
                raise ReadingsFormatError(line_number, "expected 4 columns, got {}".format(len(row)))
            try:
                readings.append(_reading(*row))
            except ValueError as exc:
                raise ReadingsFormatError(line_number, str(exc)) from exc
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise ReadingsFormatError(starts[row_at], str(exc)) from None
    return ReadingColumns(readings)
