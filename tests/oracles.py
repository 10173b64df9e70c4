"""Independent reference implementations used to cross-check the package.

These deliberately avoid the code paths under test: the XOR fold uses
functools.reduce, the k-means oracle enumerates every assignment, and the
Rand index works from the contingency table.  ``single_move_polish`` is the
pair-by-pair loop that the vectorised ``clustering._single_move_polish``
replaced, kept so the two can be compared move for move.  ``sq_dists``
is the broadcast squared-distance form, and ``plus_plus_init``,
``masked_polish``, ``labels_lloyd`` and ``kmeans_fit`` are the k-means fit
that recomputed the distances and centroids Lloyd already had, kept so
every float of ``clustering.kmeans_fit`` can be compared with them.  ``DictStore`` is
the in-memory telemetry store that re-sorted a whole series on every ingest
and placed each grid boundary with its own bisect, kept so the sorted-list
``TelemetryStore`` and its array grid pass can be compared with it batch
for batch.  ``_check_neighbours`` and ``_insert_sorted`` are the
neighbour check (one loop for an empty series, one with bisect state for
a stored one) and the splice that ``store._merge_window`` replaced, kept
so its merged window can be compared with them.  ``_interpolate`` is the
store's ``Decimal`` interpolation, kept as the reference for its integer
version.  ``build_daily_profiles`` is the sample-by-sample profile builder
that converted every sample to local time and made one ``ProfileDay`` record per day, kept so the array
version can be compared with it row by row; its ``fill_gaps`` is the
per-slot loop behind the masked grid fill.  ``lloyd`` is the k-means loop
that also stopped once no centroid moved by ``tol``, after one more
assignment pass confirmed the labels.  ``replay_log`` and ``post_readings``
are the two NDJSON parsers that ``store.read_readings_ndjson`` replaced:
the store's log replay and the service's ``POST`` body parser, which split
a decoded body with ``str.splitlines``.  ``ndjson_records`` is the log
writer that built and dumped one record per reading, kept as the reference
for the store's column writer.  ``points`` and ``profiles_csv`` format
a chart line and the profiles CSV one value at a time, as the chart
renderer and ``write_profiles_csv`` did.  ``simulated_readings`` is the
simulator's per-slot register integration, a ``round`` and a ``Decimal``
quantize per reading, kept as the reference for its one integer pass.
``simulated_reading_objects`` is how the simulator built its readings
before it returned columns: one validated ``MeterReading`` per slot
boundary, kept as the reference for them.
``simulate_period`` is the simulator's day-by-day loop that gave every
day its own ``(96,)`` power array: it re-derived each burst window's
density gate (``window_density``) and busiest start from the template
every day, drew each activation's power noise one slot at a time, and
integrated the register as a Python-int ``accumulate``; it is kept as the
reference for the whole-period passes.
``readings_csv`` is the readings CSV writer that wrote each row with
``csv.writer``, ``rfc3339`` and ``str(Decimal)``, kept as the reference for
``write_readings_csv``; it and ``profiles_csv`` quote a field as ``csv``
does for ``\\r\\n`` line ends (``csv_row``), so a lone ``\\r`` is quoted.
``add_readings`` is the one-reading-at-a-time ``ReadingColumns`` builder,
kept as the reference for its run grouping.
``add_canonical`` is the canonical-run reader that cut each line's time and
value out of the decoded text with string slices, kept as the reference
for ``store._add_canonical``'s arithmetic on the bytes.
``power_body`` is the ``GET /power`` body the service built from one
``PowerSample`` and one ``rfc3339`` call per slot.
``reading_to_record`` and ``snapshot`` are views of a reading and of a store's index that only the
tests use, as are ``persona_to_dict``, a persona's JSON form, and ``uniform_template``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from functools import reduce
from itertools import compress, islice
from math import comb
from operator import lt, xor
from typing import Sequence
from zoneinfo import ZoneInfo

import numpy as np

from meterwatch.charts import MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PANEL_H, PANEL_W
from meterwatch.clustering import ClusterModel
from meterwatch.personas import MODE_BURST, MODE_CONTINUOUS, MODE_STANDBY, HouseholdPersona, RoutineTemplate
from meterwatch.pipeline import canonical_json
from meterwatch.profiles import DEFAULT_TIMEZONE, SLOTS_PER_DAY, DailyProfiles, ExcludedDay, _slots_in_local_day
from meterwatch.protocol import POSITIVE_ACTIVE_ENERGY, REGISTER_MODULUS_KWH, ObisCode
from meterwatch.simulator import _DENSITY_GATE, AnomalyScript, SimOutput, _Activation, _apply_script
from meterwatch.store import (
    CSV_HEADER,
    MAX_INTERPOLATION_GAP,
    QUALITY_INTERPOLATED,
    QUALITY_MEASURED,
    QUALITY_MISSING,
    SLOT,
    SNAP_TOLERANCE,
    ConflictingDuplicate,
    MeterReading,
    NonMonotonicRegister,
    PowerSample,
    ReadingColumns,
    StoreLogError,
    StoreStats,
    TelemetryStore,
    _is_rollover,
    _to_datetime,
    _to_kwh,
    _to_us,
    parse_rfc3339,
    register_delta_kwh,
    rfc3339,
)


def xor_fold(payload: bytes) -> int:
    return reduce(xor, payload)


def exact_min_inertia(X: np.ndarray, k: int) -> float:
    """Optimal k-means objective by brute force over all k^n assignments.

    Uses extended precision so the cancellation in ``total - within/size``
    stays far below the 1e-9 comparison tolerance.
    """
    n = X.shape[0]
    gram = (X @ X.T).astype(np.longdouble)
    total = np.trace(gram)
    assignments = np.array(list(itertools.product(range(k), repeat=n)), dtype=int)
    costs = np.full(len(assignments), total, dtype=np.longdouble)
    for cluster in range(k):
        mask = (assignments == cluster).astype(np.longdouble)
        sizes = mask.sum(axis=1)
        within = np.einsum("ai,ij,aj->a", mask, gram, mask)
        nonempty = sizes > 0
        costs[nonempty] -= within[nonempty] / sizes[nonempty]
    best = float(costs.min())
    return max(best, 0.0)


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances in one broadcast: the len(A) x len(B) x
    width temporary that ``clustering._sq_dists`` no longer builds."""
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


def _centroids(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    return np.vstack([X[labels == c].mean(axis=0) for c in range(k)])


def _inertia(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((X - centroids[labels]) ** 2).sum())


def _assign(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmin(sq_dists(X, centroids), axis=1)


def _repair_empty(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    labels = labels.copy()
    for cluster in range(k):
        if np.any(labels == cluster):
            continue
        counts = np.bincount(labels, minlength=k)
        movable = counts[labels] >= 2
        dist = ((X - centroids[labels]) ** 2).sum(axis=1)
        dist[~movable] = -1.0
        labels[int(np.argmax(dist))] = cluster
    return labels


def plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding that measured every chosen point again for each draw."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = np.min(sq_dists(X, X[chosen]), axis=1)
        total = d2.sum()
        u = rng.random()
        if total <= 0.0:
            index = min(int(u * n), n - 1)
        else:
            index = int(np.searchsorted(np.cumsum(d2 / total), u, side="right"))
            index = min(index, n - 1)
        chosen.append(index)
    return X[chosen].copy()


def masked_polish(X: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """The masked move-matrix polish that rebuilt its centroids and
    distances at entry and fancy-indexed the two changed columns."""
    labels = labels.copy()
    moved_any = False
    rows = np.arange(X.shape[0])
    counts = np.bincount(labels, minlength=k)
    centroids = _centroids(X, labels, k)
    d2 = sq_dists(X, centroids)
    for _ in range(200 * X.shape[0]):
        own = counts[labels]
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = d2 * counts / (counts + 1.0) - (d2[rows, labels] * own / (own - 1.0))[:, None]
        delta[rows, labels] = np.inf
        delta[own <= 1] = np.inf
        i, b = divmod(int(np.argmin(delta)), k)
        if delta[i, b] >= -1e-12:
            break
        a = labels[i]
        labels[i] = b
        counts[a] -= 1
        counts[b] += 1
        for c in (a, b):
            centroids[c] = X[labels == c].mean(axis=0)
        d2[:, [a, b]] = sq_dists(X, centroids[[a, b]])
        moved_any = True
    return labels, moved_any


def labels_lloyd(X: np.ndarray, centroids: np.ndarray, k: int, max_passes: int = 300):
    """Lloyd iterations until the labels repeat, measuring the final
    centroids' inertia again after the last pass."""
    labels = None
    history: list[float] = []
    iterations = 0
    for _ in range(max_passes):
        new_labels = _repair_empty(X, centroids, _assign(X, centroids), k)
        history.append(_inertia(X, centroids, new_labels))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        iterations += 1
        centroids = _centroids(X, labels, k)
    return centroids, labels, _inertia(X, centroids, labels), iterations, history


def kmeans_fit(profiles: DailyProfiles, k: int, seed: int = 0, restarts: int = 10) -> ClusterModel:
    """Best of ``restarts`` seeded fits, built from the helpers above: the
    fit loop whose every float ``clustering.kmeans_fit`` must reproduce."""
    X = profiles.values
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        centroids, labels, inertia, iterations, history = labels_lloyd(X, plus_plus_init(X, k, rng), k)
        for _ in range(32):
            labels, moved = masked_polish(X, labels, k)
            if not moved:
                break
            centroids, labels, inertia, more_iters, extra = labels_lloyd(X, _centroids(X, labels, k), k)
            iterations += more_iters
            history.extend(extra)
        if best is None or inertia < best[0]:
            best = (inertia, restart, centroids, labels, iterations, history)
    inertia, restart, centroids, labels, iterations, history = best
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=dict(zip(profiles.days, labels.tolist())),
        inertia=inertia,
        seed=seed,
        iterations=iterations,
        restart_index=restart,
        inertia_history=tuple(history),
    )


def single_move_polish(X: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """Hartigan single-move polish, searching every (point, cluster) pair in
    point-major order; the first strictly best move wins."""
    labels = labels.copy()
    moved_any = False
    for _ in range(200 * X.shape[0]):
        counts = np.bincount(labels, minlength=k)
        d2 = sq_dists(X, _centroids(X, labels, k))
        best_delta = -1e-12
        best_move = None
        for i in range(X.shape[0]):
            a = labels[i]
            if counts[a] <= 1:
                continue
            leave_gain = d2[i, a] * counts[a] / (counts[a] - 1.0)
            for b in range(k):
                if b == a:
                    continue
                join_cost = d2[i, b] * counts[b] / (counts[b] + 1.0)
                delta = join_cost - leave_gain
                if delta < best_delta:
                    best_delta = delta
                    best_move = (i, b)
        if best_move is None:
            break
        labels[best_move[0]] = best_move[1]
        moved_any = True
    return labels, moved_any


def lloyd(X: np.ndarray, centroids: np.ndarray, k: int, max_iters: int = 300, tol: float = 1e-6):
    """Lloyd iterations that stop when the labels repeat, or when no centroid
    moves by ``tol`` and one more assignment pass leaves every label."""
    labels = None
    history: list[float] = []
    iterations = 0
    for _ in range(max_iters):
        new_labels = _repair_empty(X, centroids, _assign(X, centroids), k)
        history.append(_inertia(X, centroids, new_labels))
        converged = labels is not None and np.array_equal(new_labels, labels)
        labels = new_labels
        if converged:
            break
        iterations += 1
        new_centroids = _centroids(X, labels, k)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            check = _repair_empty(X, centroids, _assign(X, centroids), k)
            if np.array_equal(check, labels):
                history.append(_inertia(X, centroids, check))
                break
    return centroids, labels, _inertia(X, centroids, labels), iterations, history


def adjusted_rand_index(labels_a, labels_b) -> float:
    index_a = {v: i for i, v in enumerate(sorted(set(labels_a)))}
    index_b = {v: i for i, v in enumerate(sorted(set(labels_b)))}
    n = len(labels_a)
    contingency = np.zeros((len(index_a), len(index_b)), dtype=int)
    for a, b in zip(labels_a, labels_b):
        contingency[index_a[a], index_b[b]] += 1
    sum_ij = sum(comb(int(x), 2) for x in contingency.flat)
    sum_a = sum(comb(int(x), 2) for x in contingency.sum(axis=1))
    sum_b = sum(comb(int(x), 2) for x in contingency.sum(axis=0))
    expected = sum_a * sum_b / comb(n, 2)
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0
    return (sum_ij - expected) / (maximum - expected)


def profiles_from_matrix(X, meter_id: str = "T") -> DailyProfiles:
    """Wrap a (n, 96) matrix as daily profiles on consecutive dates."""
    X = np.array(X, dtype=float)
    days = tuple(date(2024, 6, 1) + timedelta(days=i) for i in range(len(X)))
    return DailyProfiles(meter_id, days, X, (1.0,) * len(X))


def profile_rows(profiles: DailyProfiles, rows) -> DailyProfiles:
    """The given rows of ``profiles``, in the given order."""
    rows = list(rows)
    return DailyProfiles(
        profiles.meter_id,
        tuple(profiles.days[i] for i in rows),
        profiles.values[rows],
        tuple(profiles.completeness[i] for i in rows),
    )


@dataclass(frozen=True)
class GridReading:
    """A register value placed on a 15-minute boundary."""

    slot_start: datetime
    value_kwh: Decimal | None
    quality: str


class DictStore:
    """Unpersisted store holding each series as a ``dict[datetime, Decimal]``.

    Ingest merges and sorts the whole stored series with the batch and walks
    every adjacent pair; grid reads sort and copy the whole series.
    """

    def __init__(self):
        self._series: dict[tuple[str, str], dict[datetime, Decimal]] = {}

    def ingest(self, batch) -> StoreStats:
        delta = StoreStats()
        fresh: dict[tuple[str, str], dict[datetime, Decimal]] = {}
        for reading in batch:
            key = (reading.meter_id, str(reading.register))
            ts = reading.timestamp.astimezone(timezone.utc)
            existing = self._series.get(key, {}).get(ts)
            pending = fresh.get(key, {}).get(ts)
            known = existing if existing is not None else pending
            if known is not None:
                if known == reading.value_kwh:
                    delta.duplicates_dropped += 1
                    continue
                raise ConflictingDuplicate(
                    "{} {} at {}: stored {} vs new {}".format(
                        key[0], key[1], ts.isoformat(), known, reading.value_kwh
                    )
                )
            fresh.setdefault(key, {})[ts] = reading.value_kwh

        for key, news in fresh.items():
            stored = self._series.get(key, {})
            merged = sorted(list(stored.items()) + list(news.items()))
            for (t1, v1), (t2, v2) in zip(merged, merged[1:]):
                if t1 not in news and t2 not in news:
                    continue  # pair already validated
                if v2 >= v1:
                    continue
                if is_rollover(v1, v2):
                    delta.rollovers_detected += 1
                    continue
                raise NonMonotonicRegister(
                    "{} {}: {} -> {} between {} and {}".format(
                        key[0], key[1], v1, v2, t1.isoformat(), t2.isoformat()
                    )
                )
            if stored:
                newest = max(stored)
                delta.out_of_order += sum(1 for t in news if t < newest)

        for key, news in fresh.items():
            self._series.setdefault(key, {}).update(news)
            delta.readings_accepted += len(news)
        return delta

    def readings(self, meter_id, register) -> list[MeterReading]:
        series = self._series.get((meter_id, str(register)), {})
        return [MeterReading(meter_id, ts, register, value) for ts, value in sorted(series.items())]

    def span(self, meter_id, register):
        series = self._series.get((meter_id, str(register)), {})
        if not series:
            return None
        return min(series), max(series)

    def snapshot(self):
        return {key: dict(series) for key, series in self._series.items()}

    def align_to_grid(self, meter_id, register, start, end):
        series = self._series.get((meter_id, str(register)), {})
        times = sorted(series)
        values = [series[t] for t in times]
        grid = []
        start = start.astimezone(timezone.utc)
        boundary = start.replace(minute=0, second=0, microsecond=0)
        while boundary < start:
            boundary += SLOT
        end = end.astimezone(timezone.utc)
        while boundary <= end:
            grid.append(_grid_value(times, values, boundary))
            boundary += SLOT
        return grid

    def mean_power_series(self, meter_id, register, start, end) -> list[PowerSample]:
        grid = self.align_to_grid(meter_id, register, start, end)
        samples = []
        for left, right in zip(grid, grid[1:]):
            if left.value_kwh is None or right.value_kwh is None:
                samples.append(PowerSample(meter_id, left.slot_start, None, QUALITY_MISSING))
                continue
            delta = register_delta_kwh(left.value_kwh, right.value_kwh)
            quality = (
                QUALITY_INTERPOLATED
                if QUALITY_INTERPOLATED in (left.quality, right.quality)
                else QUALITY_MEASURED
            )
            samples.append(PowerSample(meter_id, left.slot_start, float(delta) * 4000.0, quality))
        return samples


def _grid_value(times: list[datetime], values: list[Decimal], boundary: datetime) -> GridReading:
    if not times:
        return GridReading(boundary, None, QUALITY_MISSING)
    i = bisect_left(times, boundary)
    # Nearest reading within the snap tolerance; earlier wins a tie.
    best = None
    for j in (i - 1, i):
        if 0 <= j < len(times):
            dist = abs(times[j] - boundary)
            if dist <= SNAP_TOLERANCE and (best is None or dist < best[0]):
                best = (dist, j)
    if best is not None:
        return GridReading(boundary, values[best[1]], QUALITY_MEASURED)
    if i == 0 or i >= len(times):
        return GridReading(boundary, None, QUALITY_MISSING)
    t_prev, t_next = times[i - 1], times[i]
    if t_next - t_prev > MAX_INTERPOLATION_GAP:
        return GridReading(boundary, None, QUALITY_MISSING)
    fraction = (boundary - t_prev) / (t_next - t_prev)
    return GridReading(boundary, _interpolate(values[i - 1], values[i], fraction), QUALITY_INTERPOLATED)


def is_rollover(old: Decimal, new: Decimal) -> bool:
    return new < old and old > REGISTER_MODULUS_KWH * Decimal("0.9") and new < REGISTER_MODULUS_KWH * Decimal("0.1")


def _interpolate(v_prev: Decimal, v_next: Decimal, fraction: float) -> Decimal:
    """Register value ``fraction`` of the way from ``v_prev`` to ``v_next``,
    across a rollover, to the meter's 0.001 kWh resolution, in ``Decimal``."""
    if v_next < v_prev and is_rollover(v_prev, v_next):
        v_next = v_next + REGISTER_MODULUS_KWH
    value = v_prev + (v_next - v_prev) * Decimal(str(fraction))
    value = value % REGISTER_MODULUS_KWH
    return value.quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN)


def _check_neighbours(
    key: tuple[str, str], times: Sequence[int], values: Sequence[int], new_times: list[int], new_values: list[int],
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
        if not _is_rollover(v1, v2):
            raise NonMonotonicRegister("{} {}: {} -> {} between {} and {}".format(
                *key, _to_kwh(v1), _to_kwh(v2), _to_datetime(t1).isoformat(), _to_datetime(t2).isoformat()))
        delta.rollovers_detected += 1

    if not times:  # each new reading follows the one before it
        for i in compress(range(1, len(new_values)), map(lt, islice(new_values, 1, None), new_values)):
            decrease(new_times[i - 1], new_values[i - 1], new_times[i], new_values[i])
        return [0] * len(new_times)
    positions, prev_t, prev_v, j = [], None, None, 0
    stored, last = len(times), len(new_times) - 1
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


@dataclass(frozen=True)
class ProfileDay:
    """One day of the reference builder's output."""

    meter_id: str
    day: date
    values: tuple[float, ...]
    completeness: float


def build_daily_profiles(samples, min_completeness: float, tz_name: str):
    """Daily profiles built one sample at a time, each converted with ``astimezone``."""
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

    profiles: list[ProfileDay] = []
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
        if not present:
            excluded.append(ExcludedDay(meter_id, day, "no samples"))
            continue
        profiles.append(
            ProfileDay(meter_id, day, fill_gaps(present), completeness)
        )
    return profiles, excluded


def fill_gaps(present: dict[int, float]) -> tuple[float, ...]:
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


# -- simulated registers -------------------------------------------------------


def simulated_readings(sim: SimOutput, start: date, initial_register_kwh: Decimal) -> list[MeterReading]:
    """The readings of ``sim.slot_powers_w`` as the simulator integrated them
    slot by slot: each slot's energy rounded to whole µWh by ``round``, the
    register ``Decimal``-divided and quantized, the time stepped 15 minutes."""
    ts = datetime.combine(start, time(0, 0), tzinfo=ZoneInfo(DEFAULT_TIMEZONE)).astimezone(timezone.utc)
    init_wh = int(initial_register_kwh * 1000)

    def reading(ts: datetime, register_wh: int) -> MeterReading:
        value = (Decimal(register_wh % (int(REGISTER_MODULUS_KWH) * 1000)) / 1000).quantize(Decimal("0.001"))
        return MeterReading(sim.meter_id, ts, POSITIVE_ACTIVE_ENERGY, value)

    readings = [reading(ts, init_wh)]
    cumulative_uwh = 0
    for powers in sim.slot_powers_w:
        for slot in range(SLOTS_PER_DAY):
            cumulative_uwh += int(round(powers[slot] * 250_000))
            ts += timedelta(minutes=15)
            readings.append(reading(ts, init_wh + cumulative_uwh // 1_000_000))
    return readings


def simulated_reading_objects(sim: SimOutput, start: date, initial_register_kwh: Decimal) -> tuple[MeterReading, ...]:
    """The readings of ``sim.slot_powers_w`` as the simulator built them: the
    integer register sum, each value ``_to_kwh`` of its Wh and each time a
    15-minute step on, one ``MeterReading`` apiece."""
    t0 = datetime.combine(start, time(0, 0), tzinfo=ZoneInfo(DEFAULT_TIMEZONE)).astimezone(timezone.utc)
    init_wh = int(initial_register_kwh * 1000)
    cumulative_uwh = itertools.accumulate(map(int, np.rint(sim.slot_powers_w.ravel() * 250_000)), initial=0)
    values = (_to_kwh((init_wh + uwh // 1_000_000) % (int(REGISTER_MODULUS_KWH) * 1000)) for uwh in cumulative_uwh)
    times = itertools.accumulate(itertools.repeat(SLOT, sim.slot_powers_w.size), initial=t0)
    readings = map(MeterReading, itertools.repeat(sim.meter_id), times, itertools.repeat(POSITIVE_ACTIVE_ENERGY), values)
    return tuple(readings)


def pick_template(persona: HouseholdPersona, rng: np.random.Generator) -> int:
    u = rng.random()
    acc = 0.0
    for index, w in enumerate(persona.template_weights):
        acc += w
        if u < acc:
            return index
    return len(persona.template_weights) - 1


def window_density(weights: Sequence[float], start: int, end: int) -> float:
    inside = sum(weights[start:end]) / (end - start)
    overall = sum(weights) / len(weights)
    return inside / overall


def day_activations(
    persona: HouseholdPersona, weights: Sequence[float], weekday: int, rng: np.random.Generator
) -> list[_Activation]:
    activations = []
    for appliance in persona.appliances:
        if appliance.mode != MODE_BURST:
            continue
        for window in appliance.schedule:
            draw = rng.random()  # always consumed, keeps the stream stable
            if weekday not in window.days:
                continue
            density = window_density(weights, window.start_slot, window.end_slot)
            probability = window.probability if density >= _DENSITY_GATE else 0.0
            if draw >= probability:
                continue
            last_start = window.end_slot - appliance.duration_slots
            start = max(range(window.start_slot, last_start + 1), key=weights.__getitem__)  # the first busiest slot
            if appliance.placement_jitter:
                j = appliance.placement_jitter
                start += int(rng.integers(-j, j + 1))
                start = min(max(start, window.start_slot), last_start)
            activations.append(_Activation(appliance, start))
    return activations


def day_slot_powers(
    persona: HouseholdPersona,
    weights: Sequence[float],
    weekday: int,
    rng: np.random.Generator,
    script: AnomalyScript | None,
) -> np.ndarray:
    powers = np.zeros(SLOTS_PER_DAY)
    if persona.ambient_noise_w > 0.0:
        powers += rng.normal(0.0, persona.ambient_noise_w, SLOTS_PER_DAY)
    for appliance in persona.appliances:
        if appliance.mode == MODE_STANDBY:
            powers += appliance.power_w
        elif appliance.mode == MODE_CONTINUOUS:
            duty = appliance.duty * (1.0 + rng.normal(0.0, appliance.duty_jitter, SLOTS_PER_DAY))
            powers += appliance.power_w * np.clip(duty, 0.0, 1.0)
    activations = day_activations(persona, weights, weekday, rng)
    if script is not None:
        activations = _apply_script(script, activations, persona)
    for act in activations:
        appliance = act.appliance
        for offset in range(appliance.duration_slots):
            slot = act.start_slot + offset
            if slot >= SLOTS_PER_DAY:
                break
            mult = appliance.cycle[offset] if appliance.cycle is not None else 1.0
            level = appliance.power_w * appliance.duty * mult
            if appliance.power_noise:
                level *= max(0.0, 1.0 + rng.normal(0.0, appliance.power_noise))
            powers[slot] += level
    return np.maximum(powers, 0.0)


def simulate_period(
    persona: HouseholdPersona, start: date, n_days: int, scripts: Sequence[AnomalyScript], seed: int,
    initial_register_kwh: Decimal,
) -> tuple[np.ndarray, dict[date, str], list[MeterReading]]:
    """Slot powers, truth labels and readings as the day-by-day loop and the
    Python-int integration gave them."""
    by_day = {script.day: script for script in scripts}
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    slot_powers = np.zeros((n_days, SLOTS_PER_DAY))
    truth: dict[date, str] = {}
    for day_index in range(n_days):
        day = start + timedelta(days=day_index)
        rng = np.random.default_rng([seed, day_index])
        script = by_day.get(day)
        if script is not None:
            template_index = max(range(len(persona.template_weights)), key=persona.template_weights.__getitem__)
            truth[day] = script.kind
        else:
            template_index = pick_template(persona, rng)
            truth[day] = persona.routine_templates[template_index].name
        weights = persona.routine_templates[template_index].weights
        slot_powers[day_index] = day_slot_powers(persona, weights, day.weekday(), rng, script)
    init_wh = int(initial_register_kwh * 1000)
    cumulative_uwh = itertools.accumulate(map(int, np.rint(slot_powers.ravel() * 250_000)), initial=0)
    values = (_to_kwh((init_wh + uwh // 1_000_000) % (int(REGISTER_MODULUS_KWH) * 1000)) for uwh in cumulative_uwh)
    t0 = datetime.combine(start, time(0, 0), tzinfo=ZoneInfo(DEFAULT_TIMEZONE)).astimezone(timezone.utc)
    times = itertools.accumulate(itertools.repeat(SLOT, slot_powers.size), initial=t0)
    return slot_powers, truth, [MeterReading(persona.id, t, POSITIVE_ACTIVE_ENERGY, v) for t, v in zip(times, values)]


# -- NDJSON reading records ----------------------------------------------------


def reading_to_record(reading: MeterReading) -> dict:
    """A reading as the four text fields of a log line or ``POST`` record,
    its value with three decimals."""
    value = _to_kwh(int(reading.value_kwh.scaleb(3)))
    return {"meter_id": reading.meter_id, "timestamp": rfc3339(reading.timestamp), "obis": str(reading.register),
            "value_kwh": str(value)}


def snapshot(store: TelemetryStore) -> dict[tuple[str, str], dict[datetime, Decimal]]:
    """Deep copy of a store's index, for state-equality checks."""
    with store._lock:
        return {key: dict(zip(map(_to_datetime, t), map(_to_kwh, v))) for key, (t, v) in store._series.items()}


def reading_from_record(record: dict) -> MeterReading:
    meter_id, timestamp, obis, value = (str(record[key]) for key in ("meter_id", "timestamp", "obis", "value_kwh"))
    try:
        value_kwh = Decimal(value)
    except InvalidOperation:  # named as the store names it, not by decimal's signal list
        raise ValueError("value_kwh {!r} is not a decimal number".format(value)) from None
    return MeterReading(meter_id, parse_rfc3339(timestamp), ObisCode.parse(obis), value_kwh)


# What both parsers refused a record for.
RECORD_ERRORS = (ValueError, KeyError, TypeError, InvalidOperation, RecursionError)


def add_readings(columns: ReadingColumns, readings) -> ReadingColumns:
    """``columns`` with each reading added in turn: a new run when its meter
    or register differs from the last run's."""
    for r in readings:
        if not columns.runs or columns.runs[-1][:2] != (r.meter_id, r.register):
            columns.runs.append((r.meter_id, r.register, [], []))
        columns.runs[-1][2].append(_to_us(r.timestamp))
        columns.runs[-1][3].append(int(r.value_kwh.scaleb(3)))
    return columns


def replay_log(path) -> tuple[ReadingColumns, int]:
    """The log's committed lines as columns, and their bytes; a final line
    without a newline is not committed.  Raises ``StoreLogError``."""
    readings = ReadingColumns()
    committed = 0  # bytes up to and including the last newline
    with open(path, "rb") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                break
            committed += len(line)
            if line.strip():
                try:
                    add_readings(readings, [reading_from_record(json.loads(line.decode("utf-8")))])
                except RECORD_ERRORS as exc:
                    raise StoreLogError(line_number, str(exc), path) from exc
    return readings, committed


_TIME = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ"
_VALUE = r"\d{1,6}\.\d{3}"
# The canonical runs as text patterns: a CSV row, then every following row
# of the same meter and register; a log line, then every following line of
# the same meter and register.
CSV_RUN = re.compile(
    r'(?P<meter>[^,"\r\n\x00]+),(?P<time>)' + _TIME + r',(?P<obis>[^,"\r\n\x00]+),(?P<value>)' + _VALUE + r"\n"
    r"(?:(?P=meter)," + _TIME + r",(?P=obis)," + _VALUE + r"\n)*",
    re.ASCII,
)
_JSON_TEXT = r'"(?:[^"\\\x00-\x1f\x80-\U0010ffff]|\\["\\/bfnrt]|\\u[0-9A-Fa-f]{4})*"'
NDJSON_RUN = re.compile(
    r'\{"meter_id": (?P<meter>' + _JSON_TEXT + r'), "obis": "(?P<obis>[^"\\\x00-\x1f\x80-\U0010ffff]+)", '
    r'"timestamp": "(?P<time>)' + _TIME + r'", "value_kwh": "(?P<value>)' + _VALUE + r'"\}\n'
    r'(?:\{"meter_id": (?P=meter), "obis": "(?P=obis)", "timestamp": "' + _TIME + r'", "value_kwh": "' + _VALUE
    + r'"\}\n)*',
    re.ASCII,
)


def add_canonical(columns: ReadingColumns, run_re: re.Pattern, text: str, tail: int, meter_id) -> bool:
    """Add the readings of ``text`` to ``columns`` when it is made only of
    canonical lines (``CSV_RUN`` or ``NDJSON_RUN``, as ``run_re``); whether
    it was.  Each line's time and value are cut out with string slices, the
    times parsed by numpy from a list of ``str``, refusing ones that do not
    exist or lie before year 1; a value is the ``int`` of its digits."""
    lines, runs, stamps, pos, row = text.split("\n"), [], [], 0, 0
    while pos < len(text):
        match = run_re.match(text, pos)
        if match is None:
            return False
        run = lines[row : row + text.count("\n", pos, match.end())]
        row, pos = row + len(run), match.end()
        time_at, value_at = match.start("time") - match.start(), match.start("value") - match.start()
        stamps += [line[time_at : time_at + 19] for line in run]
        runs.append((match, len(run), [int(line[value_at : len(line) - tail].replace(".", "")) for line in run]))
    if not runs:
        return True
    try:
        seconds = np.array(stamps, dtype="datetime64[s]").astype(np.int64)
        keys = [(meter_id(match["meter"]), ObisCode.parse(match["obis"])) for match, _, _ in runs]
    except ValueError:
        return False
    if seconds.min() < _to_us(datetime(1, 1, 1, tzinfo=timezone.utc)) // 10**6:
        return False
    times, start = (seconds * 1_000_000).tolist(), 0
    for (meter, register), (_, count, values) in zip(keys, runs):
        columns.extend(meter, register, times[start : start + count], values)
        start += count
    return True


def post_readings(body: bytes) -> list[MeterReading]:
    """A ``POST /v1/readings`` body's readings; raises one of ``RECORD_ERRORS``."""
    return [reading_from_record(json.loads(line)) for line in body.decode("utf-8").splitlines() if line.strip()]


def ndjson_records(merges) -> bytes:
    """Log lines for a batch's new readings, by series key, then by time,
    one ``json.dumps`` of a record dict per reading."""
    lines = []
    for (meter_id, obis), _, new_times, new_values in sorted(merges, key=lambda merge: merge[0]):
        for us, wh in zip(new_times, new_values):
            record = dict(zip(CSV_HEADER, (meter_id, rfc3339(_to_datetime(us)), obis, str(_to_kwh(wh)))))
            lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode("utf-8")


def power_body(store: TelemetryStore, meter_id: str, start: datetime, end: datetime) -> bytes:
    """The ``GET /power`` body, one ``PowerSample`` and one ``rfc3339`` call per slot."""
    samples = store.mean_power_series(meter_id, POSITIVE_ACTIVE_ENERGY, start, end)
    payload = [
        {"meter_id": s.meter_id, "slot_start": rfc3339(s.slot_start), "mean_power_w": s.mean_power_w,
         "quality": s.quality}
        for s in samples
    ]
    return canonical_json(payload).encode("utf-8")


def csv_row(fields) -> str:
    """One CSV row ended by ``\\n``, its fields quoted as ``csv.writer``
    quotes them for ``\\r\\n`` line ends: so a lone ``\\r`` is quoted too."""
    csv.writer(fh := io.StringIO(), lineterminator="\r\n").writerow(fields)
    return fh.getvalue()[:-2] + "\n"


def readings_csv(readings) -> str:
    """The readings CSV text, one ``csv_row`` per reading."""
    rows = [[r.meter_id, rfc3339(r.timestamp), str(r.register), str(r.value_kwh)] for r in readings]
    return "".join(map(csv_row, [CSV_HEADER] + rows))


def points(values, y_max: float, x0: float) -> str:
    """A chart line's points, each x and y formatted on its own."""
    plot_w = PANEL_W - MARGIN_L - MARGIN_R
    plot_h = PANEL_H - MARGIN_T - MARGIN_B
    pts = []
    for slot, value in enumerate(values):
        x = x0 + MARGIN_L + plot_w * slot / (SLOTS_PER_DAY - 1)
        y = MARGIN_T + plot_h * (1.0 - min(value, y_max) / y_max)
        pts.append("{:.1f},{:.1f}".format(x, y))
    return " ".join(pts)


def profiles_csv(profiles: DailyProfiles) -> str:
    """``write_profiles_csv``'s text, written row by row through ``csv_row``
    with each value formatted on its own."""
    text = csv_row(["meter_id", "day", "completeness"] + ["s{:02d}".format(i) for i in range(SLOTS_PER_DAY)])
    for day, completeness, values in zip(profiles.days, profiles.completeness, profiles.values.tolist()):
        text += csv_row(
            [profiles.meter_id, day.isoformat(), "{:.4f}".format(completeness)] + ["{:.3f}".format(v) for v in values]
        )
    return text


# -- personas ------------------------------------------------------------------


def persona_to_dict(persona: HouseholdPersona) -> dict:
    return {
        "id": persona.id,
        "appliances": [
            {
                "name": a.name,
                "power_w": a.power_w,
                "mode": a.mode,
                "duty": a.duty,
                "duration_slots": a.duration_slots,
                "cycle": list(a.cycle) if a.cycle is not None else None,
                "placement_jitter": a.placement_jitter,
                "power_noise": a.power_noise,
                "duty_jitter": a.duty_jitter,
                "schedule": [
                    {
                        "start_slot": w.start_slot,
                        "end_slot": w.end_slot,
                        "days": sorted(w.days),
                        "probability": w.probability,
                    }
                    for w in a.schedule
                ],
            }
            for a in persona.appliances
        ],
        "routine_templates": [
            {"name": t.name, "weights": list(t.weights)} for t in persona.routine_templates
        ],
        "template_weights": list(persona.template_weights),
        "ambient_noise_w": persona.ambient_noise_w,
    }


def uniform_template(name: str = "uniform") -> RoutineTemplate:
    return RoutineTemplate(name, (1.0,) * SLOTS_PER_DAY)
