"""End-to-end analysis shared by the CLI and the HTTP service.

One runner, :func:`analyze_meters`, composes the stages for both: each
meter's daily profiles in the calling thread, one k-means fit task per
(meter, k), then one finish task per meter (the knee rule, the cluster
summary, the anomaly ranking and, for the CLI, the rendered output files).
The CLI asks for one worker per CPU, which run the fits in a fork pool up
to one per fit; the service calls :func:`analyze_meter`, the runner on one
meter with one worker, which runs every task in the request's thread.  So
a file-based run and a service request over identical readings produce
identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from math import inf
from typing import Any, Callable, Iterator, Sequence

from .anomaly import AnomalyReport, anomaly_scores
from .clustering import (
    ClusterModel, ClusterSummary, DEFAULT_RESTARTS, InsufficientDataError, KSelectionReport, K_MAX, K_MIN, fit_counts,
    kmeans_fit, knee_selection, mean_cluster_profiles,
    select_k,  # not called here: perfbench/tracing.py wraps pipeline.select_k by name
)
from .personas import SLOTS_PER_DAY
from .profiles import DEFAULT_MIN_COMPLETENESS, DailyProfiles, ExcludedDay, build_daily_profiles
from .protocol import POSITIVE_ACTIVE_ENERGY
from .store import SpanTooLong, TelemetryStore

DEFAULT_SEED = 42
DEFAULT_TOP_N = 3
# Restarts per fit; the bound keeps one analysis request's cost bounded.
MAX_RESTARTS = 100
# Each setting's type and inclusive bounds: the AnalysisConfig fields,
# simulate's days, a script's day_offset and its parameters, and a persona's
# integer fields.
SETTINGS = {"seed": (int, -inf, inf), "restarts": (int, 1, MAX_RESTARTS), "min_completeness": (float, 0, 1),
            "top_n": (int, 1, inf), "k": (int, K_MIN, K_MAX), "days": (int, 1, inf), "day_offset": (int, -inf, inf),
            **dict.fromkeys(("start_slot", "end_slot", "window_start", "window_end", "shift_slots"),
                            (int, 0, SLOTS_PER_DAY)),
            "duration_slots": (int, 1, SLOTS_PER_DAY), "with_dishwasher": (int, 0, 1),
            "placement_jitter": (int, 0, inf)}


def _check_bounds(key: str, value: int | float) -> int | float:
    """``value``, or a ``ValueError`` when it lies outside setting ``key``'s bounds (NaN does)."""
    _, low, high = SETTINGS[key]
    if low <= value <= high:
        return value
    bound = "be >= {}".format(low) if high == inf else "lie in {}..{}".format(low, high)
    raise ValueError("{} must {}".format(key, bound))


def parse_setting(key: str, value: Any) -> int | float:
    """``value`` as setting ``key`` within its bounds: text as ``int()`` or
    ``float()`` parses it, or a number.  Anything else (a bool, text that
    does not parse, a fraction or an infinity where an integer is expected)
    is a ``ValueError`` naming the key and the value."""
    kind = SETTINGS[key][0]
    if type(value) is int:
        _check_bounds(key, value)  # before float() of an int too large for a float can fail
    try:
        if type(value) not in (str, int, float) or kind is int and type(value) is float and not value.is_integer():
            raise ValueError
        number = kind(value)
    except ValueError:
        kind_text = "an integer" if kind is int else "a number"
        raise ValueError("{} must be {}, not {}".format(key, kind_text, json.dumps(value))) from None
    return _check_bounds(key, number)


@dataclass(frozen=True)
class AnalysisConfig:
    seed: int = DEFAULT_SEED
    restarts: int = DEFAULT_RESTARTS
    min_completeness: float = DEFAULT_MIN_COMPLETENESS
    top_n: int = DEFAULT_TOP_N
    k: int | None = None  # None = pick by the knee rule

    def __post_init__(self):
        for field in fields(self):
            if (value := getattr(self, field.name)) is not None:
                _check_bounds(field.name, value)

    def with_overrides(self, **kwargs: Any) -> "AnalysisConfig":
        """Copy with new ``seed``, ``restarts``, ``min_completeness``, ``top_n``
        or ``k`` values, each parsed and checked by :func:`parse_setting`.

        Raises:
            ValueError: a value that does not parse or is out of range.
        """
        return replace(self, **{key: parse_setting(key, value) for key, value in kwargs.items()})


@dataclass
class MeterAnalysis:
    meter_id: str
    profiles: DailyProfiles
    excluded: list[ExcludedDay]
    selection: KSelectionReport | None
    model: ClusterModel
    summary: ClusterSummary
    report: AnomalyReport


def analyze_meter(
    store: TelemetryStore, meter_id: str, config: AnalysisConfig | None = None
) -> MeterAnalysis:
    """One meter's analysis: :func:`analyze_meters` of that meter alone, in this thread.

    Raises:
        InsufficientDataError: no readings, or fewer profiles than the
            analysis needs (K_MAX for the scan, k for a fixed-k fit).
        SpanTooLong: the meter's readings span more than
            ``store.MAX_GRID_SLOTS`` slots.
    """
    [(analysis, _)] = analyze_meters(store, [meter_id], config or AnalysisConfig())
    return analysis


# Each running analysis by run id (the id of its entry, unique while the
# entry is here): its config, its render and each meter's profiles and
# excluded days.  Tasks read them here, forked pool workers as they were at
# the fork, so nothing but a task's run id, meter, k and models is pickled.
_runs: dict[int, tuple[AnalysisConfig, Callable | None, dict[str, tuple[DailyProfiles, list[ExcludedDay]]]]] = {}


def analyze_meters(
    store: TelemetryStore, meter_ids: Sequence[str], config: AnalysisConfig, workers: int = 1,
    render: Callable[[MeterAnalysis], Any] | None = None,
) -> Iterator[tuple[MeterAnalysis, Any]]:
    """Each meter's analysis and ``render(analysis)`` (``None`` without a
    render) in meter order, then the error of the first meter that failed.

    This thread builds each meter's profiles and ``fit_counts``, in meter
    order, up to the first meter that fails.  Then one :func:`kmeans_fit`
    per (meter, k) and, per meter once its fits are back, one
    :func:`_finish` run on ``min(workers, fits)`` workers: with one, in
    this thread, meter by meter; with more, in a fork pool that takes the
    fits largest k first (k is the cost known in advance).
    """
    prepared, counts, failure = {}, {}, None
    for meter_id in meter_ids:
        span = store.span(meter_id, POSITIVE_ACTIVE_ENERGY)
        try:
            if span is None:
                raise InsufficientDataError("no readings for meter {!r}".format(meter_id))
            series = store.mean_power_series(meter_id, POSITIVE_ACTIVE_ENERGY, *span)
            prepared[meter_id] = build_daily_profiles(series, config.min_completeness)
            counts[meter_id] = fit_counts(prepared[meter_id][0], config.k)
        except (InsufficientDataError, SpanTooLong) as exc:
            failure = exc
            break
    fits = sorted(((meter_id, k) for meter_id in counts for k in counts[meter_id]), key=lambda fit: -fit[1])
    workers = min(workers, len(fits))
    run = (config, render, prepared)
    _runs[id(run)] = run
    try:
        if workers <= 1:
            for meter_id, ks in counts.items():
                yield _finish(id(run), meter_id, [_fit(id(run), meter_id, k) for k in ks])
        else:
            # Imported here: at module level they would add to every command's
            # start-up and memory, `serve` included, which never starts a pool.
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            # It forks at its first submit, when the run is in _runs.
            pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
            try:
                fitted = {fit: pool.submit(_fit, id(run), *fit) for fit in fits}
                # Each meter's finish once its fits are back, waited for in meter order.
                finished = [pool.submit(_finish, id(run), meter_id, [fitted[meter_id, k].result() for k in ks])
                            for meter_id, ks in counts.items()]
                for task in finished:
                    yield task.result()
            finally:
                pool.shutdown(cancel_futures=True)
    finally:
        del _runs[id(run)]
    if failure is not None:
        raise failure


def _fit(run_id: int, meter_id: str, k: int) -> ClusterModel:
    """One fit of a meter's profiles in run ``run_id``."""
    config, _, prepared = _runs[run_id]
    return kmeans_fit(prepared[meter_id][0], k, seed=config.seed, restarts=config.restarts)


def _finish(run_id: int, meter_id: str, models: list[ClusterModel]) -> tuple[MeterAnalysis, Any]:
    """A meter's analysis in run ``run_id`` from its fits at ``fit_counts``'s
    cluster counts, in that order: the knee rule's pick (or the fixed-k
    fit), its cluster summary and the anomaly ranking; and its render."""
    config, render, prepared = _runs[run_id]
    profiles, excluded = prepared[meter_id]
    selection = knee_selection(models) if config.k is None else None
    model = models[0] if selection is None else selection.model
    analysis = MeterAnalysis(meter_id=meter_id, profiles=profiles, excluded=excluded, selection=selection, model=model,
                             summary=mean_cluster_profiles(model), report=anomaly_scores(model, profiles))
    return analysis, None if render is None else render(analysis)


def canonical_json(data: Any) -> str:
    """Stable JSON text for byte-for-byte comparisons across surfaces."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
