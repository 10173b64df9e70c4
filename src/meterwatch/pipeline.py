"""End-to-end analysis shared by the CLI and the HTTP service.

Both surfaces call :func:`analyze_meter` with the same configuration, so
a file-based run and a service request over identical readings produce
identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from math import inf
from typing import Any

from .anomaly import AnomalyReport, anomaly_scores
from .clustering import (
    ClusterModel,
    ClusterSummary,
    DEFAULT_RESTARTS,
    InsufficientDataError,
    KSelectionReport,
    K_MAX,
    K_MIN,
    fit_counts,
    kmeans_fit,
    knee_selection,
    mean_cluster_profiles,
    select_k,  # not called here: perfbench/tracing.py wraps pipeline.select_k by name
)
from .personas import SLOTS_PER_DAY
from .profiles import DEFAULT_MIN_COMPLETENESS, DailyProfiles, ExcludedDay, build_daily_profiles
from .protocol import POSITIVE_ACTIVE_ENERGY
from .store import TelemetryStore

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
    """Profiles -> k-scan, reusing its fit at the recommended k (or one fit
    at a fixed k) -> anomaly ranking: :func:`meter_profiles`, a fit at each
    of ``fit_counts``'s cluster counts, then :func:`finish_analysis`.

    Raises:
        InsufficientDataError: no readings, or fewer profiles than the
            analysis needs (K_MAX for the scan, k for a fixed-k fit).
        SpanTooLong: the meter's readings span more than
            ``store.MAX_GRID_SLOTS`` slots.
    """
    config = config or AnalysisConfig()
    profiles, excluded = meter_profiles(store, meter_id, config)
    ks = fit_counts(profiles, config.k)
    models = [kmeans_fit(profiles, k, seed=config.seed, restarts=config.restarts) for k in ks]
    return finish_analysis(meter_id, profiles, excluded, models, config)


def meter_profiles(
    store: TelemetryStore, meter_id: str, config: AnalysisConfig
) -> tuple[DailyProfiles, list[ExcludedDay]]:
    """The meter's daily profiles over its whole span, and the days left out.

    Raises:
        InsufficientDataError: no readings.
        SpanTooLong: the readings span more than ``store.MAX_GRID_SLOTS`` slots.
    """
    span = store.span(meter_id, POSITIVE_ACTIVE_ENERGY)
    if span is None:
        raise InsufficientDataError("no readings for meter {!r}".format(meter_id))
    samples = store.mean_power_series(meter_id, POSITIVE_ACTIVE_ENERGY, span[0], span[1])
    return build_daily_profiles(samples, config.min_completeness)


def finish_analysis(
    meter_id: str, profiles: DailyProfiles, excluded: list[ExcludedDay], models: list[ClusterModel],
    config: AnalysisConfig,
) -> MeterAnalysis:
    """The analysis from the fits at ``fit_counts(profiles, config.k)``'s
    cluster counts, in that order: the knee rule's pick (or the fixed-k
    fit), its cluster summary and the anomaly ranking."""
    selection = knee_selection(models) if config.k is None else None
    model = models[0] if selection is None else selection.model
    return MeterAnalysis(
        meter_id=meter_id,
        profiles=profiles,
        excluded=excluded,
        selection=selection,
        model=model,
        summary=mean_cluster_profiles(model),
        report=anomaly_scores(model, profiles),
    )


def canonical_json(data: Any) -> str:
    """Stable JSON text for byte-for-byte comparisons across surfaces."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
