"""Anomalous-day ranking by Euclidean distance to the nearest mean profile.

A day's score is its distance to the closest cluster centroid, so days
that fit none of the household's routines rank highest.  The full ranking
is always reported; the flag threshold is a robust cut: for each cluster,
median plus three sigma-scaled MADs of its fit-set scores, taking the
most tolerant cluster's bound.  Median/MAD keeps several simultaneous
anomalies from masking each other the way a mean/stddev cut would, and
the per-cluster grouping keeps one loose routine from hiding anomalies
sitting near a tight one.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .clustering import ClusterModel, _sq_dists
from .profiles import DailyProfiles

# Consistency factor making the median absolute deviation estimate a
# standard deviation for normally distributed scores.
MAD_SIGMA_SCALE = 1.4826
THRESHOLD_MADS = 3.0


@dataclass(frozen=True)
class AnomalyReport:
    meter_id: str
    k: int
    scores: dict[date, float]
    ranked_days: tuple[date, ...]
    threshold: float
    flagged: tuple[date, ...]

    def top(self, n: int) -> tuple[date, ...]:
        return self.ranked_days[:n]

    def to_json_dict(self) -> dict:
        return {
            "meter_id": self.meter_id,
            "k": self.k,
            "threshold": self.threshold,
            "scores": {d.isoformat(): float(s) for d, s in sorted(self.scores.items())},
            "ranked_days": [d.isoformat() for d in self.ranked_days],
            "flagged": [d.isoformat() for d in self.flagged],
        }


def anomaly_scores(model: ClusterModel, profiles: DailyProfiles) -> AnomalyReport:
    """Score and rank the given days against the model's centroids.

    Ranking is by descending score with earlier dates winning ties.  The
    threshold is computed from the scores of the days the model was fit
    on (falling back to all scored days if none of them are present).

    Raises:
        ValueError: if there are no profiles.
    """
    if not len(profiles):
        raise ValueError("no profiles to score")
    distances = np.sqrt(_sq_dists(profiles.values, model.centroids).min(axis=1))
    scores = dict(zip(profiles.days, distances.tolist()))

    by_cluster: dict[int, list[float]] = {}
    for d in sorted(scores):
        if d in model.assignments:
            by_cluster.setdefault(model.assignments[d], []).append(scores[d])
    if by_cluster:
        threshold = max(robust_threshold(group) for group in by_cluster.values())
    else:
        threshold = robust_threshold([scores[d] for d in sorted(scores)])

    ranked = tuple(sorted(scores, key=lambda d: (-scores[d], d)))
    flagged = tuple(d for d in ranked if scores[d] > threshold)
    return AnomalyReport(
        meter_id=profiles.meter_id,
        k=model.k,
        scores=scores,
        ranked_days=ranked,
        threshold=threshold,
        flagged=flagged,
    )


def robust_threshold(scores: Sequence[float]) -> float:
    """Median + 3 sigma-scaled MADs; scale-equivariant and masking-proof."""
    arr = np.asarray(list(scores), dtype=float)
    med = float(np.median(arr))
    mad = float(np.median(np.abs(arr - med)))
    return med + THRESHOLD_MADS * MAD_SIGMA_SCALE * mad
