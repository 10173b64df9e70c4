"""K-means over daily profiles: seeded k-means++ init, Lloyd iterations,
best-of-restarts selection, and the knee-rule cluster-count pick.

Determinism contract: restart ``r`` of a fit seeded with ``s`` draws from
a generator derived from ``(s, r)``; the winning restart is the lowest
(inertia, restart index) pair, so parallel and sequential execution agree.
Nearest-centroid ties resolve to the lowest cluster index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .profiles import DailyProfiles

DEFAULT_RESTARTS = 10
MAX_LLOYD_PASSES = 300
K_MIN = 1
K_MAX = 6

# Relative inertia improvement below which adding a cluster stops paying off.
KNEE_DROP = 0.15
# All pairwise distances under this floor means one cluster tells the story.
DEGENERATE_DISTANCE_FLOOR = 1e-6


class InsufficientDataError(ValueError):
    """Not enough readings or profiles to run the requested analysis."""


@dataclass
class ClusterModel:
    """A fitted profile clustering.

    ``assignments`` maps each day to the index of its nearest centroid;
    ``inertia`` is the sum of squared distances to assigned centroids and
    can be recomputed from the other fields.  ``inertia_history`` records
    the objective after each assignment pass of the winning restart.
    """

    k: int
    centroids: np.ndarray
    assignments: dict[date, int]
    inertia: float
    seed: int
    iterations: int
    restart_index: int
    inertia_history: tuple[float, ...]

    def counts(self) -> list[int]:
        sizes = [0] * self.k
        for label in self.assignments.values():
            sizes[label] += 1
        return sizes

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "iterations": self.iterations,
            "restart_index": self.restart_index,
            "inertia": self.inertia,
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "assignments": {d.isoformat(): int(c) for d, c in sorted(self.assignments.items())},
        }


@dataclass
class ClusterSummary:
    """Mean profile and population of each cluster."""

    centroids: np.ndarray
    counts: list[int]
    most_populated: int

    def to_json_dict(self) -> dict:
        return {
            "counts": self.counts,
            "most_populated": self.most_populated,
            "mean_profiles": [[float(v) for v in row] for row in self.centroids],
        }


@dataclass
class KSelectionReport:
    """Inertia for each candidate k, the recommended cluster count, and the
    scan's fit at that count (not serialized)."""

    k_values: tuple[int, ...]
    inertias: tuple[float, ...]
    recommended_k: int
    model: ClusterModel = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "k_values": list(self.k_values),
            "inertias": list(self.inertias),
            "recommended_k": self.recommended_k,
        }


def _sq_dists(
    A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None, rows: Sequence[int] | None = None
) -> np.ndarray:
    """Squared Euclidean distance from every row of A to every row of B.

    One row of B at a time, ``((A - B[j]) ** 2).sum(axis=1)`` in one
    reused buffer shaped like A: the same IEEE operations summing the same
    contiguous rows as the broadcast form ``tests/oracles.py`` keeps,
    without its len(A) x len(B) x width temporary.  With ``out``, only
    ``B[rows]`` (default all of B) are measured, each into its column of
    ``out``.
    """
    if out is None:
        out = np.empty((A.shape[0], B.shape[0]))
    diff = np.empty(A.shape)
    for j in range(B.shape[0]) if rows is None else rows:
        np.subtract(A, B[j], out=diff)
        np.square(diff, out=diff)
        np.sum(diff, axis=1, out=out[:, j])
    return out


def _centroids(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    return np.vstack([X[labels == c].mean(axis=0) for c in range(k)])


def _inertia(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((X - centroids[labels]) ** 2).sum())


def _plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of data points.

    Consumes exactly one uniform draw per added centroid, so the draw
    sequence is invariant under rescaling of X.  The distance to the
    nearest chosen point is a running minimum, one new column per draw.
    """
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = None
    for _ in range(1, k):
        newest = _sq_dists(X, X[chosen[-1]][None, :])[:, 0]
        d2 = newest if d2 is None else np.minimum(d2, newest, out=d2)
        total = d2.sum()
        u = rng.random()
        if total <= 0.0:
            index = min(int(u * n), n - 1)
        else:
            index = int(np.searchsorted(np.cumsum(d2 / total), u, side="right"))
            index = min(index, n - 1)
        chosen.append(index)
    return X[chosen].copy()


def _repair_empty(
    X: np.ndarray, centroids: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    """Move the farthest point of a multi-member cluster into each empty one
    (``kmeans_fit`` refuses fewer points than clusters, so there is one)."""
    if np.bincount(labels, minlength=k).all():
        return labels
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


def _single_move_polish(
    X: np.ndarray, labels: np.ndarray, centroids: np.ndarray, d2: np.ndarray, k: int
) -> tuple[np.ndarray, bool]:
    """Greedy single-point moves with exact objective deltas.

    Lloyd stops when no point is nearer another centroid; a point can
    still lower the total inertia by moving once the centroid shift it
    causes is priced in (Hartigan's criterion).  Applying such moves
    until none improves escapes the flat local optima Lloyd gets stuck
    in on tiny instances; every stable point of this polish is also a
    Lloyd fixed point.

    ``centroids`` and ``d2`` are those of ``labels`` (as ``_lloyd``
    returns them); each move updates both in place, so they stay those
    of the returned labels.
    """
    labels = labels.copy()
    moved_any = False
    rows = np.arange(X.shape[0])
    counts = np.bincount(labels, minlength=k)
    for _ in range(200 * X.shape[0]):  # hard cap against float-noise cycling
        own = counts[labels]
        with np.errstate(divide="ignore", invalid="ignore"):  # own <= 1 rows are masked
            delta = d2 * counts / (counts + 1.0) - (d2[rows, labels] * own / (own - 1.0))[:, None]
        delta[rows, labels] = np.inf
        delta[own <= 1] = np.inf
        # Flat argmin keeps the first minimum in point-major order.
        i, b = divmod(int(np.argmin(delta)), k)
        if delta[i, b] >= -1e-12:
            break
        a = labels[i]
        labels[i] = b
        counts[a] -= 1
        counts[b] += 1
        # Only clusters a and b change; recompute them as _centroids would.
        for c in (a, b):
            centroids[c] = X[labels == c].mean(axis=0)
        _sq_dists(X, centroids, out=d2, rows=(a, b))
        moved_any = True
    return labels, moved_any


def _lloyd(
    X: np.ndarray, centroids: np.ndarray, k: int, d2: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, int, list[float], np.ndarray]:
    """Assign and recompute until an assignment pass changes no label.

    Returns the centroids, their labels, the inertia, the passes that
    changed labels, the inertia after every pass and the distance matrix
    to the centroids.  ``d2``, if given, is the distance matrix to
    ``centroids``.
    """
    labels = None
    history: list[float] = []
    iterations = 0
    for _ in range(MAX_LLOYD_PASSES):
        if d2 is None:
            d2 = _sq_dists(X, centroids)
        new_labels = _repair_empty(X, centroids, np.argmin(d2, axis=1), k)  # lowest index wins ties
        history.append(_inertia(X, centroids, new_labels))
        if labels is not None and np.array_equal(new_labels, labels):
            # The centroids are already those of these labels.
            return centroids, labels, history[-1], iterations, history, d2
        labels = new_labels
        iterations += 1
        centroids = _centroids(X, labels, k)
        d2 = None
    return centroids, labels, _inertia(X, centroids, labels), iterations, history, _sq_dists(X, centroids)


def kmeans_fit(
    profiles: DailyProfiles,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> ClusterModel:
    """Fit k clusters, keeping the best of ``restarts`` seeded attempts.

    Raises:
        ValueError: if k is outside 1..6 or there are fewer profiles than k.
    """
    if not K_MIN <= k <= K_MAX:
        raise ValueError("k must lie in {}..{}".format(K_MIN, K_MAX))
    X = profiles.values
    fit_counts(profiles, k)  # fewer profiles than k
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        centroids, labels, inertia, iterations, history, d2 = _lloyd(X, _plus_plus_init(X, k, rng), k)
        # Alternate Lloyd with the single-move polish until neither improves;
        # the polish keeps centroids and d2 those of its labels for Lloyd.
        for _ in range(32):
            labels, moved = _single_move_polish(X, labels, centroids, d2, k)
            if not moved:
                break
            centroids, labels, inertia, more_iters, extra, d2 = _lloyd(X, centroids, k, d2)
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


def select_k(
    profiles: DailyProfiles,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> KSelectionReport:
    """Fit each of :func:`fit_counts`'s cluster counts and recommend the
    knee of the inertia curve (:func:`knee_selection`).

    Raises:
        ValueError: with fewer than ``K_MAX`` profiles.
    """
    return knee_selection([kmeans_fit(profiles, k, seed=seed, restarts=restarts) for k in fit_counts(profiles)])


def fit_counts(profiles: DailyProfiles, k: int | None = None) -> tuple[int, ...]:
    """The cluster counts to fit: ``k`` alone, or with ``k`` None those of
    the scan, ``K_MIN``..``K_MAX``, or ``K_MIN`` alone when the profiles
    are all within a tiny distance of each other.

    Raises:
        InsufficientDataError: fewer profiles than ``k``, or with ``k``
            None than ``K_MAX``, as the fits themselves would.
    """
    if k is not None:
        if len(profiles) < k:
            raise InsufficientDataError("{} profile(s) available, k={} requested".format(len(profiles), k))
        return (k,)
    if len(profiles) < K_MAX:
        message = "{} profile(s) available; scanning k={}..{} needs at least {}"
        raise InsufficientDataError(message.format(len(profiles), K_MIN, K_MAX, K_MAX))
    return (K_MIN,) if _is_degenerate(profiles.values) else tuple(range(K_MIN, K_MAX + 1))


def knee_selection(models: Sequence[ClusterModel]) -> KSelectionReport:
    """The scan's report from its fits, one per count of :func:`fit_counts`.

    The recommendation is the smallest k whose relative inertia drop to
    k+1 falls below 15%.  Cluster counts that isolate a single day are
    treated as over-segmentation and end the scan: a routine that happens
    once is not a routine, and giving an atypical day its own centroid
    would hide it from the anomaly ranking.  A single ``K_MIN`` fit (the
    profiles are all alike) is recommended with every inertia 0.
    """
    k_values = tuple(range(K_MIN, K_MAX + 1))
    if len(models) == 1:
        return KSelectionReport(k_values, tuple(0.0 for _ in k_values), K_MIN, models[0])
    inertias = [model.inertia for model in models]
    last_sound_k = K_MIN
    while last_sound_k < K_MAX and min(models[last_sound_k].counts()) >= 2:
        last_sound_k += 1
    recommended = last_sound_k
    for k in range(K_MIN, last_sound_k):
        current, following = inertias[k - 1], inertias[k]
        drop = 0.0 if current <= 0.0 else (current - following) / current
        if drop < KNEE_DROP:
            recommended = k
            break
    return KSelectionReport(k_values, tuple(inertias), recommended, models[recommended - 1])


def _is_degenerate(X: np.ndarray) -> bool:
    """Whether every pairwise distance lies under the floor; one row at a
    time (an n x 96 temporary), stopping at the first row that proves spread."""
    return all(np.sqrt(_sq_dists(X, X[i : i + 1]).max()) < DEGENERATE_DISTANCE_FLOOR for i in range(X.shape[0]))


def mean_cluster_profiles(model: ClusterModel) -> ClusterSummary:
    """Centroids with member counts; the most populated cluster is the
    household's most typical routine (lowest index wins a tie)."""
    counts = model.counts()
    most = max(range(model.k), key=lambda c: (counts[c], -c))
    return ClusterSummary(model.centroids.copy(), counts, most)
