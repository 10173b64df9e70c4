"""Independent reference implementations used to cross-check the package.

These deliberately avoid the code paths under test: the XOR fold uses
functools.reduce, the k-means oracle enumerates every assignment, and the
Rand index works from the contingency table.  ``single_move_polish`` is the
pair-by-pair loop that the vectorised ``clustering._single_move_polish``
replaced, kept so the two can be compared move for move.
"""

from __future__ import annotations

import itertools
from datetime import date, timedelta
from functools import reduce
from math import comb
from operator import xor

import numpy as np

from meterwatch.clustering import _centroids, _sq_dists
from meterwatch.profiles import DailyProfile


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


def single_move_polish(X: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """Hartigan single-move polish, searching every (point, cluster) pair in
    point-major order; the first strictly best move wins."""
    labels = labels.copy()
    moved_any = False
    for _ in range(200 * X.shape[0]):
        counts = np.bincount(labels, minlength=k)
        d2 = _sq_dists(X, _centroids(X, labels, k))
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


def profiles_from_matrix(X, meter_id: str = "T") -> list[DailyProfile]:
    """Wrap a (n, 96) matrix as daily profiles on consecutive dates."""
    first = date(2024, 6, 1)
    return [
        DailyProfile(meter_id, first + timedelta(days=i), tuple(float(v) for v in row), 1.0)
        for i, row in enumerate(np.asarray(X, dtype=float))
    ]
