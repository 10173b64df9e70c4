from __future__ import annotations

from datetime import datetime, timedelta, timezone
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import START, profiles_through_store
from meterwatch import clustering, pipeline
from meterwatch.clustering import (
    InsufficientDataError,
    kmeans_fit,
    mean_cluster_profiles,
    select_k,
)
from meterwatch.personas import SLOTS_PER_DAY, build_persona
from meterwatch.pipeline import AnalysisConfig, analyze_meter
from meterwatch.protocol import POSITIVE_ACTIVE_ENERGY
from meterwatch.simulator import simulate_period
from meterwatch.store import MeterReading, TelemetryStore
import oracles
from oracles import exact_min_inertia, lloyd, profile_rows, profiles_from_matrix, single_move_polish


def matrix(*rows):
    return np.array([np.full(96, float(r)) if np.isscalar(r) else r for r in rows])


def test_two_points_two_clusters_is_exact():
    profiles = profiles_from_matrix(matrix(0.0, 10.0))
    model = kmeans_fit(profiles, 2, seed=1, restarts=5)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    got = {tuple(c) for c in model.centroids}
    assert got == {(0.0,) * 96, (10.0,) * 96}


def test_three_level_instance_matches_exhaustive_partition():
    X = matrix(0.0, 2.0, 10.0)
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 2, seed=0, restarts=50)
    # optimal partition is {0, 2} vs {10}: 96 * (1^2 + 1^2) = 192
    assert model.inertia == pytest.approx(192.0, abs=1e-9)
    assert model.inertia == pytest.approx(exact_min_inertia(X, 2), abs=1e-9)
    labels = [model.assignments[day] for day in profiles.days]
    assert labels[0] == labels[1] != labels[2]


def test_k1_closed_form():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 100, size=(12, 96))
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 1, seed=3, restarts=3)
    assert np.allclose(model.centroids[0], X.mean(axis=0))
    expected = float(((X - X.mean(axis=0)) ** 2).sum())
    assert model.inertia == pytest.approx(expected, rel=1e-12)


def test_fewer_profiles_than_k_is_an_error():
    assert pipeline.InsufficientDataError is InsufficientDataError and issubclass(InsufficientDataError, ValueError)
    profiles = profiles_from_matrix(matrix(0.0, 1.0))
    with pytest.raises(InsufficientDataError, match=r"^2 profile\(s\) available, k=3 requested$"):
        kmeans_fit(profiles, 3, seed=0)


def test_k_out_of_range_is_an_error():
    profiles = profiles_from_matrix(np.zeros((8, 96)))
    with pytest.raises(ValueError):
        kmeans_fit(profiles, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(profiles, 7, seed=0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(9)
    profiles = profiles_from_matrix(rng.uniform(0, 500, size=(20, 96)))
    a = kmeans_fit(profiles, 3, seed=17, restarts=8)
    b = kmeans_fit(profiles, 3, seed=17, restarts=8)
    assert a.assignments == b.assignments
    assert a.inertia == b.inertia
    assert np.array_equal(a.centroids, b.centroids)
    assert a.restart_index == b.restart_index


def test_lloyd_objective_never_increases():
    rng = np.random.default_rng(2)
    profiles = profiles_from_matrix(rng.uniform(0, 300, size=(24, 96)))
    model = kmeans_fit(profiles, 3, seed=4, restarts=6)
    history = model.inertia_history
    assert len(history) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    assert history[-1] == pytest.approx(model.inertia, rel=1e-12)


def test_termination_is_a_fixed_point():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 300, size=(18, 96))
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 3, seed=8, restarts=4)
    d2 = ((X[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    relabels = d2.argmin(axis=1)
    assert [model.assignments[day] for day in profiles.days] == list(relabels)


def test_model_invariants_hold_after_fit():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 300, size=(15, 96))
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 3, seed=2, restarts=5)
    labels = np.array([model.assignments[day] for day in profiles.days])
    # every assignment points at the nearest centroid, lowest index on ties
    d2 = ((X[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels, d2.argmin(axis=1))
    # each centroid is the mean of its members and no cluster is empty
    for cluster in range(model.k):
        members = X[labels == cluster]
        assert len(members) > 0
        assert np.allclose(model.centroids[cluster], members.mean(axis=0))
    # inertia is recomputable from the fields
    recomputed = float(((X - model.centroids[labels]) ** 2).sum())
    assert model.inertia == pytest.approx(recomputed, rel=1e-12)


def test_small_instances_reach_the_exhaustive_optimum():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        X = rng.uniform(0, 100, size=(n, 96))
        achieved = kmeans_fit(profiles_from_matrix(X), k, seed=int(rng.integers(2**32)), restarts=50).inertia
        optimal = exact_min_inertia(X, k)
        assert achieved <= optimal * (1 + 1e-9) + 1e-9


def test_duplicate_points_need_no_special_handling():
    X = matrix(5.0, 5.0, 5.0, 9.0)
    model = kmeans_fit(profiles_from_matrix(X), 3, seed=0, restarts=10)
    assert model.inertia == pytest.approx(0.0, abs=1e-9)
    assert sorted(model.counts(), reverse=True) == [2, 1, 1]


def test_identical_profiles_recommend_one_cluster():
    profiles = profiles_from_matrix(np.full((10, 96), 7.0))
    report = select_k(profiles, seed=1, restarts=3)
    assert report.recommended_k == 1
    assert all(i == pytest.approx(0.0, abs=1e-9) for i in report.inertias)


def test_three_separated_routines_recommend_three():
    rng = np.random.default_rng(11)
    groups = []
    for level_slots in [(20, 28), (44, 52), (70, 78)]:
        for _ in range(8):
            row = rng.normal(40.0, 5.0, 96)
            row[level_slots[0] : level_slots[1]] += 1500.0
            groups.append(row)
    profiles = profiles_from_matrix(np.abs(np.array(groups)))
    report = select_k(profiles, seed=5, restarts=10)
    assert report.recommended_k == 3


def test_quiet_household_needs_at_most_two_clusters():
    sim = simulate_period(build_persona("S3"), START, 30, seed=5)
    profiles, _, _ = profiles_through_store(sim)
    report = select_k(profiles, seed=5, restarts=10)
    assert report.recommended_k <= 2


def test_select_k_requires_six_profiles():
    message = r"^5 profile\(s\) available; scanning k=1\.\.6 needs at least 6$"
    with pytest.raises(InsufficientDataError, match=message):
        select_k(profiles_from_matrix(np.zeros((5, 96))), seed=0)


def test_select_k_inertia_is_non_increasing(s4_profiles):
    report = select_k(s4_profiles, seed=3, restarts=10)
    assert all(b <= a + 1e-6 for a, b in zip(report.inertias, report.inertias[1:]))


def test_mean_profiles_k1_is_global_mean():
    X = np.random.default_rng(1).uniform(0, 10, (7, 96))
    model = kmeans_fit(profiles_from_matrix(X), 1, seed=0, restarts=2)
    summary = mean_cluster_profiles(model)
    assert summary.counts == [7]
    assert summary.most_populated == 0
    assert np.allclose(summary.centroids[0], X.mean(axis=0))


def test_mean_profiles_symmetric_groups_have_equal_counts():
    X = matrix(*([0.0] * 5 + [500.0] * 5))
    model = kmeans_fit(profiles_from_matrix(X), 2, seed=2, restarts=5)
    summary = mean_cluster_profiles(model)
    assert sorted(summary.counts) == [5, 5]


def test_most_typical_s4_routine_peaks_morning_and_evening(s4_profiles):
    model = kmeans_fit(s4_profiles, 3, seed=7, restarts=10)
    summary = mean_cluster_profiles(model)
    centroid = summary.centroids[summary.most_populated]
    assert summary.counts[summary.most_populated] == max(summary.counts)
    morning = centroid[30:37].max()
    assert morning > centroid[24:30].max()
    assert morning > centroid[38:44].max()
    evening = centroid[80:89].max()
    assert evening > centroid[68:78].max()
    assert evening > centroid[92:].max()


def test_model_serializes_to_plain_json(s4_profiles):
    model = kmeans_fit(profile_rows(s4_profiles, range(10)), 2, seed=1, restarts=3)
    data = model.to_json_dict()
    assert data["k"] == 2
    assert len(data["centroids"]) == 2
    assert len(data["centroids"][0]) == 96
    assert len(data["assignments"]) == 10
    rebuilt_inertia = data["inertia"]
    assert rebuilt_inertia == pytest.approx(model.inertia)


def test_select_k_never_gives_an_outlier_its_own_cluster():
    rng = np.random.default_rng(21)
    rows = []
    for level_slots in [(20, 28), (44, 52), (70, 78)]:
        for _ in range(9):
            row = rng.normal(40.0, 5.0, 96)
            row[level_slots[0] : level_slots[1]] += 1500.0
            rows.append(row)
    outlier = rng.normal(40.0, 5.0, 96)
    outlier[80:92] += 2500.0
    rows.append(outlier)
    profiles = profiles_from_matrix(np.abs(np.array(rows)))
    report = select_k(profiles, seed=2, restarts=10)
    assert report.recommended_k == 3
    model = kmeans_fit(profiles, report.recommended_k, seed=2, restarts=10)
    assert min(model.counts()) >= 2
    from meterwatch.anomaly import anomaly_scores

    ranked = anomaly_scores(model, profiles).ranked_days
    assert ranked[0] == profiles.days[-1]


def flat_store(days: int = 10) -> TelemetryStore:
    """A meter drawing a constant 400 W, so every daily profile is identical."""
    start = datetime(2024, 6, 3, tzinfo=timezone.utc)
    store = TelemetryStore()
    store.ingest(
        [
            MeterReading("FLAT", start + timedelta(minutes=15 * i), POSITIVE_ACTIVE_ENERGY, Decimal(i) / 10)
            for i in range(96 * days + 1)
        ]
    )
    return store


@pytest.mark.parametrize("degenerate", [False, True], ids=["knee", "identical-profiles"])
def test_analysis_reports_the_scan_fit_at_the_recommended_k(s4_month, degenerate):
    if degenerate:
        store, meter_id = flat_store(), "FLAT"
    else:
        _, _, store = profiles_through_store(s4_month)
        meter_id = s4_month.meter_id
    config = AnalysisConfig(seed=4, restarts=3)
    analysis = analyze_meter(store, meter_id, config)
    k = analysis.selection.recommended_k
    assert (k == 1) == degenerate
    refit = kmeans_fit(analysis.profiles, k, seed=config.seed, restarts=config.restarts)
    assert analysis.model.to_json_dict() == refit.to_json_dict()


@pytest.mark.parametrize("k, fitted_ks", [(None, [1, 2, 3, 4, 5, 6]), (3, [3])])
def test_analysis_fits_each_model_once(s4_month, monkeypatch, k, fitted_ks):
    _, _, store = profiles_through_store(s4_month)
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(args[1])
        return kmeans_fit(*args, **kwargs)

    monkeypatch.setattr(clustering, "kmeans_fit", counting_fit)
    monkeypatch.setattr(pipeline, "kmeans_fit", counting_fit)
    analyze_meter(store, s4_month.meter_id, AnalysisConfig(seed=4, restarts=2, k=k))
    assert calls == fitted_ks


@st.composite
def polish_inputs(draw):
    """Small (X, labels, k) with no empty cluster.  Integer-valued rows drawn
    from a small pool repeat, so equal deltas (ties) are common."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(n, 6)))
    width = draw(st.sampled_from([1, 3, 96]))
    if draw(st.booleans()):
        pool = draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width), min_size=1, max_size=4))
        rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    else:
        value = st.floats(0, 500, allow_nan=False, allow_infinity=False)
        rows = [draw(st.lists(value, min_size=width, max_size=width)) for _ in range(n)]
    labels = list(range(k)) + [draw(st.integers(0, k - 1)) for _ in range(n - k)]
    labels = draw(st.permutations(labels))
    return np.array(rows, dtype=float), np.array(labels, dtype=np.int64), k


@settings(max_examples=300, deadline=None)
@given(polish_inputs())
def test_single_move_polish_matches_the_pairwise_loop(case):
    X, labels, k = case
    centroids = clustering._centroids(X, labels, k)
    d2 = clustering._sq_dists(X, centroids)
    got_labels, got_moved = clustering._single_move_polish(X, labels, centroids, d2, k)
    want_labels, want_moved = single_move_polish(X, labels, k)
    assert np.array_equal(got_labels, want_labels)
    assert got_moved == want_moved
    # The polish leaves centroids and d2 those of the labels it returns.
    assert bits(centroids) == bits(clustering._centroids(X, got_labels, k))
    assert bits(d2) == bits(oracles.sq_dists(X, centroids))


@settings(max_examples=300, deadline=None)
@given(polish_inputs(), st.sampled_from([1.0, 1e-7]), st.integers(0, 2**32 - 1))
def test_lloyd_matches_the_tolerance_loop(case, scale, seed):
    """Stopping on unchanged labels alone ends where the loop that also
    stopped on a centroid shift under 1e-6 did; scaled by 1e-7 every shift
    is under it, so its confirming pass both holds and fails."""
    X, _, k = case
    X = X * scale
    init = clustering._plus_plus_init(X, k, np.random.default_rng([seed, 0]))
    got = clustering._lloyd(X, init.copy(), k)
    want = lloyd(X, init.copy(), k)
    assert np.array_equal(got[1], want[1])
    assert bits(got[0]) == bits(want[0])
    assert got[2:5] == want[2:]


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@st.composite
def distance_inputs(draw):
    """(A, B) of one width; rows repeat often and one-row sides are common."""
    width = draw(st.sampled_from([1, 3, 8, 9, 96, 130]))
    value = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=4))
    def side():
        return np.array(
            [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))]
        ).reshape(-1, width)
    return side(), side()


@settings(max_examples=300, deadline=None)
@given(distance_inputs())
def test_sq_dists_matches_the_broadcast_form_bitwise(case):
    A, B = case
    assert bits(clustering._sq_dists(A, B)) == bits(oracles.sq_dists(A, B))
    assert bits(clustering._sq_dists(A, A[:1])) == bits(oracles.sq_dists(A, A[:1]))


@settings(max_examples=100, deadline=None)
@given(distance_inputs(), st.data())
def test_sq_dists_writes_only_the_given_columns(case, data):
    A, B = case
    rows = data.draw(st.lists(st.integers(0, len(B) - 1), unique=True))
    out = np.full((len(A), len(B)), -1.0)
    assert clustering._sq_dists(A, B, out=out, rows=rows) is out
    want = np.full((len(A), len(B)), -1.0)
    want[:, rows] = oracles.sq_dists(A, B)[:, rows]
    assert bits(out) == bits(want)


@st.composite
def fit_inputs(draw):
    """Small profile matrices with repeated and all-equal rows, a k they
    can hold, a seed and a restart count."""
    n = draw(st.integers(1, 14))
    width = SLOTS_PER_DAY
    kind = draw(st.sampled_from(["pool", "floats", "equal"]))
    if kind == "equal":
        X = np.full((n, width), draw(st.floats(0, 500)))
    elif kind == "pool":
        pool = draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width), min_size=1, max_size=4))
        X = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)], dtype=float)
    else:  # each row repeats a few drawn values over its slots
        value = st.floats(0, 500, allow_nan=False, allow_infinity=False)
        X = np.array([np.resize(draw(st.lists(value, min_size=1, max_size=8)), width) for _ in range(n)])
    k = draw(st.integers(1, min(n, 6)))
    return X, k, draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 4))


def assert_same_model(got, want):
    assert bits(got.centroids) == bits(want.centroids)
    assert got.assignments == want.assignments
    assert got.inertia.hex() == want.inertia.hex()
    assert (got.iterations, got.restart_index, got.seed) == (want.iterations, want.restart_index, want.seed)
    assert [v.hex() for v in got.inertia_history] == [v.hex() for v in want.inertia_history]


@settings(max_examples=300, deadline=None)
@given(fit_inputs())
def test_kmeans_fit_matches_the_recomputing_fit(case):
    X, k, seed, restarts = case
    profiles = profiles_from_matrix(X)
    assert_same_model(kmeans_fit(profiles, k, seed, restarts), oracles.kmeans_fit(profiles, k, seed, restarts))


@settings(max_examples=60, deadline=None)
@given(fit_inputs().filter(lambda case: len(case[0]) >= clustering.K_MAX))
def test_select_k_matches_the_scan_over_the_recomputing_fit(case):
    X, _, seed, restarts = case
    profiles = profiles_from_matrix(X)
    got = select_k(profiles, seed, restarts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "kmeans_fit", oracles.kmeans_fit)
        want = select_k(profiles, seed, restarts)
    assert got.to_json_dict() == want.to_json_dict()
    assert [v.hex() for v in got.inertias] == [v.hex() for v in want.inertias]
    assert_same_model(got.model, want.model)


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_lloyd_stopped_by_the_pass_cap_matches_the_recomputing_loop(monkeypatch, passes):
    """With too few passes to repeat the labels, Lloyd measures its final
    centroids after the loop, as the recomputing loop did."""
    X = np.random.default_rng(passes).uniform(0, 300, size=(40, 96))
    init = X[:4].copy()
    monkeypatch.setattr(clustering, "MAX_LLOYD_PASSES", passes)
    centroids, labels, inertia, iterations, history, d2 = clustering._lloyd(X, init.copy(), 4)
    want = oracles.labels_lloyd(X, init.copy(), 4, max_passes=passes)
    assert bits(centroids) == bits(want[0])
    assert np.array_equal(labels, want[1])
    assert (inertia.hex(), iterations, history) == (want[2].hex(), *want[3:])
    assert bits(d2) == bits(oracles.sq_dists(X, want[0]))


def full_matrix_is_degenerate(X):
    return bool(np.sqrt(clustering._sq_dists(X, X).max()) < clustering.DEGENERATE_DISTANCE_FLOOR)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from([1.0, 2.4e-7, 1e-9]), st.integers(0, 2**32 - 1))
def test_degenerate_check_matches_the_full_matrix(n, spread, seed):
    """Slots spread by 2.4e-7 put the largest distance near the 1e-6 floor,
    on either side of it."""
    X = 7.25 + np.random.default_rng(seed).uniform(0, spread, size=(n, 96))
    assert clustering._is_degenerate(X) == full_matrix_is_degenerate(X)


def test_degenerate_check_looks_past_a_central_first_row():
    """Row 0 lies within the floor of every row, rows 1 and 2 lie 1.2e-6 apart."""
    X = np.full((8, 96), 7.25)
    X[1, 0] += 6e-7
    X[2, 0] -= 6e-7
    assert not full_matrix_is_degenerate(X)
    assert not clustering._is_degenerate(X)
    assert clustering._is_degenerate(np.full((12, 96), 7.25))
