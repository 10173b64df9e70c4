from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meterwatch.anomaly import anomaly_scores, robust_threshold
from meterwatch.clustering import kmeans_fit
from meterwatch.profiles import DailyProfiles
from oracles import profile_rows, profiles_from_matrix

FIRST = date(2024, 6, 1)


def test_profile_on_its_centroid_scores_zero():
    X = np.vstack([np.full(96, 10.0)] * 4 + [np.full(96, 500.0)] * 4)
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 2, seed=0, restarts=5)
    report = anomaly_scores(model, profiles)
    assert all(s == pytest.approx(0.0, abs=1e-9) for s in report.scores.values())


def test_single_hot_slot_scores_its_amplitude():
    base = np.zeros((4, 96))
    profiles = profiles_from_matrix(base)
    model = kmeans_fit(profiles, 1, seed=0, restarts=2)
    spike = np.zeros((1, 96))
    spike[0, 40] = 500.0
    odd_day = FIRST + timedelta(days=30)
    scored = DailyProfiles("T", profiles.days + (odd_day,), np.vstack([base, spike]), (1.0,) * 5)
    report = anomaly_scores(model, scored)
    assert report.scores[odd_day] == pytest.approx(500.0)
    assert report.ranked_days[0] == odd_day


def test_ranking_breaks_ties_by_earlier_date():
    X = np.zeros((6, 96))
    X[4, 10] = 70.0  # same magnitude, two different days
    X[5, 60] = 70.0
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 1, seed=1, restarts=2)
    report = anomaly_scores(model, profiles)
    first, second = report.ranked_days[:2]
    assert report.scores[first] == report.scores[second]
    assert first < second


def test_score_map_is_permutation_independent():
    rng = np.random.default_rng(3)
    profiles = profiles_from_matrix(rng.uniform(0, 400, (12, 96)))
    model = kmeans_fit(profiles, 3, seed=2, restarts=4)
    forward = anomaly_scores(model, profiles)
    backward = anomaly_scores(model, profile_rows(profiles, reversed(range(len(profiles)))))
    assert forward.scores == backward.scores
    assert forward.ranked_days == backward.ranked_days
    assert forward.threshold == backward.threshold
    assert forward.flagged == backward.flagged


def test_wrong_length_profile_is_rejected():
    days = tuple(FIRST + timedelta(days=i) for i in range(3))
    with pytest.raises(ValueError, match="96 values"):
        DailyProfiles("T", days, np.zeros((3, 95)), (1.0,) * 3)
    with pytest.raises(ValueError, match="one completeness per day"):
        DailyProfiles("T", days, np.zeros((3, 96)), (1.0,) * 4)
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            DailyProfiles("T", days, np.full((3, 96), bad), (1.0,) * 3)
    model = kmeans_fit(profiles_from_matrix(np.zeros((3, 96))), 1, seed=0, restarts=2)
    with pytest.raises(ValueError, match="no profiles to score"):
        anomaly_scores(model, profiles_from_matrix(np.zeros((0, 96))))


def test_single_outlier_is_flagged_against_quiet_days():
    rng = np.random.default_rng(8)
    X = rng.normal(100.0, 3.0, (29, 96))
    outlier = rng.normal(100.0, 3.0, 96)
    outlier[30:34] += 800.0
    X = np.abs(np.vstack([X, outlier]))
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 1, seed=4, restarts=3)
    report = anomaly_scores(model, profiles)
    outlier_day = profiles.days[-1]
    assert report.ranked_days[0] == outlier_day
    assert outlier_day in report.flagged
    assert len(report.flagged) <= 3


def test_three_simultaneous_outliers_do_not_mask_each_other():
    rng = np.random.default_rng(9)
    X = np.abs(rng.normal(100.0, 3.0, (30, 96)))
    for row, slot in [(27, 20), (28, 45), (29, 70)]:
        X[row, slot : slot + 4] += 900.0
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 1, seed=4, restarts=3)
    report = anomaly_scores(model, profiles)
    outliers = {profiles.days[i] for i in (27, 28, 29)}
    assert set(report.ranked_days[:3]) == outliers
    assert outliers <= set(report.flagged)


def test_flagged_days_are_a_prefix_of_the_ranking():
    rng = np.random.default_rng(12)
    X = np.abs(rng.normal(80.0, 4.0, (20, 96)))
    X[5, 40:50] += 1200.0
    X[11, 10:14] += 700.0
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 2, seed=1, restarts=4)
    report = anomaly_scores(model, profiles)
    assert sorted(report.ranked_days) == sorted(report.scores)
    assert report.flagged == report.ranked_days[: len(report.flagged)]


def test_robust_threshold_known_values():
    # median 10, deviations {0, 1, 1, 2, 2} -> MAD 1
    scores = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert robust_threshold(scores) == pytest.approx(10.0 + 3.0 * 1.4826)
    assert robust_threshold([5.0] * 9) == pytest.approx(5.0)


def test_report_serializes_to_plain_json():
    profiles = profiles_from_matrix(np.zeros((4, 96)))
    model = kmeans_fit(profiles, 1, seed=0, restarts=2)
    report = anomaly_scores(model, profiles)
    data = report.to_json_dict()
    assert set(data) == {"meter_id", "k", "threshold", "scores", "ranked_days", "flagged"}
    assert list(data["scores"]) == sorted(data["scores"])


# -- scale equivariance --------------------------------------------------------

_int_profiles = st.integers(4, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 2000), min_size=96, max_size=96),
        min_size=n,
        max_size=n,
    )
)


@given(_int_profiles, st.sampled_from([0.5, 3.0]), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scaling_profiles_scales_the_report(rows, factor, k, seed):
    X = np.array(rows, dtype=float)
    k = min(k, len(rows))
    base_profiles = profiles_from_matrix(X)
    scaled_profiles = profiles_from_matrix(X * factor)

    base_model = kmeans_fit(base_profiles, k, seed=seed, restarts=3)
    scaled_model = kmeans_fit(scaled_profiles, k, seed=seed, restarts=3)

    assert base_model.assignments == scaled_model.assignments
    assert np.allclose(scaled_model.centroids, base_model.centroids * factor, rtol=1e-12, atol=1e-9)
    assert scaled_model.inertia == pytest.approx(base_model.inertia * factor**2, rel=1e-9, abs=1e-9)

    base_report = anomaly_scores(base_model, base_profiles)
    scaled_report = anomaly_scores(scaled_model, scaled_profiles)
    assert base_report.ranked_days == scaled_report.ranked_days
    assert base_report.flagged == scaled_report.flagged
    assert scaled_report.threshold == pytest.approx(base_report.threshold * factor, rel=1e-9, abs=1e-9)
    for day, score in base_report.scores.items():
        assert scaled_report.scores[day] == pytest.approx(score * factor, rel=1e-9, abs=1e-9)
