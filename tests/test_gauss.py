"""Studentized-pivot predictor: fits, intervals, scores, pivot law."""

import math

import numpy as np
import pytest
from scipy import stats

import oracles
from olreg import (
    DegenerateFitError,
    History,
    Observation,
    RankDeficiencyError,
    RegressionSummary,
    gauss_fit,
    gauss_predict,
    gauss_score,
)
from olreg.protocol import GaussPredictor

# Worked example: straight-line data, bounds fixed by the pseudoinverse
# oracle in oracles.py.
LINE_X = np.array([[1.0], [2.0], [3.0], [4.0]])
LINE_Y = np.array([2.01, 2.99, 4.01, 4.99])
EXPECTED = {
    (0.2, 0.0): (0.9722876383367169, 1.0477123616632826),
    (0.2, 10.0): (10.885672595728842, 11.054327404271156),
    (0.2, 20.0): (20.74143819168358, 21.11856180831641),
    (0.05, 0.0): (0.9239469454060774, 1.0960530545939222),
    (0.05, 10.0): (10.777579520256488, 11.16242047974351),
    (0.05, 20.0): (20.499734727030383, 21.36026527296961),
}

LOCATION_HALFWIDTH = 22.0077921748727  # t quantile (1 df, 0.025 tail) * sqrt(3)


def history_of(features, responses):
    return History.from_observations(
        Observation(np.atleast_1d(x), float(y)) for x, y in zip(features, responses)
    )


def test_worked_example_bounds_fixed_by_oracle():
    history = history_of(LINE_X, LINE_Y)
    for x in (0.0, 10.0, 20.0):
        narrow, wide = gauss_predict(history, np.array([x]), (0.2, 0.05))
        assert narrow.lower == pytest.approx(EXPECTED[(0.2, x)][0], abs=1e-9)
        assert narrow.upper == pytest.approx(EXPECTED[(0.2, x)][1], abs=1e-9)
        assert wide.lower == pytest.approx(EXPECTED[(0.05, x)][0], abs=1e-9)
        assert wide.upper == pytest.approx(EXPECTED[(0.05, x)][1], abs=1e-9)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper


def test_location_model_with_two_responses():
    history = History.from_observations(
        [Observation(np.zeros(0), -1.0), Observation(np.zeros(0), 1.0)]
    )
    (interval,) = gauss_predict(history, np.zeros(0), (0.05,))
    assert interval.lower == pytest.approx(-LOCATION_HALFWIDTH, abs=1e-9)
    assert interval.upper == pytest.approx(LOCATION_HALFWIDTH, abs=1e-9)


def test_full_line_below_the_observation_threshold():
    history = history_of(LINE_X[:2], LINE_Y[:2])
    # n = 3 < K + 3 = 4 for one feature
    (interval,) = gauss_predict(history, np.array([5.0]), (0.05,))
    assert (interval.lower, interval.upper) == (-math.inf, math.inf)


def test_interval_matches_pinv_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(0, 4))
        if n < k + 3:
            continue
        features = rng.normal(size=(n - 1, k))
        responses = rng.normal(size=n - 1)
        x = rng.normal(size=k)
        eps = float(rng.choice([0.05, 0.2, 0.5]))
        history = history_of(features, responses)
        (interval,) = gauss_predict(history, x, (eps,))
        low, high = oracles.pivot_interval(features, responses, x, eps)
        assert interval.lower == pytest.approx(low, abs=1e-8)
        assert interval.upper == pytest.approx(high, abs=1e-8)


def test_exact_fit_collapses_to_a_point():
    # constant location-model responses leave a residual sum that is exactly
    # zero in floats, so the interval degenerates to the fitted point
    history = History.from_observations(
        [Observation(np.zeros(0), 3.0) for _ in range(4)]
    )
    (interval,) = gauss_predict(history, np.zeros(0), (0.05,))
    assert interval.lower == interval.upper == 3.0

    # data that is linear only up to rounding keeps a sliver of width
    features = np.array([[1.0], [2.0], [3.0], [4.0]])
    responses = np.array([2.0, 4.0, 6.0, 8.0])
    history = history_of(features, responses)
    (interval,) = gauss_predict(history, np.array([5.0]), (0.05,))
    assert interval.length < 1e-9
    assert interval.contains(10.0)


def test_duplicated_feature_column_raises():
    features = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
    responses = np.arange(6.0)
    history = history_of(features, responses)
    with pytest.raises(RankDeficiencyError):
        gauss_predict(history, np.array([1.0, 2.0]), (0.05,))


def test_fit_exposes_dof_and_scale():
    history = history_of(LINE_X, LINE_Y)
    fit = gauss_fit(history, np.array([5.0]))
    assert fit.degrees_of_freedom == 2  # 4 rows, intercept + slope
    assert fit.sigma_hat > 0.0
    assert fit.point_prediction == pytest.approx(5.0 + 1.0, abs=0.1)


def test_score_from_summary_matches_raw_computation():
    rng = np.random.default_rng(32)
    for _ in range(100):
        n = int(rng.integers(5, 25))
        k = int(rng.integers(0, 4))
        if n < k + 3:
            continue
        features = rng.normal(size=(n, k))
        responses = rng.normal(size=n)
        history = history_of(features[:-1], responses[:-1])
        summary = RegressionSummary.from_history(history)
        from_summary = gauss_score(summary, Observation(features[-1], responses[-1]))
        raw = oracles.pivot_score_direct(
            features[:-1], responses[:-1], features[-1], responses[-1]
        )
        assert from_summary == pytest.approx(raw, rel=1e-10)


def test_score_zero_spread_is_degenerate():
    # the second history is exactly linear too, with responses near 1e9: its
    # residual energy is rounding, not zero, and lies below the least-squares
    # cut-off relative to the responses' own
    features = np.array([[1.0], [2.0], [3.0], [4.0]])
    for responses in ([2.0, 4.0, 6.0, 8.0], 1e6 * (2.0 * features[:, 0] + 3.0) + 1e9):
        summary = RegressionSummary.from_history(history_of(features, responses))
        with pytest.raises(DegenerateFitError):
            gauss_score(summary, Observation(np.array([5.0]), 10.0))


def test_pivot_law_matches_student_t():
    # draws of (y - yhat)/(sigma sqrt(1 + leverage)) from the true model
    # follow the t law with n - K - 2 degrees of freedom
    rng = np.random.default_rng(33)
    k, n = 2, 10
    pivots = []
    for _ in range(5000):
        features = rng.normal(size=(n, k))
        responses = features @ np.array([1.0, -2.0]) + 0.5 + rng.normal(size=n)
        pivots.append(
            oracles.pivot_score_direct(
                features[:-1], responses[:-1], features[-1], responses[-1]
            )
            * np.sign(rng.normal())
        )
    result = stats.kstest(pivots, stats.t(n - k - 2).cdf)
    assert result.pvalue > 0.01


def test_realized_pvalue_flips_at_the_interval_boundary():
    history = history_of(LINE_X, LINE_Y)
    predictor = GaussPredictor()
    (interval,) = gauss_predict(history, np.array([5.0]), (0.1,))
    shift = 1e-6 * (1.0 + abs(interval.upper))
    step = predictor.step(history, np.array([5.0]))
    inside = predictor.pvalue(step, interval.upper - shift, 0.5)
    outside = predictor.pvalue(step, interval.upper + shift, 0.5)
    assert inside > 0.1 >= outside


LEVELS = (0.05, 0.01)


def test_nearly_collinear_features_match_the_svd_reference():
    # x2 = x1 + delta * noise makes the design condition number about 2e8 and
    # 2e10; forming the Gram matrix would square it past what doubles resolve
    for delta in (1e-8, 1e-10):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(41, 3))
        features[:, 1] = features[:, 0] + delta * rng.normal(size=41)
        responses = features @ np.array([1.0, -1.0, 0.5]) + rng.normal(size=41)
        history = history_of(features[:40], responses[:40])
        for interval, eps in zip(gauss_predict(history, features[40], LEVELS), LEVELS):
            low, high = oracles.pivot_interval_svd(
                features[:40], responses[:40], features[40], eps
            )
            assert abs(interval.lower - low) <= 1e-6 * (high - low)
            assert abs(interval.upper - high) <= 1e-6 * (high - low)


def test_summary_score_on_nearly_collinear_features_matches_the_fit():
    # design condition numbers near 2e6 (delta 1e-6), 2e8 and 2e10: the
    # summary's triangle is the history's own, so its pivot is the fit's; a
    # summary of Gram moments squares the condition and missed by 1.5e-4 at 2e6
    cases = [(1e-6, seed, 1e-9) for seed in (5, 0, 1, 2)]
    for delta, seed, tolerance in cases + [(1e-8, 5, 1e-6), (1e-10, 5, 1e-6)]:
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(41, 3))
        features[:, 1] = features[:, 0] + delta * rng.normal(size=41)
        responses = features @ np.array([1.0, -1.0, 0.5]) + rng.normal(size=41)
        history = history_of(features[:40], responses[:40])
        observation = Observation(features[40], float(responses[40]))
        fit = gauss_fit(history, observation.explanatory)
        pivot = abs(observation.response - fit.point_prediction) / (
            fit.sigma_hat * math.sqrt(1.0 + fit.leverage)
        )
        score = gauss_score(RegressionSummary.from_history(history), observation)
        assert score == pytest.approx(pivot, rel=tolerance)


def equivariance_instance(seed):
    """A 60 x 5 Gaussian-linear history and one new explanatory row."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(61, 5))
    responses = features @ np.arange(1.0, 6.0) + rng.normal(size=61)
    return features[:60], responses[:60], features[60]


def assert_moved_exactly(moved, base, scale, offset):
    for got, ref in zip(moved, base):
        width = scale * ref.length
        assert abs(got.lower - (scale * ref.lower + offset)) <= 1e-6 * width
        assert abs(got.upper - (scale * ref.upper + offset)) <= 1e-6 * width


@pytest.mark.parametrize("shift", [1e3, 1e5, 1e6])
def test_feature_shift_leaves_the_interval_unchanged(shift):
    for seed in range(20):
        features, responses, x = equivariance_instance(seed)
        shifted, x_shifted = features + shift, x + shift
        # (v + c) - c is exact here, so the reference sees the very features
        # that the shifted floats represent
        reference = history_of(shifted - shift, responses)
        base = gauss_predict(reference, x_shifted - shift, LEVELS)
        moved = gauss_predict(history_of(shifted, responses), x_shifted, LEVELS)
        assert_moved_exactly(moved, base, 1.0, 0.0)


# (1e-6, 1e9) is left out: the endpoints sit near 1e9, whose float spacing
# (1.2e-7) is already 2 % of a width near 5e-6, so no float output can carry
# the transform to 1e-6 of the width.
@pytest.mark.parametrize(
    "scale,offset", [(1e-6, 0.0), (1e6, 0.0), (1.0, 1e9), (1e6, 1e9)]
)
def test_response_affine_map_moves_the_interval_exactly(scale, offset):
    for seed in range(20):
        features, responses, x = equivariance_instance(seed)
        moved_responses = scale * responses + offset
        # the reference fits the responses that the mapped floats represent
        represented = (moved_responses - offset) / scale
        base = gauss_predict(history_of(features, represented), x, LEVELS)
        moved = gauss_predict(history_of(features, moved_responses), x, LEVELS)
        assert_moved_exactly(moved, base, scale, offset)


def test_feature_shift_past_the_rank_cutoff_raises():
    features, responses, x = equivariance_instance(0)
    history = history_of(features + 1e7, responses)
    with pytest.raises(RankDeficiencyError):
        gauss_predict(history, x + 1e7, LEVELS)


def test_factor_absorbed_in_pieces_matches_a_fresh_history():
    rng = np.random.default_rng(34)
    features = rng.normal(size=(50, 4))
    responses = features @ np.array([0.5, -1.0, 2.0, 0.0]) + rng.normal(size=50)
    grown = History(4)
    for i, (row, y) in enumerate(zip(features, responses)):
        grown.append(Observation(row, y))
        if i in (5, 6, 17, 30):
            gauss_fit(grown, row)
    fresh = history_of(features, responses)
    for x in rng.normal(size=(3, 4)):
        got, ref = gauss_fit(grown, x), gauss_fit(fresh, x)
        np.testing.assert_allclose(got.coefficients, ref.coefficients, rtol=1e-12)
        assert got.sigma_hat == pytest.approx(ref.sigma_hat, rel=1e-12)
        assert got.leverage == pytest.approx(ref.leverage, rel=1e-12)
        assert got.point_prediction == pytest.approx(ref.point_prediction, rel=1e-12)
        assert got.degrees_of_freedom == ref.degrees_of_freedom
