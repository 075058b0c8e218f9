"""Centered-residual predictor and the order-statistic predictor."""

import math

import numpy as np
import pytest
from scipy import stats

import oracles
from olreg import (
    DegenerateFitError,
    FeatureSchedule,
    History,
    Observation,
    RegressionSummary,
    RidgeProjector,
    centered_residual_score,
    mva_hull,
    mva_predict,
    mva_score,
    residual_decomposition,
    wilks_level,
    wilks_predict,
)
from olreg.predictors import QuadraticRegion
from olreg.protocol import MvaPredictor

# Worked example (same data as the rank-region one), bounds fixed by the
# dense-grid oracle refined to 1e-9.
TRAIN_X = np.array([[0.0], [10.0], [20.0], [30.0]])
TRAIN_Y = np.array([1.01, 10.99, 21.01, 30.99])
EXPECTED = {
    (0.2, 5.0): (5.973868648052219, 6.023578191280364),
    (0.2, 15.0): (15.979973859310157, 16.020044790744777),
    (0.2, 25.0): (25.977257964611063, 26.028865911960594),
    (0.05, 5.0): (5.913631137371063, 6.049667570590972),
    (0.05, 15.0): (15.96110240125656, 16.038968020915988),
    (0.05, 25.0): (25.953479372501377, 26.09921009874344),
}


def history_of(features, responses):
    return History.from_observations(
        Observation(np.atleast_1d(x), float(y)) for x, y in zip(features, responses)
    )


def test_worked_example_bounds_fixed_by_grid_oracle():
    history = history_of(TRAIN_X, TRAIN_Y)
    for x in (5.0, 15.0, 25.0):
        narrow, wide = mva_predict(history, np.array([x]), (0.2, 0.05), ridge=0.01)
        assert narrow.lower == pytest.approx(EXPECTED[(0.2, x)][0], abs=1e-6)
        assert narrow.upper == pytest.approx(EXPECTED[(0.2, x)][1], abs=1e-6)
        assert wide.lower == pytest.approx(EXPECTED[(0.05, x)][0], abs=1e-6)
        assert wide.upper == pytest.approx(EXPECTED[(0.05, x)][1], abs=1e-6)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper


def test_quadratic_region_classification():
    full = QuadraticRegion(-1.0, 0.0, -1.0).hull()
    assert (full.lower, full.upper) == (-math.inf, math.inf)

    left_ray = QuadraticRegion(0.0, 1.0, -4.0).hull()  # 2y - 4 < 0
    assert left_ray.lower == -math.inf
    assert left_ray.upper == pytest.approx(2.0)

    right_ray = QuadraticRegion(0.0, -1.0, -4.0).hull()  # -2y - 4 < 0
    assert right_ray.lower == pytest.approx(-2.0)
    assert right_ray.upper == math.inf

    assert QuadraticRegion(0.0, 0.0, -1.0).hull().is_bounded is False
    assert QuadraticRegion(0.0, 0.0, 1.0).hull().is_empty

    empty = QuadraticRegion(1.0, 0.0, 1.0).hull()  # y^2 + 1 < 0
    assert empty.is_empty

    segment = QuadraticRegion(1.0, 0.0, -4.0).hull()  # y^2 < 4
    assert segment.lower == pytest.approx(-2.0)
    assert segment.upper == pytest.approx(2.0)


def test_region_membership_matches_hull_endpoints():
    region = QuadraticRegion(2.0, -3.0, 1.0)
    hull = region.hull()
    inside = 0.5 * (hull.lower + hull.upper)
    assert region.contains(inside)
    assert not region.contains(hull.upper + 1e-6)
    assert not region.contains(hull.lower - 1e-6)


def test_degenerate_centered_heads_give_the_full_line():
    # offset and slope whose centered values vanish identically
    hull = mva_hull(np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0]), 3, 4.3)
    assert (hull.lower, hull.upper) == (-math.inf, math.inf)


def test_too_few_observations_give_full_lines():
    history = history_of(TRAIN_X[:1], TRAIN_Y[:1])
    intervals = mva_predict(history, np.array([5.0]), (0.2, 0.05), ridge=0.01)
    assert all(i.lower == -math.inf and i.upper == math.inf for i in intervals)


def test_hull_against_grid_oracle_on_random_instances():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(3, 31))
        k = int(rng.integers(0, 6))
        ridge = float(rng.choice([0.0, 0.01]))
        if ridge == 0.0 and n <= k + 1:
            ridge = 0.01
        design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        fixed = rng.normal(size=n - 1)
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        t_value = float(stats.t.ppf(1.0 - eps / 2.0, n - 2))
        dec = residual_decomposition(RidgeProjector(design, ridge), fixed)
        mine = mva_hull(dec.offset, dec.slope, n, t_value)
        reference = oracles.quadratic_region_grid_hull(dec.offset, dec.slope, n, t_value)
        finite = [v for v in (mine.lower, mine.upper, reference.lower, reference.upper)
                  if np.isfinite(v)]
        if any(abs(v) > 5000.0 for v in finite):
            continue  # boundary too close to the grid edge to classify
        assert oracles.hulls_match(
            mine.lower, mine.upper, reference.lower, reference.upper
        ), (mine, reference)
        checked += 1
    assert checked >= 40


def test_raw_score_examples():
    assert centered_residual_score(np.array([-1.0, 1.0, 0.0])) == pytest.approx(0.0)
    with pytest.raises(DegenerateFitError):
        centered_residual_score(np.array([1.0, 1.0, 5.0]))
    with pytest.raises(ValueError):
        centered_residual_score(np.array([1.0, 2.0]))


def test_summary_score_matches_raw_computation():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(4, 25))
        k = int(rng.integers(0, 4))
        ridge = float(rng.choice([0.0, 0.01]))
        if ridge == 0.0 and n <= k + 1:
            ridge = 0.01
        features = rng.normal(size=(n, k))
        responses = rng.normal(size=n)
        history = history_of(features[:-1], responses[:-1])
        summary = RegressionSummary.from_history(history)
        obs = Observation(features[-1], responses[-1])
        from_summary = mva_score(summary, obs, ridge=ridge)
        design = np.column_stack([np.ones(n), features])
        raw = oracles.centered_score_direct(design, ridge, responses)
        assert from_summary == pytest.approx(raw, rel=1e-10, abs=1e-12)


def test_summary_score_on_an_exactly_linear_history_is_degenerate():
    # every residual is zero in exact arithmetic; near 1e9 rounding leaves
    # them a spread that is residue, not signal
    features = np.arange(1.0, 9.0)[:, None]
    for scale, offset in ((1.0, 0.0), (1e6, 1e9)):
        responses = scale * (2.0 * features[:, 0] + 3.0) + offset
        summary = RegressionSummary.from_history(history_of(features, responses))
        with pytest.raises(DegenerateFitError):
            mva_score(summary, Observation(np.array([9.0]), scale * 21.0 + offset))


def test_summary_score_respects_feature_truncation():
    rng = np.random.default_rng(43)
    features = rng.normal(size=(8, 4))
    responses = rng.normal(size=8)
    history = history_of(features[:-1], responses[:-1])
    summary = RegressionSummary.from_history(history)
    obs = Observation(features[-1], responses[-1])
    truncated = mva_score(summary, obs, ridge=0.01, active_count=2)
    design = np.column_stack([np.ones(8), features[:, :2]])
    raw = oracles.centered_score_direct(design, 0.01, responses)
    assert truncated == pytest.approx(raw, rel=1e-10)


def test_realized_pvalue_flips_at_the_interval_boundary():
    history = history_of(TRAIN_X, TRAIN_Y)
    predictor = MvaPredictor(ridge=0.01)
    (interval,) = mva_predict(history, np.array([15.0]), (0.1,), ridge=0.01)
    shift = 1e-7 * (1.0 + abs(interval.upper))
    step = predictor.step(history, np.array([15.0]))
    inside = predictor.pvalue(step, interval.upper - shift, 0.5)
    outside = predictor.pvalue(step, interval.upper + shift, 0.5)
    assert inside > 0.1 >= outside


def test_pvalue_matches_direct_recomputation():
    rng = np.random.default_rng(44)
    predictor = MvaPredictor(ridge=0.01)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        k = int(rng.integers(0, 3))
        features = rng.normal(size=(n, k))
        responses = rng.normal(size=n)
        history = history_of(features[:-1], responses[:-1])
        p = predictor.pvalue(predictor.step(history, features[-1]), responses[-1], 0.5)
        design = np.column_stack([np.ones(n), features])
        expected = oracles.centered_pvalue_direct(design, 0.01, responses)
        assert p == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_one_residual_dimension_gives_empty_set_or_whole_line():
    # With ridge 0 and n = (active features) + 2 the residual space is one
    # direction, so the statistic is the same for every candidate response:
    # the interval must be exactly empty or exactly the whole line, and empty
    # exactly when the realized p-value (any response off the 0/0 point) is
    # at most the level.
    levels = (0.5, 0.2, 0.05)
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for k in range(6):
            features = rng.normal(size=(k + 2, k))
            responses = rng.normal(size=k + 2)
            cases.append((features, responses, None))
    rng = np.random.default_rng(99)
    early = FeatureSchedule(early_count=2, switch_step=10, full_count=4)
    cases.append((rng.normal(size=(4, 4)), rng.normal(size=4), early))  # n = 2 + 2

    seen = set()
    for features, responses, schedule in cases:
        history = history_of(features[:-1], responses[:-1])
        intervals = mva_predict(history, features[-1], levels, ridge=0.0, schedule=schedule)
        predictor = MvaPredictor(ridge=0.0, schedule=schedule)
        p = predictor.pvalue(predictor.step(history, features[-1]), responses[-1], 0.5)
        for eps, interval in zip(levels, intervals):
            bounds = (interval.lower, interval.upper)
            assert bounds in ((math.inf, -math.inf), (-math.inf, math.inf)), bounds
            empty = bounds == (math.inf, -math.inf)
            assert empty == (p <= eps), (eps, p, bounds)
            seen.add(empty)
    assert seen == {True, False}


@pytest.mark.parametrize("seed", range(6))
def test_interpolating_ridge_zero_step_gives_full_lines_and_pvalue_one(seed):
    # K = 2 and n = 3 at ridge 0: the fit interpolates and every residual is
    # identically zero, so the statistic is 0/0 whatever the response; the
    # rounding residue left in the residuals must not decide the interval
    # or the p-value, which tripling the responses would then change
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(3, 2))
    responses = features @ np.array([1.0, 2.0]) + rng.normal(size=3)
    predictor = MvaPredictor(ridge=0.0, schedule=FeatureSchedule.for_feature_count(2))
    levels = (0.2, 0.05)
    for scale in (1.0, 3.0):
        history = history_of(features[:2], scale * responses[:2])
        step = predictor.step(history, features[2])
        assert step.interpolates
        for interval in predictor.predict(step, levels):
            assert (interval.lower, interval.upper) == (-math.inf, math.inf)
        assert predictor.pvalue(step, scale * responses[2], 0.5) == 1.0
        intervals = mva_predict(history, features[2], levels, ridge=0.0)
        assert all((i.lower, i.upper) == (-math.inf, math.inf) for i in intervals)


# ---------------------------------------------------------------------------
# Order-statistic predictor
# ---------------------------------------------------------------------------


def test_order_statistic_interval_and_level():
    interval = wilks_predict(np.array([1.0, 2.0, 3.0, 4.0]), depth=1)
    assert (interval.lower, interval.upper) == (1.0, 4.0)
    assert wilks_level(5, 1) == pytest.approx(2.0 / 5.0)


def test_order_statistic_needs_enough_history():
    full = wilks_predict(np.array([1.0, 2.0, 3.0]), depth=2)
    assert (full.lower, full.upper) == (-math.inf, math.inf)
    deeper = wilks_predict(np.arange(10.0), depth=2)
    assert (deeper.lower, deeper.upper) == (1.0, 8.0)
    assert wilks_level(11, 2) == pytest.approx(4.0 / 11.0)


def test_order_statistic_rejects_bad_depth():
    with pytest.raises(ValueError):
        wilks_predict(np.array([1.0, 2.0]), depth=0)
