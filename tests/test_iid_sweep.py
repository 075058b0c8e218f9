"""Rank-region predictor: sweep construction, hull extraction, p-values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from olreg import (
    History,
    MonteCarloConfig,
    Observation,
    RidgeProjector,
    build_sweep,
    iid_predict,
    iid_pvalue,
    residual_decomposition,
    sweep_hull,
)
from olreg.predictors import iid_bounded_threshold
from olreg.protocol import IidGaussPredictor, IidPredictor

# Worked example, expected bounds fixed by the set-by-set brute-force
# oracle in oracles.py (ridge 0.01, four training rows).
TRAIN_X = np.array([[0.0], [10.0], [20.0], [30.0]])
TRAIN_Y = np.array([1.01, 10.99, 21.01, 30.99])
EXPECTED_AT_20PCT = {
    5.0: (5.964603243372384, 6.016681232504673),
    15.0: (15.975687644475114, 16.01098179864322),
    25.0: (25.967076615732505, 26.014657319155763),
}


def history_from_columns(features, responses):
    return History.from_observations(
        Observation(np.atleast_1d(x), float(y)) for x, y in zip(features, responses)
    )


def decomposition_for(design, fixed, ridge):
    proj = RidgeProjector(design, ridge)
    return residual_decomposition(proj, fixed)


def test_dominating_past_residual_covers_the_line():
    # |2y| >= |y| for every y, so the single comparison set is all of R
    state = build_sweep(np.array([0.0, 0.0]), np.array([2.0, 1.0]))
    hull = sweep_hull(state, 2, 0.3)
    assert (hull.lower, hull.upper) == (-math.inf, math.inf)


def test_constant_past_residual_yields_a_symmetric_band():
    # past residual is the constant 2, candidate residual is 1 + y:
    # |1 + y| <= 2 exactly on [-3, 1]
    offset = np.array([2.0, 1.0])
    slope = np.array([0.0, 1.0])
    state = build_sweep(offset, slope)
    hull = sweep_hull(state, 2, 0.6)
    assert hull.lower == pytest.approx(-3.0)
    assert hull.upper == pytest.approx(1.0)
    full = sweep_hull(state, 2, 0.3)
    assert (full.lower, full.upper) == (-math.inf, math.inf)


def test_point_region_survives():
    # equality only at a single crossing
    offset = np.array([0.0, 1.0])
    slope = np.array([0.0, 1.0])
    # |0| >= |1 + y| only at y = -1
    state = build_sweep(offset, slope)
    hull = sweep_hull(state, 2, 0.6)
    assert hull.lower == hull.upper == pytest.approx(-1.0)


def test_sweep_deltas_balance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = rng.integers(2, 30)
        offset = rng.normal(size=n)
        slope = rng.normal(size=n)
        state = build_sweep(offset, slope)
        prefix = state.counts
        # leftmost cell holds the -inf members plus the candidate itself,
        # rightmost cell the +inf members, and the sweep conserves mass
        assert prefix[0] == state.left_count + 1
        assert prefix[-2] == state.right_count + 1
        assert prefix[-1] == 0


def test_prefix_counts_match_brute_force_on_cells():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        offset = rng.normal(size=n)
        slope = rng.normal(size=n) * rng.choice([0.0, 1.0], size=n)
        sets = oracles.comparison_sets(offset.copy(), slope.copy())
        state = build_sweep(offset, slope)
        prefix = state.counts
        points = state.points
        for j in range(len(points) - 1):
            if points[j] == points[j + 1] or not np.isfinite(points[j]):
                continue
            if not np.isfinite(points[j + 1]):
                probe = points[j] + 1.0
            else:
                probe = 0.5 * (points[j] + points[j + 1])
                if probe in (points[j], points[j + 1]):
                    continue  # cell narrower than float resolution
            assert prefix[j] == oracles.rank_count(sets, probe)


def test_hull_against_brute_force_random_instances():
    rng = np.random.default_rng(23)
    for trial in range(120):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(0, 5))
        ridge = float(rng.choice([0.01, 1.0]))
        design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        fixed = rng.normal(size=n - 1)
        if trial % 5 == 0 and n > 3:
            fixed[1] = fixed[0]  # provoke exact residual ties
        dec = decomposition_for(design, fixed, ridge)
        eps = float(rng.choice([0.05, 0.1, 0.25, 0.5, 0.8]))
        hull = sweep_hull(build_sweep(dec.offset, dec.slope), n, eps)
        low, high = oracles.rank_region_hull(dec.offset, dec.slope, eps)
        assert hull.lower == pytest.approx(low, abs=1e-9)
        assert hull.upper == pytest.approx(high, abs=1e-9)


def test_worked_example_bounds_fixed_by_oracle():
    history = history_from_columns(TRAIN_X, TRAIN_Y)
    for x, (low, high) in EXPECTED_AT_20PCT.items():
        intervals = iid_predict(history, np.array([x]), (0.2, 0.05), ridge=0.01)
        assert intervals[0].lower == pytest.approx(low, abs=1e-9)
        assert intervals[0].upper == pytest.approx(high, abs=1e-9)
        # n = 5 < 20 = ceil(1/0.05): the stricter level cannot be bounded
        assert not intervals[1].is_bounded
        assert intervals[1].contains(intervals[0].lower)


def test_first_step_is_the_full_line():
    history = History(1)
    (interval,) = iid_predict(history, np.array([0.0]), (0.5,), ridge=0.0)
    assert (interval.lower, interval.upper) == (-math.inf, math.inf)


def test_unbounded_before_the_sample_size_threshold():
    assert iid_bounded_threshold(0.05) == 20
    assert iid_bounded_threshold(0.5) == 2
    rng = np.random.default_rng(8)
    history = History(1)
    for step in range(12):
        x = np.array([float(step)])
        (interval,) = iid_predict(history, x, (0.1,), ridge=0.01)
        if len(history) + 1 < 10:
            assert not interval.is_bounded
        history.append(Observation(x, float(rng.normal())))


def test_pvalue_trivial_cases():
    assert iid_pvalue(np.array([1.0]), tie_break=1.0) == pytest.approx(1.0)
    scores = np.array([0.1, 0.2, 0.3, 5.0])
    assert iid_pvalue(scores, tie_break=1.0) == pytest.approx(1.0 / 4.0)
    ties = np.ones(10)
    assert iid_pvalue(ties, tie_break=0.3) == pytest.approx(0.3)


def test_pvalue_interpolates_between_rank_bounds():
    scores = np.array([1.0, 2.0, 3.0, 2.0])  # new score 2.0: one above, two tied
    assert iid_pvalue(scores, tie_break=0.0) == pytest.approx(1.0 / 4.0)
    assert iid_pvalue(scores, tie_break=0.5) == pytest.approx(2.0 / 4.0)
    assert iid_pvalue(scores, tie_break=1.0) == pytest.approx(3.0 / 4.0)


def test_score_is_last_absolute_residual():
    rng = np.random.default_rng(12)
    design = np.column_stack([np.ones(6), rng.normal(size=(6, 2))])
    responses = rng.normal(size=6)
    expected = abs(oracles.residuals_direct(design, 0.01, responses)[-1])
    score = abs(RidgeProjector(design, 0.01).residuals(responses)[-1])
    assert score == pytest.approx(expected, abs=1e-12)


def test_deterministic_pvalue_dominates_smoothed():
    rng = np.random.default_rng(13)
    scores = rng.normal(size=15) ** 2
    for tie in (0.0, 0.2, 0.7, 1.0):
        assert iid_pvalue(scores, tie_break=1.0) >= iid_pvalue(scores, tie_break=tie)


def test_nested_levels_produce_nested_hulls():
    rng = np.random.default_rng(14)
    design = np.column_stack([np.ones(9), rng.normal(size=(9, 2))])
    fixed = rng.normal(size=8)
    dec = decomposition_for(design, fixed, 0.01)
    state = build_sweep(dec.offset, dec.slope)
    previous = None
    for eps in (0.8, 0.5, 0.3, 0.1):
        hull = sweep_hull(state, 9, eps)
        if previous is not None and not hull.is_empty:
            assert hull.lower <= previous.lower or previous.is_empty
            assert hull.upper >= previous.upper or previous.is_empty
        previous = hull


@settings(deadline=None, max_examples=80)
@given(
    st.integers(min_value=2, max_value=14),
    st.floats(min_value=0.01, max_value=0.95),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sweep_agrees_with_brute_force(n, eps, seed):
    rng = np.random.default_rng(seed)
    offset = np.round(rng.normal(size=n), 2)  # rounding manufactures ties
    slope = np.round(rng.normal(size=n), 1)
    hull = sweep_hull(build_sweep(offset.copy(), slope.copy()), n, eps)
    low, high = oracles.rank_region_hull(offset, slope, eps)
    assert hull.lower == pytest.approx(low, abs=1e-9)
    assert hull.upper == pytest.approx(high, abs=1e-9)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["random", "tied", "equal_slope"]),
)
def test_vectorized_sweep_equals_the_loop(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        offset, slope = rng.normal(size=n), rng.normal(size=n)
    elif kind == "tied":
        # a few small values repeat, so tangencies, identical magnitudes and
        # coincident crossing points all occur
        offset = rng.integers(-2, 3, size=n).astype(float)
        slope = rng.integers(-2, 3, size=n).astype(float)
    else:
        # many slopes equal the last one, including zero and negated ones
        offset = rng.normal(size=n)
        slope = rng.choice([-1.0, 1.0], size=n) * rng.choice([0.0, 0.5], size=n)
    state = build_sweep(offset, slope)
    points, deltas, left, right = oracles.sweep_loop(offset, slope)
    # equal in value: tied entries may come in another order, which only
    # shows as the sign of a zero crossing point
    assert np.array_equal(state.points, points)
    assert np.array_equal(state.deltas, deltas)
    assert (state.left_count, state.right_count) == (left, right)


@pytest.mark.parametrize("levels", [(0.2,), (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)])
def test_tie_free_sweeps_sort_once_and_sum_once(monkeypatch, levels):
    # without tied points one argsort orders a sweep and no lexsort runs;
    # its prefix counts are summed once, however many levels read them
    rng = np.random.default_rng(31)
    features = rng.normal(size=(60, 3))
    responses = features.sum(axis=1) + rng.normal(size=60)
    history = History.from_observations(
        Observation(x, y) for x, y in zip(features[:-1], responses[:-1])
    )
    predictors = (IidPredictor(ridge=0.01), IidGaussPredictor(mc=MonteCarloConfig(199, seed=3)))
    steps = [predictor.step(history, features[-1]) for predictor in predictors]
    calls = []
    for name in ("lexsort", "cumsum"):
        original = getattr(np, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    states = [build_sweep(rng.normal(size=40), rng.normal(size=40)), steps[1].sweep()]
    for state in states:
        assert np.all(np.diff(state.points) > 0.0)
    assert calls == ["cumsum", "cumsum"]
    calls.clear()
    for state in states:
        for eps in levels:
            sweep_hull(state, 40, eps)
    assert calls == []
    for predictor, step in zip(predictors, steps):
        predictor.predict(step, levels)
    assert calls == ["cumsum", "cumsum"]
