"""Rank-region predictor: sweep construction, hull extraction, the
order-statistic ends of all-interval maps against the sweep, p-values."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from olreg import (
    History,
    MonteCarloConfig,
    Observation,
    PredictionInterval,
    build_sweep,
    sweep_hull,
)
import olreg.predictors as predictors_module
from olreg.predictors import _interval_hull, iid_predict, iid_pvalue
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


def hull_at(state, count, epsilon) -> PredictionInterval:
    """The sweep's hull at one level: element 0 of ``sweep_hull``'s ends."""
    lower, upper = sweep_hull(state, count, epsilon)
    return PredictionInterval(lower[0], upper[0])


def map_step(offset, slope):
    """A step that carries only a residual map (one row, or a block), as
    ``IidPredictor._bounds`` reads it.  Its reference is -0.0, which keeps
    the sign of every end, zeros included."""
    reference = -0.0 if offset.ndim == 1 else np.full(len(offset), -0.0)
    return SimpleNamespace(offset=offset, slope=slope, reference=reference,
                           row_count=offset.shape[-1])


def swept_ends(offset, slope, levels):
    """``sweep_hull`` of a map, or of each row of a block, row by row."""
    n = offset.shape[-1]
    if offset.ndim == 1:
        return sweep_hull(build_sweep(offset, slope), n, levels)
    ends = [sweep_hull(build_sweep(*row), n, levels) for row in zip(offset, slope)]
    return tuple(np.array(side) for side in zip(*ends))


def history_from_columns(features, responses):
    return History.from_observations(
        Observation(np.atleast_1d(x), float(y)) for x, y in zip(features, responses)
    )


def test_dominating_past_residual_covers_the_line():
    # |2y| >= |y| for every y, so the single comparison set is all of R
    state = build_sweep(np.array([0.0, 0.0]), np.array([2.0, 1.0]))
    hull = hull_at(state, 2, 0.3)
    assert (hull.lower, hull.upper) == (-math.inf, math.inf)


def test_constant_past_residual_yields_a_symmetric_band():
    # past residual is the constant 2, candidate residual is 1 + y:
    # |1 + y| <= 2 exactly on [-3, 1]
    offset = np.array([2.0, 1.0])
    slope = np.array([0.0, 1.0])
    state = build_sweep(offset, slope)
    hull = hull_at(state, 2, 0.6)
    assert hull.lower == pytest.approx(-3.0)
    assert hull.upper == pytest.approx(1.0)
    full = hull_at(state, 2, 0.3)
    assert (full.lower, full.upper) == (-math.inf, math.inf)


def test_point_region_survives():
    # equality only at a single crossing
    offset = np.array([0.0, 1.0])
    slope = np.array([0.0, 1.0])
    # |0| >= |1 + y| only at y = -1
    state = build_sweep(offset, slope)
    hull = hull_at(state, 2, 0.6)
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
        offset, slope = oracles.affine_residuals(design, ridge, fixed)
        eps = float(rng.choice([0.05, 0.1, 0.25, 0.5, 0.8]))
        hull = hull_at(build_sweep(offset, slope), n, eps)
        low, high = oracles.rank_region_hull(offset, slope, eps)
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
    predictor = IidPredictor(ridge=0.01)
    for epsilon, onset in ((0.05, 20), (0.5, 2)):
        assert predictor.can_bound(onset, 1, (epsilon,))
        assert not predictor.can_bound(onset - 1, 1, (epsilon,))
    # at ridge 0 two rows interpolate one feature: the step abstains there
    assert not IidPredictor().can_bound(2, 1, (0.5,))
    assert IidPredictor().can_bound(3, 1, (0.5,))
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
    history = History.from_arrays(design[:-1, 1:], responses[:-1])
    step = IidPredictor(0.01).step(history, design[-1, 1:])
    score = abs(step.residuals(responses[-1])[-1])
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
    state = build_sweep(*oracles.affine_residuals(design, 0.01, fixed))
    previous = None
    for eps in (0.8, 0.5, 0.3, 0.1):
        hull = hull_at(state, 9, eps)
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
    hull = hull_at(build_sweep(offset.copy(), slope.copy()), n, eps)
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


def interval_map(rng, n, rows, kind):
    """A residual map (one row, or a block of ``rows``) whose last offset
    is 0 (either sign) and whose earlier slopes are all below the last in
    magnitude: every comparison set is an interval around 0.  ``grid``
    draws offsets and slopes from a few values, so that zero offsets
    (point sets at 0) and tied ends occur."""
    shape = (n,) if rows is None else (rows, n)
    last = rng.choice([-1.0, 1.0, 0.5], size=shape[:-1] + (1,))
    if kind == "grid":
        offset = rng.integers(-2, 3, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        fraction = rng.choice([-0.75, -0.5, 0.0, 0.5, 0.75], size=shape)
    else:
        offset = rng.normal(size=shape)
        fraction = rng.uniform(-1.0, 1.0, size=shape)
    slope = fraction * np.abs(last)
    offset[..., -1] = rng.choice([0.0, -0.0])
    slope[..., -1:] = last
    return offset.astype(float), slope


def interval_hull(offset, slope, levels):
    """``_interval_hull`` of a map given by its offsets and slopes: the
    sign-normalised offsets and the magnitudes that ``IidPredictor._bounds``
    passes it."""
    return _interval_hull(offset * np.copysign(1.0, slope), np.abs(slope), levels)


@st.composite
def interval_cases(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    rows = draw(st.sampled_from([None, 1, 2, 5]))
    kind = draw(st.sampled_from(["random", "grid"]))
    # levels at c / n hit the float comparison of ``sweep_hull`` exactly,
    # and levels below 1 / n give the whole line (k = 0)
    level = st.one_of(
        st.floats(min_value=1e-4, max_value=0.999),
        st.integers(min_value=1, max_value=n - 1).map(lambda c: c / n) if n > 2 else st.just(0.5),
    )
    levels = draw(st.lists(level, min_size=1, max_size=6, unique=True))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, rows, kind, tuple(sorted(levels, reverse=True)), seed


def assert_same_ends(fast, swept):
    for mine, theirs in zip(fast, swept):
        assert np.array_equal(mine, theirs)
        # the one difference allowed: which of several equal ends the
        # selection picks, which can show only as the sign of a zero end
        differs = np.signbit(mine) != np.signbit(theirs)
        assert np.all(mine[differs] == 0.0)


@settings(deadline=None, max_examples=300)
@given(interval_cases())
def test_order_statistics_equal_the_sweep_hull(case):
    n, rows, kind, levels, seed = case
    offset, slope = interval_map(np.random.default_rng(seed), n, rows, kind)
    fast = interval_hull(offset, slope, levels)
    assert fast[0].shape == offset.shape[:-1] + (len(levels),)
    assert_same_ends(fast, swept_ends(offset, slope, levels))


def test_order_statistics_cover_the_whole_line_point_sets_and_ties():
    # k = 0 below 1 / n: the whole line
    offset, slope = np.array([1.0, -2.0, 0.0]), np.array([0.5, 0.25, 1.0])
    lower, upper = interval_hull(offset, slope, (0.4, 0.3))
    assert (lower[1], upper[1]) == (-math.inf, math.inf) and np.isfinite([lower[0], upper[0]]).all()
    # a_i = 0 makes S_i the point 0; with tied ends beside it, every level
    # reads the sweep's ends
    offset = np.array([0.0, 0.0, 2.0, 2.0, -2.0, -1.0, 0.0])
    slope = np.array([0.5, -0.5, 0.5, 0.5, 0.5, 0.0, 1.0])
    levels = (0.9, 0.7, 0.5, 0.3, 0.15, 0.1)
    fast = interval_hull(offset, slope, levels)
    assert_same_ends(fast, sweep_hull(build_sweep(offset, slope), 7, levels))
    assert 0.0 in fast[0] and 0.0 in fast[1]
    assert len(np.unique(fast[1][np.isfinite(fast[1])])) < np.isfinite(fast[1]).sum()


@settings(deadline=None, max_examples=150)
@given(interval_cases(), st.sampled_from(["equal", "above", "offset"]), st.integers(0, 24))
def test_other_maps_fall_back_to_the_sweep(case, change, where):
    # a slope equal to or above the last in magnitude (a point ray, two
    # rays, the whole line) or a nonzero last offset leaves the sweep: the
    # changed row, and it alone, is swept, while the other rows of a block
    # read order statistics; every row gets the sweep's ends
    n, rows, kind, levels, seed = case
    offset, slope = interval_map(np.random.default_rng(seed), n, rows, kind)
    row = (0,) if rows else ()
    if change == "offset":
        offset[row + (-1,)] = 1e-300
    else:
        at = row + (where % (n - 1),)
        last = abs(slope[row + (-1,)])
        slope[at] = -last if change == "equal" else 2.0 * last
    swept = []
    sweep = predictors_module.build_sweep

    def counted(*args):
        swept.append(args)
        return sweep(*args)

    with mock.patch.object(predictors_module, "build_sweep", counted):
        ends = IidPredictor()._bounds(map_step(offset, slope), levels)
    assert len(swept) == 1
    assert np.array_equal(swept[0][0], offset[row]) and np.array_equal(swept[0][1], slope[row])
    assert_same_ends(ends, swept_ends(offset, slope, levels))


@pytest.mark.parametrize("levels", [(0.2,), (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)])
def test_tie_free_sweeps_sort_once_and_sum_once(monkeypatch, levels):
    # without tied points one argsort orders a sweep and no lexsort runs;
    # its prefix counts are summed once, however many levels read them.  An
    # IID step whose every comparison set is an interval runs no sweep at
    # all; one with a ray set runs one sweep.
    rng = np.random.default_rng(31)
    features = rng.normal(size=(60, 3))
    responses = features.sum(axis=1) + rng.normal(size=60)
    history = History.from_observations(
        Observation(x, y) for x, y in zip(features[:-1], responses[:-1])
    )
    predictors = (IidPredictor(ridge=0.01), IidGaussPredictor(mc=MonteCarloConfig(199, seed=3)))
    steps = [predictor.step(history, features[-1]) for predictor in predictors]
    # one outlying row, and twice it as the new row: its residual's slope
    # is the only one above the new row's, so its comparison set is two rays
    outlier = np.array([8.0, 0.0, 0.0])
    outlying = History.from_arrays(
        np.vstack([features[:-1], outlier]), np.append(responses[:-1], 8.0)
    )
    ray_step = predictors[0].step(outlying, 2.0 * outlier)
    slope = ray_step.slope
    assert np.count_nonzero(np.abs(slope[:-1]) >= slope[-1]) == 1
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
    sweep = predictors_module.build_sweep

    def counted_sweep(*args):
        calls.append("build_sweep")
        return sweep(*args)

    monkeypatch.setattr(predictors_module, "build_sweep", counted_sweep)
    predictors[0].predict(steps[0], levels)
    assert calls == []
    predictors[0].predict(ray_step, levels)
    assert calls == ["build_sweep", "cumsum"]
    calls.clear()
    predictors[1].predict(steps[1], levels)
    assert calls == ["cumsum"]
