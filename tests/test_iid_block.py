"""Batch IID prediction in row blocks against the one-row route.

The block sweep is compared with the one-row sweep that ``oracles`` keeps,
row by row, on random and on crafted residual maps; ``batch_predict`` is
compared with one step and one ``predict`` per test row.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from olreg import (
    FeatureSchedule,
    History,
    IidPredictor,
    SyntheticConfig,
    batch_predict,
    build_sweep,
    gen_synthetic,
    observations_to_arrays,
    sweep_hull,
)
from olreg.predictors import BLOCK_ROWS

LEVELS = (0.5, 0.2, 0.1, 0.05)


def crafted_block(rng, n):
    """Rows of residual maps (offset, slope) with n entries each, built so
    that exact point ties, slopes equal to the last one (with equal and
    unequal offsets, zero and nonzero), zero slopes and tangencies from
    above all occur, beside a plain random row."""
    rows = []
    # small integers: tangencies, identical magnitudes and tied points
    small = rng.integers(-2, 3, size=(2, n)).astype(float)
    rows.append((small[0], small[1]))
    # every slope equal to the last (up to sign), some offsets equal to the last
    offset = rng.normal(size=n)
    offset[: n // 3] = offset[-1]
    rows.append((offset, rng.choice([-0.5, 0.5], size=n)))
    # the last slope zero: constant magnitudes beside moving ones
    slope = rng.normal(size=n) * rng.choice([0.0, 1.0], size=n)
    slope[-1] = 0.0
    rows.append((rng.normal(size=n), slope))
    # every slope zero
    rows.append((rng.normal(size=n), np.zeros(n)))
    # tangencies from above: a * last_slope == last_offset * b with b > last_slope
    slope = rng.choice([2.0, 4.0, 0.5], size=n)
    slope[-1] = 1.0
    offset = 0.5 * slope
    offset[-1] = 0.5
    rows.append((offset, slope))
    # a zero last offset and zero offsets: crossings at zero, signed zeros
    offset = rng.choice([0.0, -0.0, 1.0], size=n)
    offset[-1] = 0.0
    rows.append((offset, rng.choice([-1.0, 1.0, 2.0, 0.0], size=n)))
    rows.append((rng.normal(size=n), rng.normal(size=n)))
    return np.array([row[0] for row in rows]), np.array([row[1] for row in rows])


def check_block_against_rows(offset, slope):
    n = offset.shape[1]
    state = build_sweep(offset, slope)
    assert state.points.shape == (offset.shape[0], 2 * n)
    lower, upper = sweep_hull(state, n, LEVELS)
    for r in range(offset.shape[0]):
        points, deltas, counts, left, right = oracles.sweep_one_row(offset[r], slope[r])
        used = ~np.isnan(state.points[r])
        # padding sits past the +inf sentinel, where the count is 0
        assert not used[used.sum():].any()
        assert np.all(state.deltas[r][~used] == 0) and np.all(state.counts[r][~used] == 0)
        assert np.array_equal(state.points[r][used], points)
        assert np.array_equal(state.deltas[r][used], deltas)
        assert np.array_equal(state.counts[r][used], counts)
        assert (state.left_count[r], state.right_count[r]) == (left, right)
        for j, epsilon in enumerate(LEVELS):
            expected = oracles.sweep_hull_one_row(points, counts, n, epsilon)
            assert (lower[r, j], upper[r, j]) == expected, (r, epsilon)


@pytest.mark.parametrize("seed", range(8))
def test_block_sweep_matches_the_one_row_sweep_on_random_maps(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 20)), int(rng.integers(1, 40))
    check_block_against_rows(rng.normal(size=(m, n)), rng.normal(size=(m, n)))


@pytest.mark.parametrize("seed", range(12))
def test_block_sweep_matches_the_one_row_sweep_on_crafted_maps(seed):
    rng = np.random.default_rng(100 + seed)
    check_block_against_rows(*crafted_block(rng, int(rng.integers(2, 30))))


def test_crafted_maps_divide_without_warnings():
    # equal and zero slopes are divided only where the division is defined
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 5, 17):
            offset, slope = crafted_block(rng, n)
            state = build_sweep(offset, slope)
            sweep_hull(state, n, LEVELS)
            for r in range(offset.shape[0]):
                one = build_sweep(offset[r], slope[r])
                for epsilon in LEVELS:
                    sweep_hull(one, n, epsilon)


def test_one_row_sweep_equals_its_row_in_a_block():
    rng = np.random.default_rng(11)
    offset, slope = crafted_block(rng, 12)
    block = build_sweep(offset, slope)
    for r in range(offset.shape[0]):
        one = build_sweep(offset[r], slope[r])
        used = ~np.isnan(block.points[r])
        assert np.array_equal(one.points, block.points[r][used])
        assert np.array_equal(one.counts, block.counts[r][used])
        assert (one.left_count, one.right_count) == (block.left_count[r], block.right_count[r])


def pattern(lower, upper):
    """0 empty, 1 full line, 2 ray, 3 bounded."""
    empty = (lower == math.inf) & (upper == -math.inf)
    full = (lower == -math.inf) & (upper == math.inf)
    ray = ~empty & ~full & (np.isinf(lower) | np.isinf(upper))
    return np.select([empty, full, ray], [0, 1, 2], 3)


def one_row_route(features, responses, test, levels, ridge, schedule):
    predictor = IidPredictor(ridge, schedule)
    history = History.from_arrays(features, responses)
    intervals = [predictor.predict(predictor.step(history, x), levels) for x in test]
    lower = np.array([[interval.lower for interval in row] for row in intervals])
    upper = np.array([[interval.upper for interval in row] for row in intervals])
    return lower.reshape(len(test), len(levels)), upper.reshape(len(test), len(levels))


@pytest.mark.parametrize("ridge", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("scheduled", [False, True])
@pytest.mark.parametrize("shift", [0.0, 1e6])
@pytest.mark.parametrize(
    "rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]
)
def test_batch_blocks_match_one_step_per_row(ridge, scheduled, shift, rows):
    # with the schedule, a 13-row history on 12 features: the fit sees 10
    # of them at n = 14 < K + 3; without it, 40 rows on all 12
    k = 12
    rng = np.random.default_rng(rows + int(10 * ridge) + (100 if scheduled else 0))
    train = 13 if scheduled else 40
    features = rng.normal(size=(train + rows, k))
    responses = features @ rng.normal(size=k) + rng.normal(size=train + rows) + shift
    schedule = FeatureSchedule.for_feature_count(k) if scheduled else None
    levels = (0.2, 0.1)
    result = batch_predict(
        features[:train], responses[:train], features[train:], levels,
        model="iid", ridge=ridge, schedule=schedule,
    )
    assert result.code == 0
    lower, upper = one_row_route(
        features[:train], responses[:train], features[train:], levels, ridge, schedule
    )
    np.testing.assert_array_equal(pattern(result.lower, result.upper), pattern(lower, upper))
    bounded = np.isfinite(lower) & np.isfinite(upper)
    assert bounded.any()
    width = (upper - lower)[bounded]
    for mine, theirs in ((result.lower, lower), (result.upper, upper)):
        assert np.all(np.abs(mine[bounded] - theirs[bounded]) <= 1e-9 * width)
        rays = np.isfinite(theirs) & ~bounded
        np.testing.assert_allclose(mine[rays], theirs[rays], rtol=1e-12, atol=1e-9)


def test_ridge_zero_batch_onset_returns_code_two():
    # 30 training rows on 50 features interpolate at ridge 0: the step
    # abstains, and batch_predict says so with code 2 like MVA and Gauss
    rng = np.random.default_rng(3)
    features = rng.normal(size=(31, 50))
    responses = rng.normal(size=31)
    for model in ("iid", "mva", "gauss"):
        result = batch_predict(features[:30], responses[:30], features[30:], (0.05,), model=model)
        assert result.code == 2, model
        assert np.all(result.lower == -math.inf) and np.all(result.upper == math.inf)
    result = batch_predict(
        features[:30], responses[:30], features[30:], (0.05,), model="iid", ridge=0.01
    )
    assert result.code == 0


def test_batch_memory_does_not_grow_with_the_test_rows():
    features, responses = observations_to_arrays(gen_synthetic(SyntheticConfig()))
    test, _ = observations_to_arrays(
        gen_synthetic(SyntheticConfig(seed=11, observation_count=1000))
    )
    peaks = []
    for rows in (50, 1000):
        tracemalloc.start()
        try:
            batch_predict(features, responses, test[:rows], (0.05, 0.01), model="iid")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the bound matrices themselves grow by 2 x 2 x 8 bytes per row
    assert peaks[1] <= peaks[0] + 256 * 1024, peaks
