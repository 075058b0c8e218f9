"""Batch prediction in row blocks against the one-row route.

The IID ends of a block of random and crafted residual maps are compared,
row by row, with the one-row sweep that ``oracles`` keeps and with each
row's one-row ends; the MVA hull of a block and of one-row steps, and the
Gauss ends of one-row steps, with the per-level reads that ``oracles``
keeps; ``batch_predict`` is compared, for IID, Gauss and MVA, with one step
and one ``predict`` per test row, and an IID block whose rows mix
order-statistic and sweep ends with its one-row steps.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from olreg import (
    FeatureSchedule,
    GaussPredictor,
    History,
    IidPredictor,
    MvaPredictor,
    SyntheticConfig,
    batch_predict,
    build_sweep,
    gen_synthetic,
    observations_to_arrays,
    sweep_hull,
)
from olreg.numerics import two_sided_quantiles
from olreg.predictors import BLOCK_ROWS, MvaStep, SweepState, mva_hull
from test_iid_sweep import map_step

LEVELS = (0.5, 0.2, 0.1, 0.05)


def crafted_block(rng, n):
    """Rows of residual maps (offset, slope) with n entries each, built so
    that exact point ties, slopes equal to the last one (with equal and
    unequal offsets, zero and nonzero), zero slopes and tangencies from
    above all occur, beside a plain random row and a row whose comparison
    sets are all intervals around 0 (with zero offsets among them), which
    reads order statistics where the others sweep."""
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
    # the last offset 0 and every earlier slope below the last: intervals
    offset = rng.choice([0.0, -0.0, 1.0, -2.0], size=n)
    offset[-1] = rng.choice([0.0, -0.0])
    slope = rng.choice([-0.5, 0.0, 0.25], size=n)
    slope[-1] = 1.0
    rows.append((offset, slope))
    return np.array([row[0] for row in rows]), np.array([row[1] for row in rows])


def assert_same_bits(mine, theirs):
    """Equal arrays, down to the sign of every zero."""
    assert np.array_equal(mine, theirs)
    assert np.array_equal(np.signbit(mine), np.signbit(theirs))


def check_block_against_rows(offset, slope):
    # a block's IID ends, each row by its own route, against the one-row
    # sweep that ``oracles`` keeps: the sweep of each row state for state,
    # and every row's ends (a row of intervals reads order statistics,
    # which can differ from the sweep only in the sign of a zero end)
    n = offset.shape[1]
    lower, upper = IidPredictor()._bounds(map_step(offset, slope), LEVELS)
    assert lower.shape == upper.shape == (offset.shape[0], len(LEVELS))
    for r in range(offset.shape[0]):
        points, deltas, counts, left, right = oracles.sweep_one_row(offset[r], slope[r])
        state = build_sweep(offset[r], slope[r])
        assert np.array_equal(state.points, points)
        assert np.array_equal(state.deltas, deltas)
        assert np.array_equal(state.counts, counts)
        assert (state.left_count, state.right_count) == (left, right)
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
            IidPredictor()._bounds(map_step(offset, slope), LEVELS)
            for r in range(offset.shape[0]):
                one = build_sweep(offset[r], slope[r])
                for epsilon in LEVELS:
                    sweep_hull(one, n, epsilon)


def test_one_row_sweep_equals_its_row_in_a_block():
    # each row of a block, swept or read by order statistics, gets the ends
    # of its own one-row map bit for bit, the sign of a zero end included
    rng = np.random.default_rng(11)
    for n in (2, 5, 12):
        offset, slope = crafted_block(rng, n)
        lower, upper = IidPredictor()._bounds(map_step(offset, slope), LEVELS)
        for r in range(offset.shape[0]):
            one_lower, one_upper = IidPredictor()._bounds(map_step(offset[r], slope[r]), LEVELS)
            assert_same_bits(lower[r], one_lower)
            assert_same_bits(upper[r], one_upper)


def test_a_sweep_takes_one_map():
    # a block's rows are swept one by one (``IidPredictor._bounds``); the
    # sweep itself takes one map, and a 2-d one is refused
    rng = np.random.default_rng(12)
    offset, slope = crafted_block(rng, 6)
    with pytest.raises(ValueError):
        build_sweep(offset, slope)
    with pytest.raises(ValueError):
        build_sweep(offset[0], slope[0, :-1])
    with pytest.raises(ValueError):
        SweepState.from_crossings(offset, np.ones(offset.shape, dtype=int), 0, 0)


def pattern(lower, upper):
    """0 empty, 1 full line, 2 ray, 3 bounded."""
    empty = (lower == math.inf) & (upper == -math.inf)
    full = (lower == -math.inf) & (upper == math.inf)
    ray = ~empty & ~full & (np.isinf(lower) | np.isinf(upper))
    return np.select([empty, full, ray], [0, 1, 2], 3)


def one_row_route(model, features, responses, test, levels, ridge, schedule):
    predictor = {
        "iid": IidPredictor(ridge, schedule),
        "gauss": GaussPredictor(),
        "mva": MvaPredictor(ridge, schedule),
    }[model]
    history = History.from_arrays(features, responses)
    intervals = [predictor.predict(predictor.step(history, x), levels) for x in test]
    lower = np.array([[interval.lower for interval in row] for row in intervals])
    upper = np.array([[interval.upper for interval in row] for row in intervals])
    return lower.reshape(len(test), len(levels)), upper.reshape(len(test), len(levels))


ROWS = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5)
# The IID cases keep their ids.  Gauss and MVA add: an exactly linear
# history ("exact": sigma_hat = 0, point intervals, for Gauss; empty sets or
# full lines for MVA at ridge 0), every third test row far out ("far": MVA's
# region is then often the whole line), and for MVA at ridge 0 a history of
# K + 1 rows ("k+2", n = K + 2: the empty set or the whole line).  The
# patterns each kind must show are listed with it.
BATCH_CASES = [
    pytest.param(
        "iid", ridge, scheduled, shift, rows, "plain", id=f"{rows}-{shift}-{scheduled}-{ridge}"
    )
    for ridge in (0.0, 0.01, 1.0)
    for scheduled in (False, True)
    for shift in (0.0, 1e6)
    for rows in ROWS
] + [
    pytest.param("gauss", 0.0, False, shift, rows, kind, id=f"gauss-{kind}-{rows}-{shift}")
    for kind in ("plain", "exact", "far")
    for shift in (0.0, 1e6)
    for rows in (1, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5)
] + [
    pytest.param("mva", ridge, scheduled, shift, rows, kind,
                 id=f"mva-{kind}-{rows}-{shift}-{scheduled}-{ridge}")
    for kind in ("plain", "exact", "far")
    for ridge in (0.0, 0.01)
    for scheduled in (False, True)
    for shift in (0.0, 1e6)
    for rows in (1, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5)
] + [
    pytest.param("mva", 0.0, False, shift, rows, "k+2", id=f"mva-k+2-{rows}-{shift}")
    for shift in (0.0, 1e6)
    for rows in (BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5)
]
EMPTY, FULL, RAY, BOUNDED = range(4)


def expected_patterns(model, ridge, scheduled, rows, kind):
    """The patterns a case must show, beside any others.  The first test
    row of a "far" case is a far one."""
    if model != "mva" or kind == "plain":
        return {BOUNDED}
    if kind == "k+2":
        return {EMPTY, FULL}
    if kind == "far":
        return {FULL, BOUNDED} if rows > 1 else {FULL}
    if scheduled:
        return {FULL, BOUNDED}
    # an exactly linear history leaves the ridge-0 statistic no spread
    return {EMPTY} if ridge == 0.0 else {BOUNDED}


@pytest.mark.parametrize("model, ridge, scheduled, shift, rows, kind", BATCH_CASES)
def test_batch_blocks_match_one_step_per_row(model, ridge, scheduled, shift, rows, kind):
    # with the schedule, a 13-row history on 12 features: the fit sees 10
    # of them at n = 14 < K + 3; without it, 40 rows on all 12
    k = 12
    rng = np.random.default_rng(rows + int(10 * ridge) + (100 if scheduled else 0))
    train = k + 1 if kind == "k+2" else 13 if scheduled else 40
    features = rng.normal(size=(train + rows, k))
    if kind == "far":
        features[train::3] *= 30.0
    noise = 0.0 if kind == "exact" else rng.normal(size=train + rows)
    responses = features @ rng.normal(size=k) + noise + shift
    schedule = FeatureSchedule.for_feature_count(k) if scheduled else None
    levels = (0.2, 0.1) if model == "iid" else (0.5, 0.1, 0.01)
    result = batch_predict(
        features[:train], responses[:train], features[train:], levels,
        model=model, ridge=ridge, schedule=schedule,
    )
    assert result.code == 0
    lower, upper = one_row_route(
        model, features[:train], responses[:train], features[train:], levels, ridge, schedule
    )
    shapes = pattern(lower, upper)
    np.testing.assert_array_equal(pattern(result.lower, result.upper), shapes)
    assert expected_patterns(model, ridge, scheduled, rows, kind) <= set(shapes.ravel().tolist())
    bounded = shapes == BOUNDED
    if model == "gauss" and kind == "exact":
        bounded &= lower < upper  # sigma_hat = 0: the points are gated below
    width = (upper - lower)[bounded]
    for mine, theirs in ((result.lower, lower), (result.upper, upper)):
        assert np.all(np.abs(mine[bounded] - theirs[bounded]) <= 1e-9 * width)
        rays = np.isfinite(theirs) & ~bounded
        np.testing.assert_allclose(mine[rays], theirs[rays], rtol=1e-12, atol=1e-9)
    if model == "gauss" and kind == "exact":
        # sigma_hat = 0: point intervals, at the one-row route's point up to
        # the rounding of its product
        assert np.all(result.lower == result.upper) and np.all(lower == upper)
        np.testing.assert_allclose(result.lower, lower, rtol=1e-12, atol=1e-12)


def test_block_of_interval_and_ray_rows_matches_its_one_row_steps():
    # new rows far along an outlying history row give that row's residual a
    # slope above the new row's own, so its comparison set is two rays and
    # the one-row step sweeps; the other rows read order statistics.  A
    # block of both kinds, or of ray rows alone, gives each row the ends of
    # its own map read as one row, bit for bit, and the ends of its one-row
    # step up to the rounding in which the block's map differs
    rng = np.random.default_rng(5)
    features = rng.normal(size=(40, 3))
    features[0] = [8.0, 0.0, 0.0]
    responses = features.sum(axis=1) + rng.normal(size=40)
    history = History.from_arrays(features, responses)
    test = rng.normal(size=(BLOCK_ROWS, 3))
    test[::3] = features[0] * rng.uniform(2.0, 3.0, size=(len(test[::3]), 1))
    predictor = IidPredictor(ridge=0.01)
    levels = (0.5, 0.2, 0.1)
    steps = [predictor.step(history, x) for x in test]
    fast = [
        step.offset[-1] == 0.0 and np.all(np.abs(step.slope[:-1]) < abs(step.slope[-1]))
        for step in steps
    ]
    assert fast.count(False) == len(test[::3]) and fast.count(True) == len(test) - len(test[::3])
    for rows in (slice(None), slice(None, None, 3)):
        block = predictor.step(history, test[rows])
        lower, upper = predictor._bounds(block, levels)
        for r, step in enumerate(steps[rows]):
            row = map_step(block.offset[r], block.slope[r])
            row.reference = float(block.reference[r])
            row_lower, row_upper = predictor._bounds(row, levels)
            assert_same_bits(lower[r], row_lower)
            assert_same_bits(upper[r], row_upper)
            one_lower, one_upper = predictor._bounds(step, levels)
            assert np.all(pattern(one_lower, one_upper) == BOUNDED)
            width = one_upper - one_lower
            assert np.all(np.abs(lower[r] - one_lower) <= 1e-9 * width)
            assert np.all(np.abs(upper[r] - one_upper) <= 1e-9 * width)
    # maps whose ends are zeros of either sign: two rows of intervals, which
    # read order statistics, beside a row that sweeps, or the sweeping row
    # alone; each row keeps the signs of its own one-row ends
    offset = np.array([[0.0] * 5, [-0.0] * 5, [-1.0, 1.0, -1.0, 1.0, 1.0]])
    slope = np.array([[0.5] * 4 + [1.0], [0.0] * 4 + [1.0], [-0.5, -1.0, 0.5, 0.0, 1.0]])
    for rows in ([0, 1, 2], [2]):
        lower, upper = predictor._bounds(map_step(offset[rows], slope[rows]), levels)
        for r, row in enumerate(rows):
            one_lower, one_upper = predictor._bounds(map_step(offset[row], slope[row]), levels)
            assert_same_bits(lower[r], one_lower)
            assert_same_bits(upper[r], one_upper)
        ends = np.concatenate([lower, upper], axis=None)
        zeros = ends[ends == 0.0]
        assert set(np.signbit(zeros).tolist()) == {False, True}


def test_mva_hull_block_matches_its_rows_on_crafted_steps():
    # rows whose regions are the whole line (a negative lead, and a flat one
    # with a negative constant), rays to either side (a flat lead with a
    # cross term, which data gives only by accident), the empty set (a flat
    # lead and a positive constant, and a positive lead without real
    # roots), a bounded interval and an interpolating row, all in one block
    # and read at once; each entry must be the per-level read of its row's
    # numbers, bit for bit, and so must the row's own one-row step
    rows = [
        # center, last_offset, last_slope, head_aa, head_ab, head_bb
        (0.5, 0.0, 0.1, 4.0, 0.0, 9.0),
        (1.0, 0.0, 0.0, 3.0, 0.0, 0.0),
        (-2.0, 1.0, 0.0, 1.0, 1.0, 0.0),
        (3.0, 1.0, 0.0, 1.0, -1.0, 0.0),
        (0.0, 5.0, 0.0, 1e-3, 0.0, 0.0),
        (1e6, 0.0, 1.0, -1.0, 0.0, 1e-4),
        (7.0, 0.0, 1.0, 2.0, 0.3, 0.05),
        (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    ]
    columns = [np.array(column) for column in zip(*rows)]
    block = MvaStep(20, *columns)
    t_values = np.array([0.5, 2.0, 4.0])
    lower, upper = mva_hull(block, t_values)
    assert lower.shape == upper.shape == (len(rows), len(t_values))
    # the block's rows at one threshold: one column
    one_lower, one_upper = mva_hull(block, t_values[1])
    seen = set()
    for r, numbers in enumerate(rows):
        expected = [oracles.centered_region_hull(20, *numbers, t) for t in t_values.tolist()]
        assert list(zip(lower[r].tolist(), upper[r].tolist())) == expected, r
        row_lower, row_upper = mva_hull(MvaStep(20, *numbers), t_values)
        assert list(zip(row_lower.tolist(), row_upper.tolist())) == expected, r
        assert (one_lower[r, 0], one_upper[r, 0]) == expected[1]
        seen.update(pattern(lower[r], upper[r]).tolist())
    assert seen == {EMPTY, FULL, RAY, BOUNDED}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["plain", "exact", "k+2", "far"])
def test_one_row_gauss_and_mva_steps_match_the_per_level_reads(kind, seed):
    # random histories: an exactly linear one ("exact": sigma_hat = 0 for
    # Gauss, no spread for MVA), K + 1 rows ("k+2": n = K + 2, before the
    # Gauss onset, and the empty set or the whole line for MVA at ridge 0)
    # and responses 1e6 from zero ("far"); each level's ends must be the
    # per-level read of the step's numbers, bit for bit
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    train = k + 1 if kind == "k+2" else int(rng.integers(k + 3, 40))
    features = rng.normal(size=(train + 1, k))
    noise = 0.0 if kind == "exact" else rng.normal(size=train)
    shift = 1e6 if kind == "far" else 0.0
    responses = features[:train] @ rng.normal(size=k) + noise + shift
    history = History.from_arrays(features[:train], responses)
    x = features[train]
    levels = (0.5, 0.1, 0.01)

    def ends(intervals):
        return [(interval.lower, interval.upper) for interval in intervals]

    gauss = GaussPredictor()
    step = gauss.step(history, x)
    if kind == "k+2":
        assert step is None
    else:
        if kind == "exact":
            assert step.sigma_hat == 0.0
        quantiles = two_sided_quantiles(step.degrees_of_freedom, levels).tolist()
        expected = oracles.pivot_ends_per_level(step.point_prediction, step.spread, quantiles)
        assert ends(gauss.predict(step, levels)) == expected
    for mva in (MvaPredictor(0.0), MvaPredictor(0.01, FeatureSchedule.for_feature_count(k))):
        step = mva.step(history, x)
        numbers = (step.center, step.last_offset, step.last_slope,
                   step.head_aa, step.head_ab, step.head_bb)
        expected = [
            oracles.centered_region_hull(step.count, *numbers, t)
            for t in two_sided_quantiles(step.count - 2, levels).tolist()
        ]
        assert ends(mva.predict(step, levels)) == expected, mva


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


@pytest.mark.parametrize("model", ["iid", "gauss", "mva"])
def test_batch_memory_does_not_grow_with_the_test_rows(model):
    features, responses = observations_to_arrays(gen_synthetic(SyntheticConfig()))
    test, _ = observations_to_arrays(
        gen_synthetic(SyntheticConfig(seed=11, observation_count=1000))
    )
    peaks = []
    for rows in (50, 1000):
        tracemalloc.start()
        try:
            batch_predict(features, responses, test[:rows], (0.05, 0.01), model=model)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the bound matrices themselves grow by 2 x 2 x 8 bytes per row
    assert peaks[1] <= peaks[0] + 256 * 1024, peaks
