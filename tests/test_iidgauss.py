"""Monte-Carlo summary-conditional predictor."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor

import oracles
from olreg import (
    FeatureSchedule,
    History,
    MonteCarloConfig,
    Observation,
)
from olreg.predictors import iidgauss_predict, iidgauss_pvalue
from olreg.protocol import IidGaussPredictor
from olreg.sampler import complement_directions, random_orderings


def history_of(features, responses):
    return History.from_observations(
        Observation(np.atleast_1d(x), float(y)) for x, y in zip(features, responses)
    )


def random_history(rng, n, k):
    return history_of(rng.normal(size=(n, k)), rng.normal(size=n))


def step_of(history, x, mc=MonteCarloConfig(), ridge=0.0):
    return IidGaussPredictor(ridge=ridge, mc=mc).step(history, x)


def test_full_lines_until_enough_observations():
    rng = np.random.default_rng(61)
    history = random_history(rng, 2, 2)  # n = 3 < K + 2 = 4
    intervals = iidgauss_predict(step_of(history, rng.normal(size=2)), (0.2, 0.05))
    assert all((i.lower, i.upper) == (-math.inf, math.inf) for i in intervals)
    assert iidgauss_pvalue(step_of(history, rng.normal(size=2)), 0.0) == 1.0


def test_no_samples_means_no_information():
    rng = np.random.default_rng(62)
    history = random_history(rng, 12, 2)
    mc = MonteCarloConfig(samples=0, seed=0)
    intervals = iidgauss_predict(step_of(history, rng.normal(size=2), mc), (0.05,))
    assert (intervals[0].lower, intervals[0].upper) == (-math.inf, math.inf)


def test_intervals_are_deterministic_given_the_seed():
    rng = np.random.default_rng(63)
    history = random_history(rng, 15, 2)
    x = rng.normal(size=2)
    mc = MonteCarloConfig(samples=499, seed=3)
    first = iidgauss_predict(step_of(history, x, mc), (0.1, 0.05))
    second = iidgauss_predict(step_of(history, x, mc), (0.1, 0.05))
    assert first == second


def test_levels_nest():
    rng = np.random.default_rng(64)
    for trial in range(5):
        history = random_history(rng, 20, 2)
        x = rng.normal(size=2)
        mc = MonteCarloConfig(samples=499, seed=trial)
        wide, mid, narrow = iidgauss_predict(step_of(history, x, mc), (0.2, 0.1, 0.05))
        assert mid.lower <= wide.lower or wide.is_empty
        assert wide.upper <= mid.upper or wide.is_empty
        assert narrow.lower <= mid.lower or mid.is_empty
        assert mid.upper <= narrow.upper or mid.is_empty


def test_permutation_invariance_is_bitwise():
    rng = np.random.default_rng(65)
    features = rng.normal(size=(14, 3))
    responses = rng.normal(size=14)
    x = rng.normal(size=3)
    mc = MonteCarloConfig(samples=299, seed=8)
    plain = history_of(features, responses)
    shuffled_index = rng.permutation(14)
    shuffled = history_of(features[shuffled_index], responses[shuffled_index])
    a = iidgauss_predict(step_of(plain, x, mc), (0.1,))
    b = iidgauss_predict(step_of(shuffled, x, mc), (0.1,))
    assert a == b
    assert iidgauss_pvalue(step_of(plain, x, mc), 0.25) == iidgauss_pvalue(
        step_of(shuffled, x, mc), 0.25
    )


def test_permutation_invariance_with_a_tied_first_feature():
    # the first feature alone cannot order these rows, so the canonical
    # order falls back to the full lexicographic sort
    rng = np.random.default_rng(66)
    features = rng.normal(size=(14, 3))
    features[:, 0] = rng.integers(0, 3, size=14)
    responses = rng.normal(size=14)
    x = np.array([1.0, 0.3, -0.2])
    mc = MonteCarloConfig(samples=299, seed=9)
    shuffled_index = rng.permutation(14)
    plain = step_of(history_of(features, responses), x, mc)
    shuffled = step_of(history_of(features[shuffled_index], responses[shuffled_index]), x, mc)
    assert iidgauss_predict(plain, (0.1,)) == iidgauss_predict(shuffled, (0.1,))
    assert np.array_equal(plain.draw_dir, shuffled.draw_dir)


def test_pvalue_and_interval_are_consistent():
    rng = np.random.default_rng(66)
    history = random_history(rng, 25, 2)
    x = rng.normal(size=2)
    mc = MonteCarloConfig(samples=999, seed=5)
    step = step_of(history, x, mc)
    (interval,) = iidgauss_predict(step, (0.1,))
    assert interval.is_bounded
    center = 0.5 * (interval.lower + interval.upper)
    margin = 0.05 * interval.length
    assert iidgauss_pvalue(step, center) > 0.1
    far_out = interval.upper + 5.0 * interval.length
    assert iidgauss_pvalue(step, far_out) <= 0.1
    # endpoints sit on the 0.1 contour
    near_inside = interval.upper - margin
    near_outside = interval.upper + margin
    assert iidgauss_pvalue(step, near_inside) > 0.1
    assert iidgauss_pvalue(step, near_outside) <= 0.1


def test_pvalue_floor_is_one_over_samples_plus_one():
    rng = np.random.default_rng(67)
    history = random_history(rng, 10, 1)
    mc = MonteCarloConfig(samples=9, seed=0)
    p = iidgauss_pvalue(step_of(history, np.array([0.0]), mc), 1e6)
    assert p >= 1.0 / 10.0
    assert p <= 0.5


def test_protocol_adapter_runs_online():
    rng = np.random.default_rng(68)
    predictor = IidGaussPredictor(mc=MonteCarloConfig(samples=99, seed=1))
    from olreg import run_online

    stream = [Observation(rng.normal(size=1), float(rng.normal())) for _ in range(12)]
    ledger = run_online(predictor, stream, (0.2,))
    assert ledger.errors.shape == (1, 12)
    assert np.isinf(ledger.lengths[0][0])


def test_ridge_enables_wide_histories():
    rng = np.random.default_rng(69)
    history = random_history(rng, 6, 8)  # more columns than rows
    x = rng.normal(size=8)
    mc = MonteCarloConfig(samples=199, seed=2)
    intervals = iidgauss_predict(step_of(history, x, mc, ridge=0.01), (0.1,))
    assert len(intervals) == 1  # regularized run completes


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=30),
    st.sampled_from([0.0, 0.01]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_draws_match_the_gathered_oracle(k, extra, ridge, switch, seed):
    # the draws are computed in unpermuted row order; the oracle refits
    # every permuted draw on its own gathered rows with the same stream.
    # Both forms lose eps * |draw| / |projection| when normalizing, and with
    # a complement of dimension 1 or 2 that projection is near zero often
    # enough to reach 1e-8, so the complement here has dimension >= 3.
    rng = np.random.default_rng(seed)
    n = k + 2 + extra
    features = rng.normal(size=(n, k))
    responses = features @ rng.normal(size=k) + rng.normal(size=n)
    samples = 64

    design = np.column_stack([np.ones(n), features])
    factor = cho_factor(design.T @ design, lower=True)  # the oracle's Gram solve
    orderings = random_orderings(np.random.default_rng(seed + 1), samples, n)
    # the package takes the upper triangle L' of the same Gram matrix
    directions = complement_directions(
        np.random.default_rng(seed), design, orderings, np.triu(factor[0].T)
    )
    expected = oracles.complement_directions_gathered(
        np.random.default_rng(seed), design, orderings, factor
    )
    np.testing.assert_allclose(directions, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(directions, axis=1), 1.0, rtol=0, atol=1e-10)
    moments = np.einsum("mnk,mn->mk", design[orderings], directions)
    np.testing.assert_allclose(moments, 0.0, rtol=0, atol=1e-10)

    schedule = None if switch is None else FeatureSchedule(1, switch, k)
    active = k if schedule is None else schedule.active_features(n)
    mc = MonteCarloConfig(samples=samples, seed=seed)
    step = IidGaussPredictor(ridge, schedule, mc).step(
        history_of(features[:-1], responses[:-1]), features[-1]
    )
    draws = oracles.mc_draws_gathered(features, responses[:-1], ridge, active, samples, seed)
    for got, want in zip((step.draw_const, step.draw_lin, step.draw_dir), draws):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the radius is the residual norm of the full fit with y appended
    for y in (step.center, responses[-1], step.center + 10.0):
        appended = np.append(responses[:-1], y)
        solution, *_ = np.linalg.lstsq(design, appended, rcond=None)
        energy = float(np.sum((appended - design @ solution) ** 2))
        assert step.radius(y) ** 2 == pytest.approx(energy, rel=1e-9, abs=1e-12)


def test_one_paper_scale_step_stays_small():
    # a permuted copy of the design for 999 draws over 301 rows would be a
    # 999 x 301 x 101 tensor (243 MB); the draws need O(samples * n) memory
    rng = np.random.default_rng(70)
    features = rng.normal(size=(301, 100))
    responses = features @ rng.normal(size=100) + rng.normal(size=301)
    history = history_of(features[:-1], responses[:-1])
    tracemalloc.start()
    try:
        intervals = iidgauss_predict(step_of(history, features[-1]), (0.05, 0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(interval.is_bounded for interval in intervals)
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


class ScriptedNormals:
    """A generator stand-in whose first normal block is given; later blocks
    come from a real generator."""

    def __init__(self, first, seed):
        self._first = first
        self._rest = np.random.default_rng(seed)

    def standard_normal(self, shape):
        if self._first is not None:
            first, self._first = self._first, None
            assert first.shape == shape
            return first
        return self._rest.standard_normal(shape)


@pytest.mark.parametrize("n,k,samples", [(12, 3, 64), (40, 5, 200), (120, 5, 999), (61, 30, 101)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_directions_match_the_masked_loop_bitwise(n, k, samples, seed):
    rng = np.random.default_rng(seed)
    design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
    upper = np.linalg.qr(design, mode="r")
    factor = (upper, False)
    orderings = random_orderings(rng, samples, n)
    got = complement_directions(np.random.default_rng(seed), design, orderings, upper)
    want = oracles.complement_directions_masked(
        np.random.default_rng(seed), design, orderings, factor
    )
    assert np.array_equal(got, want)
    # draws lying in the column space are redrawn: the first block puts the
    # intercept column in every third row
    first = np.random.default_rng(seed + 10).standard_normal((samples, n))
    first[::3] = 1.0
    got = complement_directions(ScriptedNormals(first.copy(), seed), design, orderings, upper)
    want = oracles.complement_directions_masked(
        ScriptedNormals(first.copy(), seed), design, orderings, factor
    )
    assert np.array_equal(got, want)
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=30),
    st.sampled_from([0.0, 0.01]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    st.sampled_from([(0.2,), (0.1, 0.05), (0.5, 0.2, 0.05, 0.01)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# one residual dimension with an exactly fitted history: ends tens of units
# out at a scale near 1e-3, shallow crossings ~1e4 out, and a tied cluster
# whose end is the center itself
@example(3, 0, 0.0, 6, (0.1, 0.05), 37)
@example(3, 0, 0.0, 6, (0.1, 0.05), 38)
@example(3, 0, 0.0, 6, (0.1, 0.05), 264)
@example(3, 0, 0.01, 40, (0.1, 0.05), 35)
@example(5, 0, 0.0, 40, (0.1, 0.05), 114)
@example(3, 0, 0.01, None, (0.5, 0.2, 0.05, 0.01), 132)
@example(4, 0, 0.0, 40, (0.5, 0.2, 0.05, 0.01), 11)
def test_sweep_contains_the_bisection_and_meets_it_at_its_ends(
    k, extra, ridge, switch, levels, seed
):
    # the bisection oracle searches outward from the center, so it finds the
    # survivor set only where that set is an interval around the center; the
    # sweep must contain its interval, share every finite endpoint unless a
    # gap lies between them, and sit on a p-value jump at each of its own ends
    rng = np.random.default_rng(seed)
    n = k + 2 + extra
    features = rng.normal(size=(n, k))
    responses = features @ rng.normal(size=k) + rng.normal(size=n)
    schedule = None if switch is None else FeatureSchedule(1, switch, k)
    step = IidGaussPredictor(ridge, schedule, MonteCarloConfig(samples=99, seed=seed)).step(
        history_of(features[:-1], responses[:-1]), features[-1]
    )
    scale = max(math.sqrt(step.rss / max(n - k - 1, 1)), 1e-3 * (1.0 + abs(step.center)), 1e-6)
    for eps, got in zip(levels, iidgauss_predict(step, levels)):
        lower, upper = oracles.mc_bisection_interval(step, eps, scale, search_bound=1e9)
        if got.is_empty:
            assert lower > upper, (eps, lower, upper)
            continue
        width = got.upper - got.lower
        tol = 1e-9 * (width if 0.0 < width < math.inf else scale)
        if lower <= upper:
            assert got.lower <= lower + tol and upper - tol <= got.upper, (got, lower, upper)
        for side, end, found in ((-1.0, got.lower, lower), (1.0, got.upper, upper)):
            if math.isinf(end):
                assert end == side * math.inf
                continue
            gap = lower <= upper and math.isfinite(found) and abs(end - found) > tol
            if gap:
                assert iidgauss_pvalue(step, found + side * tol) <= eps
            if width > 0.0:
                assert iidgauss_pvalue(step, end - side * tol) > eps, (eps, side, end)
            else:
                assert iidgauss_pvalue(step, end) > eps, (eps, end)
            for distance in tol * 10.0 ** np.arange(0, 16, 3):
                assert iidgauss_pvalue(step, end + side * distance) <= eps, (eps, side, end)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("ridge,switch", [(0.0, None), (0.01, None), (0.01, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_residual_dimension_is_decided_by_structure(k, ridge, switch, seed):
    # at n = K + 2 the draws whose last row is the new row reproduce the
    # observed sequence, so their scores tie with it exactly; counting them
    # by structure makes the answer scale with the responses, where rounding
    # used to decide it differently at every scale
    rng = np.random.default_rng(400 + seed)
    n = k + 2
    features = rng.normal(size=(n, k))
    responses = features @ rng.normal(size=k) + rng.normal(size=n)
    schedule = None if switch is None else FeatureSchedule(1, switch, k)
    predictor = IidGaussPredictor(ridge, schedule, MonteCarloConfig(samples=199, seed=seed))
    levels = (0.3, 0.2, 0.1, 0.05)
    answers = []
    for factor in (1.0, 3.0):
        scaled = factor * responses
        step = predictor.step(history_of(features[:-1], scaled[:-1]), features[-1])
        answers.append((predictor.predict(step, levels), predictor.pvalue(step, scaled[-1])))
    (base, base_p), (tripled, tripled_p) = answers
    assert tripled_p == base_p
    for plain, scaled in zip(base, tripled):
        assert plain.is_empty == scaled.is_empty
        if plain.is_empty:
            continue
        for a, b in ((plain.lower, scaled.lower), (plain.upper, scaled.upper)):
            if math.isinf(a):
                assert b == a
            else:
                assert b == pytest.approx(3.0 * a, rel=1e-9, abs=1e-12)
