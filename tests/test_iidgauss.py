"""Monte-Carlo summary-conditional predictor."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor

import oracles
from olreg import (
    FeatureSchedule,
    History,
    MonteCarloConfig,
    Observation,
    iidgauss_predict,
    iidgauss_pvalue,
)
from olreg.predictors import _mc_machinery
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
    # endpoints sit within the bisection resolution of the 0.1 contour
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
    factor = cho_factor(design.T @ design, lower=True)
    orderings = random_orderings(np.random.default_rng(seed + 1), samples, n)
    directions = complement_directions(np.random.default_rng(seed), design, orderings, factor)
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
    step = _mc_machinery(history_of(features[:-1], responses[:-1]), features[-1], ridge,
                         schedule, mc)
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
