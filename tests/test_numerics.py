"""Projection, residual map, and Student-t plumbing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtr

import oracles
from olreg import FeatureSchedule, History, Observation, RankDeficiencyError
from olreg.base import PendingFactor
from olreg.numerics import RidgeProjector, residual_decomposition, two_sided_quantiles
from olreg.predictors import _step_projector


def ones_design(n):
    return np.ones((n, 1))


def step_projector(design, fixed, ridge):
    """The IID step's projector for the rows of ``design`` (ones column
    first): a history of all rows but the last, with the ``fixed``
    responses, and the last row as the new one."""
    history = History.from_arrays(design[:-1, 1:], fixed)
    return _step_projector(history, design[-1, 1:], ridge, None)


def test_ones_column_residuals_center_the_responses():
    proj = step_projector(ones_design(2), [1.0], 0.0)
    assert np.allclose(proj.residuals(1.0), [0.0, 0.0])
    proj = step_projector(ones_design(2), [0.0], 0.0)
    assert np.allclose(proj.residuals(2.0), [-1.0, 1.0])


def test_single_row_with_ridge_keeps_part_of_the_response():
    proj = step_projector(ones_design(1), [], 1.0)
    # I - 1/(1+1) = 1/2, applied to y = 2
    assert np.allclose(proj.residuals(2.0), [1.0])


def test_decomposition_on_two_ones_rows():
    proj = step_projector(ones_design(2), [4.0], 0.0)
    # the step's map is taken, and kept on the projector that is returned
    assert residual_decomposition(proj) is proj
    # centred at the history's own prediction, where the new residual is 0
    assert proj.reference == 4.0
    assert np.allclose(proj.offset, [0.0, 0.0])
    assert np.allclose(proj.slope, [-0.5, 0.5])
    assert np.allclose(proj.residuals(0.0), [2.0, -2.0])


def test_decomposition_reconstructs_direct_residuals():
    rng = np.random.default_rng(11)
    design = np.column_stack([np.ones(6), rng.normal(size=(6, 2))])
    fixed = rng.normal(size=5)
    proj = step_projector(design, fixed, 0.01)
    for y in (-3.0, 0.0, 7.0):
        direct = oracles.residuals_direct(design, 0.01, np.append(fixed, y))
        assert np.allclose(proj.residuals(y), direct, atol=1e-10)


def test_projector_matches_explicit_matrix():
    rng = np.random.default_rng(3)
    for ridge in (0.0, 0.01, 1.0, 100.0):
        design = np.column_stack([np.ones(8), rng.normal(size=(8, 3))])
        matrix = oracles.projection_matrix(design, ridge)
        probe = rng.normal(size=8)
        proj = step_projector(design, probe[:-1], ridge)
        assert np.allclose(proj.residuals(probe[-1]), matrix @ probe, atol=1e-10)


def test_projection_is_symmetric_and_idempotent_without_ridge():
    rng = np.random.default_rng(5)
    design = np.column_stack([np.ones(7), rng.normal(size=(7, 2))])
    matrix = oracles.projection_matrix(design, 0.0)
    assert np.allclose(matrix, matrix.T, atol=1e-10)
    assert np.allclose(matrix @ matrix, matrix, atol=1e-8)


def test_ridge_shrinks_fitted_values_monotonically():
    rng = np.random.default_rng(9)
    design = np.column_stack([np.ones(12), rng.normal(size=(12, 3))])
    responses = rng.normal(size=12)
    lengths = []
    for ridge in (0.0, 0.01, 1.0, 100.0):
        proj = step_projector(design, responses[:-1], ridge)
        fitted = responses - proj.residuals(responses[-1])
        lengths.append(float(np.linalg.norm(fitted)))
    assert all(a >= b - 1e-12 for a, b in zip(lengths, lengths[1:]))


def test_rank_deficiency_detected_only_without_ridge():
    design = np.column_stack([np.ones(5), np.arange(5.0), 2.0 * np.arange(5.0)])
    with pytest.raises(RankDeficiencyError):
        step_projector(design, np.zeros(4), 0.0)
    step_projector(design, np.zeros(4), 0.01)  # ridge regularizes the same matrix


def test_underflow_ridge_still_reports_deficiency():
    # a ridge too small to register against the gram's scale leaves the
    # normal matrix singular; the typed error must surface, not a raw
    # library exception
    rng = np.random.default_rng(2)
    design = np.column_stack([np.ones(2), rng.normal(size=(2, 2))])
    with pytest.raises(RankDeficiencyError):
        step_projector(design, np.zeros(1), 5e-95)


def test_wide_design_needs_ridge():
    rng = np.random.default_rng(2)
    design = np.column_stack([np.ones(3), rng.normal(size=(3, 10))])
    with pytest.raises(RankDeficiencyError):
        step_projector(design, np.zeros(2), 0.0)
    proj = step_projector(design, np.zeros(2), 0.01)
    assert proj.row_count == 3


def test_step_arguments_must_fit_the_design():
    rng = np.random.default_rng(4)
    head = np.column_stack([np.ones(6), rng.normal(size=(6, 2))])
    history = History.from_observations(
        Observation(row[1:], float(y)) for row, y in zip(head, rng.normal(size=6))
    )
    good = dict(
        new_row=np.array([1.0, 0.5, -0.5]),
        factor=PendingFactor(history.triangular_factor(0.01)),
        responses=history.responses,
    )
    RidgeProjector(head, **good)
    for name, bad in (
        ("new_row", np.array([1.0, 0.5])),
        ("factor", PendingFactor(history.triangular_factor(0.01, 2))),
        ("responses", history.responses[:-1]),
    ):
        with pytest.raises(ValueError):
            RidgeProjector(head, **{**good, name: bad})


def test_row_in_a_direction_the_others_lack_keeps_full_accuracy():
    # the earlier rows leave one direction to the small ridge alone, so the
    # last row's leverage against them is huge; a rank-one (Sherman-Morrison)
    # update of their inverse would cancel to about 1e-7 here
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for ridge in (1e-8, 1e-6):
            design = np.column_stack([np.ones(3), rng.normal(size=(3, 3))])
            design[:2, 3] = 0.0
            fixed = rng.normal(size=2)
            proj = step_projector(design, fixed, ridge)
            for y in (-2.0, 0.0, 1.5):
                expected = oracles.residuals_direct(design, ridge, np.append(fixed, y))
                np.testing.assert_allclose(proj.residuals(y), expected, rtol=0, atol=1e-9)


def test_t_quantile_one_degree_matches_arctangent_form():
    # the two-sided level 0.05 is the upper 0.025 quantile
    (quantile, center) = two_sided_quantiles(1, (0.05, 1.0))
    assert quantile == pytest.approx(oracles.cauchy_upper_quantile(0.025), rel=1e-7)
    assert abs(quantile - 12.70620) < 1e-4
    assert center == pytest.approx(0.0, abs=1e-12)


def test_t_quantile_large_degrees_approach_normal():
    (quantile,) = two_sided_quantiles(10**6, (0.05,))
    assert quantile == pytest.approx(oracles.normal_upper_quantile(0.025), abs=1e-3)


@pytest.mark.parametrize("df", [1, 2, 5, 30, 200])
def test_quantile_inverts_cdf(df):
    # the tail is inverted through the symmetry, so no precision is lost to
    # packing probabilities near 1, down to tails far below 1e-10
    values = np.linspace(0.0, 50.0, 12)
    tails = stdtr(df, -values)
    kept = tails > 0.0
    quantiles = two_sided_quantiles(df, 2.0 * tails[kept])
    np.testing.assert_allclose(quantiles, values[kept], rtol=0, atol=1e-8)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=3),
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_decomposition_is_affine_in_the_candidate(n, k, ridge, seed):
    # a ridge below the gram's underflow scale cannot rescue a deficient
    # design, so draws are either exactly zero or comfortably positive
    rng = np.random.default_rng(seed)
    design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
    if ridge == 0.0 and n <= k + 1:
        ridge = 0.5
    fixed = rng.normal(size=n - 1)
    proj = step_projector(design, fixed, ridge)
    for y in (-2.0, 0.0, 1.5):
        expected = oracles.residuals_direct(design, ridge, np.append(fixed, y))
        assert np.allclose(proj.offset + (y - proj.reference) * proj.slope, expected, atol=1e-9)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 0.01, 1.0]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# ill-conditioned ridge-0 designs near n = cols, where an oracle that solves
# with the Gram matrix loses the 1e-9 gate
@example(k=4, ridge=0.0, scheduled=True, seed=578384)
@example(k=2, ridge=0.0, scheduled=True, seed=3205787700)
def test_history_factor_projector_matches_direct_residuals(k, ridge, scheduled, seed):
    # one history grows row by row and is asked for its factor at every
    # step, as in an on-line run; the schedule (if any) switches from one
    # feature to all k mid-stream, so some steps truncate the factor
    rng = np.random.default_rng(seed)
    schedule = FeatureSchedule(1, int(rng.integers(2, k + 5)), k) if scheduled else None
    features = rng.normal(size=(k + 5, k))
    responses = rng.normal(size=k + 5)
    history = History(k)
    for n in range(2, k + 6):
        history.append(Observation(features[n - 2], responses[n - 2]))
        cols = (schedule.active_features(n) if schedule else k) + 1
        row = np.concatenate([[1.0], features[n - 1, : cols - 1]])
        design = np.vstack([history.design_matrix[:, :cols], row])
        if ridge == 0.0 and n <= cols:
            # the history's n - 1 rows cannot have rank cols
            with pytest.raises(RankDeficiencyError):
                _step_projector(history, features[n - 1], ridge, schedule)
            continue
        projector = _step_projector(history, features[n - 1], ridge, schedule)
        for y in (-2.0, 0.0, 1.5):
            completed = np.append(history.responses, y)
            expected = oracles.residuals_direct(design, ridge, completed)
            np.testing.assert_allclose(projector.residuals(y), expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("ridge", [0.0, 1e-8, 0.01, 1.0])
@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_step_decomposition_matches_the_explicit_projector(ridge, shift):
    # the IID step's map, read from the history's kept factor by three
    # triangular solves and centred at the history's own prediction,
    # against the explicit n x n projector; a schedule truncates the width
    # for the early steps, and the responses may sit far from zero
    k = 4
    rng = np.random.default_rng(int(ridge * 1e8) + int(shift))
    features = rng.normal(size=(k + 16, k))
    responses = features @ rng.normal(size=k) + rng.normal(size=k + 16) + shift
    schedule = FeatureSchedule(2, k + 5, k)
    history = History(k)
    checked = 0
    for n in range(2, k + 17):
        history.append(Observation(features[n - 2], responses[n - 2]))
        cols = schedule.active_features(n) + 1
        if ridge == 0.0 and n <= cols:
            continue  # the fit interpolates; the predictor abstains here
        projector = _step_projector(history, features[n - 1], ridge, schedule)
        design = np.column_stack([np.ones(n), features[:n, : cols - 1]])
        _, slope = oracles.affine_residuals(design, ridge, history.responses)
        np.testing.assert_allclose(projector.slope, slope, rtol=0, atol=1e-9)
        assert projector.offset[-1] == 0.0  # centred at the prediction yhat
        for u in (-2.0, 0.0, 1.5):
            y = projector.reference + u
            expected = oracles.residuals_direct(design, ridge, np.append(history.responses, y))
            # the explicit projector rounds at eps * n * |responses| itself
            atol = 1e-9 + 1e-14 * shift
            np.testing.assert_allclose(projector.residuals(y), expected, rtol=0, atol=atol)
        checked += 1
    assert checked >= 10
