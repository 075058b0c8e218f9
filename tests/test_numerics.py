"""Projection, residual-decomposition, and Student-t plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from olreg import (
    FeatureSchedule,
    History,
    Observation,
    RankDeficiencyError,
    RidgeProjector,
    residual_decomposition,
)
from olreg.numerics import StudentT


def ones_design(n):
    return np.ones((n, 1))


def test_ones_column_residuals_center_the_responses():
    proj = RidgeProjector(ones_design(2), 0.0)
    assert np.allclose(proj.residuals([1.0, 1.0]), [0.0, 0.0])
    assert np.allclose(proj.residuals([0.0, 2.0]), [-1.0, 1.0])


def test_single_row_with_ridge_keeps_part_of_the_response():
    proj = RidgeProjector(ones_design(1), 1.0)
    # I - 1/(1+1) = 1/2, applied to y = 2
    assert np.allclose(proj.residuals([2.0]), [1.0])


def test_decomposition_on_two_ones_rows():
    proj = RidgeProjector(ones_design(2), 0.0)
    dec = residual_decomposition(proj, [4.0])
    assert np.allclose(dec.offset, [2.0, -2.0])
    assert np.allclose(dec.slope, [-0.5, 0.5])


def test_decomposition_reconstructs_direct_residuals():
    rng = np.random.default_rng(11)
    design = np.column_stack([np.ones(6), rng.normal(size=(6, 2))])
    fixed = rng.normal(size=5)
    proj = RidgeProjector(design, 0.01)
    dec = residual_decomposition(proj, fixed)
    for y in (-3.0, 0.0, 7.0):
        direct = oracles.residuals_direct(design, 0.01, np.append(fixed, y))
        assert np.allclose(dec.residuals_at(y), direct, atol=1e-10)


def test_projector_matches_explicit_matrix():
    rng = np.random.default_rng(3)
    for ridge in (0.0, 0.01, 1.0, 100.0):
        design = np.column_stack([np.ones(8), rng.normal(size=(8, 3))])
        matrix = oracles.projection_matrix(design, ridge)
        proj = RidgeProjector(design, ridge)
        probe = rng.normal(size=8)
        assert np.allclose(proj.apply(probe), matrix @ probe, atol=1e-10)


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
    norms = []
    for ridge in (0.0, 0.01, 1.0, 100.0):
        proj = RidgeProjector(design, ridge)
        fitted = responses - proj.residuals(responses)
        norms.append(float(np.linalg.norm(design @ proj.coefficients(responses) - fitted)))
        # fitted values computed two ways must agree
        assert norms[-1] < 1e-8
    lengths = []
    for ridge in (0.0, 0.01, 1.0, 100.0):
        proj = RidgeProjector(design, ridge)
        lengths.append(float(np.linalg.norm(design @ proj.coefficients(responses))))
    assert all(a >= b - 1e-12 for a, b in zip(lengths, lengths[1:]))


def test_rank_deficiency_detected_only_without_ridge():
    design = np.column_stack([np.ones(5), np.arange(5.0), 2.0 * np.arange(5.0)])
    with pytest.raises(RankDeficiencyError):
        RidgeProjector(design, 0.0)
    RidgeProjector(design, 0.01)  # ridge regularizes the same matrix


def test_underflow_ridge_still_reports_deficiency():
    # a ridge too small to register against the gram's scale leaves the
    # normal matrix singular; the typed error must surface, not a raw
    # library exception
    rng = np.random.default_rng(2)
    design = np.column_stack([np.ones(2), rng.normal(size=(2, 2))])
    with pytest.raises(RankDeficiencyError):
        RidgeProjector(design, 5e-95)


def test_wide_design_needs_ridge():
    rng = np.random.default_rng(2)
    design = np.column_stack([np.ones(3), rng.normal(size=(3, 10))])
    with pytest.raises(RankDeficiencyError):
        RidgeProjector(design, 0.0)
    proj = RidgeProjector(design, 0.01)
    assert proj.row_count == 3


def test_step_arguments_must_fit_the_design():
    rng = np.random.default_rng(4)
    head = np.column_stack([np.ones(6), rng.normal(size=(6, 2))])
    history = History.from_observations(
        Observation(row[1:], float(y)) for row, y in zip(head, rng.normal(size=6))
    )
    good = dict(
        new_row=np.array([1.0, 0.5, -0.5]),
        factor=history.triangular_factor(0.01),
        responses=history.responses,
    )
    RidgeProjector(head, 0.01, **good)
    for name, bad in (
        ("new_row", np.array([1.0, 0.5])),
        ("factor", history.triangular_factor(0.01, 2)),
        ("responses", history.responses[:-1]),
    ):
        with pytest.raises(ValueError):
            RidgeProjector(head, 0.01, **{**good, name: bad})


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
            dec = residual_decomposition(RidgeProjector(design, ridge), fixed)
            for y in (-2.0, 0.0, 1.5):
                expected = oracles.residuals_direct(design, ridge, np.append(fixed, y))
                np.testing.assert_allclose(dec.residuals_at(y), expected, rtol=0, atol=1e-9)


def test_t_quantile_one_degree_matches_arctangent_form():
    dist = StudentT(1)
    assert dist.upper_quantile(0.025) == pytest.approx(
        oracles.cauchy_upper_quantile(0.025), rel=1e-7
    )
    assert abs(dist.upper_quantile(0.025) - 12.70620) < 1e-4
    assert dist.upper_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_t_quantile_large_degrees_approach_normal():
    dist = StudentT(10**6)
    assert dist.upper_quantile(0.025) == pytest.approx(
        oracles.normal_upper_quantile(0.025), abs=1e-3
    )


@pytest.mark.parametrize("df", [1, 2, 5, 30, 200])
def test_quantile_inverts_cdf(df):
    # each tail is inverted on its own side; the upper side goes through
    # the symmetry so no precision is lost to packing probabilities near 1
    dist = StudentT(df)
    for value in np.linspace(-50.0, 0.0, 12):
        probability = dist.cdf(value)
        if probability > 0.0:
            assert dist.quantile(probability) == pytest.approx(value, abs=1e-8)
    for value in np.linspace(0.0, 50.0, 12):
        tail = dist.cdf(-value)
        if tail > 0.0:
            assert dist.upper_quantile(tail) == pytest.approx(value, abs=1e-8)


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
    proj = RidgeProjector(design, ridge)
    dec = residual_decomposition(proj, fixed)
    for y in (-2.0, 0.0, 1.5):
        expected = oracles.residuals_direct(design, ridge, np.append(fixed, y))
        assert np.allclose(dec.offset + y * dec.slope, expected, atol=1e-9)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 0.01, 1.0]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
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
        arguments = dict(
            new_row=row,
            factor=history.triangular_factor(ridge, cols),
            responses=history.responses,
            reference=float(history.responses.mean()),
        )
        if ridge == 0.0 and n < cols:
            with pytest.raises(RankDeficiencyError):
                RidgeProjector(history.design_matrix[:, :cols], ridge, **arguments)
            continue
        projector = RidgeProjector(history.design_matrix[:, :cols], ridge, **arguments)
        dec = residual_decomposition(projector, history.responses)
        for y in (-2.0, 0.0, 1.5):
            completed = np.append(history.responses, y)
            expected = oracles.residuals_direct(design, ridge, completed)
            np.testing.assert_allclose(dec.residuals_at(y), expected, rtol=0, atol=1e-9)
            np.testing.assert_allclose(projector.residuals(completed), expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_shift_of_the_last_response_alone_gives_the_full_product(ridge):
    # a step's realized residuals move only the new row's response away from
    # the reference; the coefficients skip the product with the other rows
    # and must equal the ones the full product gives
    rng = np.random.default_rng(9)
    features, responses = rng.normal(size=(30, 4)), rng.normal(size=30)
    history = History.from_observations(
        Observation(x, y) for x, y in zip(features, responses)
    )
    row = np.concatenate([[1.0], rng.normal(size=4)])
    reference = float(responses.mean())
    projector = RidgeProjector(
        history.design_matrix, ridge, new_row=row,
        factor=history.triangular_factor(ridge), responses=responses, reference=reference,
    )
    base = projector.coefficients(np.append(responses, reference))
    for y in (-3.0, reference + 1e-9, 7.5):
        shift = np.zeros(31)
        shift[-1] = y - reference
        moments = history.design_matrix.T @ shift[:-1] + shift[-1] * row
        expected = base + projector.solve(moments)
        assert np.array_equal(projector.coefficients(np.append(responses, y)), expected)
