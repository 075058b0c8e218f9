"""Rows pending beside a kept factor, and the corrected reads of them.

A kept factor at least ``WIDTH_FLOOR`` columns wide leaves the rows
appended since its last absorb pending beside it and folds them in by one
``dtpqrt`` call per block (``History.pending_factor``).  These tests set the
floor to 0, so that narrow histories take that path too, and check every
corrected read against a fresh factor of all the rows, that
``triangular_factor`` still returns the exact triangle, and how many absorb
calls each factor makes.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import olreg.base
from olreg import (
    FeatureSchedule,
    History,
    IidGaussPredictor,
    MonteCarloConfig,
    Observation,
    SyntheticConfig,
    gen_synthetic,
)
from olreg.base import ABSORB_BLOCK, LEVERAGE_BOUND, PendingFactor
from olreg.predictors import GaussPredictor, IidPredictor, MvaPredictor, _step_projector


@pytest.fixture
def no_floor(monkeypatch):
    monkeypatch.setattr(olreg.base, "WIDTH_FLOOR", 0)


def close(got, want, scale, tolerance):
    """|got - want| within ``tolerance`` times ``scale``, entry by entry."""
    np.testing.assert_allclose(got, want, rtol=0, atol=tolerance * scale)


def compare_reads(history, ridge, cols, rng, tolerance):
    """The corrected reads of ``history``'s factor against a fresh factor of
    the same rows; returns the number of rows pending beside it."""
    factor = history.pending_factor(ridge, cols)
    fresh_history = History.from_arrays(history.features, history.responses)
    fresh = PendingFactor(fresh_history.triangular_factor(ridge, cols))
    design = history.design_matrix[:, :cols]
    y_scale = np.linalg.norm(history.responses)
    # the fit, through the fitted values, which the conditioning of the
    # coefficients themselves does not blur
    close(design @ factor.coefficients(), design @ fresh.coefficients(), y_scale, tolerance)
    assert factor.response_norm() == pytest.approx(fresh.response_norm(), rel=1e-12)
    if ridge == 0.0:
        assert abs(factor.residual_norm() - fresh.residual_norm()) <= tolerance * y_scale
    near = history.features[-3:, : cols - 1] + rng.normal(size=(3, cols - 1))
    z = np.column_stack([np.ones(3), near])
    got, want = factor.whiten(z.T), fresh.whiten(z.T)
    assert want[1].size == 0
    leverage = (got[0] ** 2).sum(axis=0) - (got[1] ** 2).sum(axis=0)
    np.testing.assert_allclose(leverage, (want[0] ** 2).sum(axis=0), rtol=tolerance)
    solved, reference = design @ factor.solve(*got), design @ fresh.solve(*want)
    close(solved, reference, np.linalg.norm(reference), tolerance)
    return factor.pending


def compare_steps(history, fresh, x, ridge, schedule, tolerance):
    """The IID, MVA and Gauss steps of a history with pending rows against
    those of a fresh one."""
    n = len(history) + 1
    mva = MvaPredictor(ridge, schedule)
    got, want = mva.step(history, x), mva.step(fresh, x)
    if want is not None:
        scale = abs(want.last_slope) + abs(want.center)
        assert abs(got.center - want.center) <= tolerance * (1.0 + scale)
        assert got.last_slope == pytest.approx(want.last_slope, rel=tolerance, abs=tolerance)
        # the energy at its least: the step's forms must agree where they
        # matter, relative to the energy's own size
        energy = want.head_aa + abs(want.head_ab) + want.head_bb
        for form in ("head_aa", "head_ab", "head_bb"):
            assert abs(getattr(got, form) - getattr(want, form)) <= tolerance * energy
    if ridge > 0.0 or n > history.feature_count + 2:
        got = _step_projector(history, x, ridge, schedule)
        want = _step_projector(fresh, x, ridge, schedule)
        assert got.reference == pytest.approx(want.reference, rel=tolerance, abs=tolerance)
        assert got._shrink == pytest.approx(want._shrink, rel=tolerance)
    if GaussPredictor().can_bound(n, history.feature_count, ()):
        got, want = GaussPredictor().step(history, x), GaussPredictor().step(fresh, x)
        assert got.sigma_hat == pytest.approx(want.sigma_hat, rel=tolerance, abs=tolerance)
        assert got.leverage == pytest.approx(want.leverage, rel=tolerance)
        assert got.point_prediction == pytest.approx(
            want.point_prediction, rel=tolerance, abs=tolerance
        )


def compare_block_steps(history, fresh, x, ridge, schedule, tolerance):
    """A block step of two rows after a history with pending rows against
    the block step after a fresh one."""
    block = np.array([x, 0.5 * x])
    mva = MvaPredictor(ridge, schedule)
    got, want = mva.step(history, block), mva.step(fresh, block)
    if want is not None:
        center = np.abs(want.center) + np.abs(want.last_slope)
        assert np.all(np.abs(got.center - want.center) <= tolerance * (1.0 + center))
        np.testing.assert_allclose(got.last_slope, want.last_slope, rtol=tolerance, atol=tolerance)
        energy = want.head_aa + np.abs(want.head_ab) + want.head_bb
        for form in ("head_aa", "head_ab", "head_bb"):
            assert np.all(np.abs(getattr(got, form) - getattr(want, form)) <= tolerance * energy)
    if GaussPredictor().can_bound(len(history) + 1, history.feature_count, ()):
        got, want = GaussPredictor().step(history, block), GaussPredictor().step(fresh, block)
        np.testing.assert_allclose(got.leverage, want.leverage, rtol=tolerance)


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(min_value=1, max_value=6),
    ridge=st.sampled_from([0.0, 0.01]),
    scheduled=st.booleans(),
    outliers=st.booleans(),
    shift=st.sampled_from([0.0, 1e6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_corrected_reads_match_a_fresh_factor(k, ridge, scheduled, outliers, shift, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(olreg.base, "WIDTH_FLOOR", 0)
        rng = np.random.default_rng(seed)
        count = 3 * k + 50
        features = rng.normal(size=(count, k))
        if outliers:
            # rows far out along one feature: their leverage against the
            # kept triangle trips the guard
            far = rng.random(count) < 0.1
            features[far, rng.integers(0, k)] *= 300.0
        responses = features @ rng.normal(size=k) + rng.normal(size=count) + 0.5 * shift
        features = features + shift
        schedule = FeatureSchedule(max(1, k // 2), k + 6, k) if scheduled else None
        # conditioning grows with the shift, on the fresh route as on this one
        tolerance = 1e-9 if shift == 0.0 else 1e-4
        history, pending = History(k), 0
        for i in range(count - 1):
            history.append(Observation(features[i], responses[i]))
            n = i + 2
            cols = (schedule.active_features(n) if schedule else k) + 1
            if len(history) < cols + 2:
                continue
            # the reads first: a rank rule that the carried certificate does
            # not settle absorbs every pending row
            pending = max(pending, compare_reads(history, ridge, cols, rng, tolerance))
            if history.design_has_full_rank(ridge, cols):
                fresh = History.from_arrays(history.features, history.responses)
                compare_steps(history, fresh, features[i + 1], ridge, schedule, tolerance)
                compare_block_steps(history, fresh, features[i + 1], ridge, schedule, tolerance)
        # rows were pending at some step, so the corrected reads were checked
        assert pending > 0


def test_triangular_factor_absorbs_the_pending_rows_as_one_at_a_time_would(no_floor):
    rng = np.random.default_rng(31)
    features, responses = rng.normal(size=(45, 4)), rng.normal(size=45)
    blocks, single = History(4), History(4)
    for row, y in zip(features, responses):
        blocks.append(Observation(row, y))
        single.append(Observation(row, y))
        blocks.pending_factor(0.01)
        single.triangular_factor(0.01)
    assert blocks.pending_factor(0.01).pending > 0
    got = blocks.triangular_factor(0.01)
    want = single.triangular_factor(0.01)
    # each update may flip the signs of the triangle's rows, which any QR
    # leaves free; R'R is the same
    signs = np.sign(np.diag(got)) * np.sign(np.diag(want))
    close(signs[:, None] * got, want, np.linalg.norm(want), 1e-12)
    assert blocks.pending_factor(0.01).pending == 0
    assert blocks.pending_factor(0.01).triangle is got


class Absorb(NamedTuple):
    """One ``absorb_rows`` call: the ridge of the factor it updates (None
    when unknown), the factor's width, whether the factor starts from no
    rows, the number of rows and their running summed leverage against the
    triangle (None where the triangle cannot whiten them)."""

    ridge: float | None
    width: int
    fresh: bool
    rows: int
    leverage: np.ndarray | None


def count_absorbs(monkeypatch, history=None):
    """The ``Absorb`` record of every ``absorb_rows`` call, with the ridge
    read from ``history``'s factors when it is given."""
    calls = []
    absorb = olreg.base.absorb_rows

    def counted(triangle, rows):
        ridge = None
        if history is not None:
            factors = history._factors.items()
            ridge = next(r for r, entry in factors if entry.triangle is triangle)
        cols = triangle.shape[0] - 1
        whitened, info = lapack.dtrtrs(triangle[:, :cols], rows[:, :cols].T, trans=1)
        leverage = np.cumsum((whitened * whitened).sum(axis=0)) if info == 0 else None
        fresh = not triangle[:, -1].any()
        calls.append(Absorb(ridge, cols, fresh, len(rows), leverage))
        return absorb(triangle, rows)

    monkeypatch.setattr(olreg.base, "absorb_rows", counted)
    return calls


def assert_block_or_guard_trip(call):
    """An absorb call that holds rows pending folds in the rows a new factor
    starts from, a full block (one row past ``ABSORB_BLOCK``, or more for a
    catch-up of many appended rows), rows whose summed leverage passes the
    bound only with the last of them, or rows that the triangle cannot
    whiten."""
    if call.fresh or call.rows > ABSORB_BLOCK or call.leverage is None:
        return
    assert call.leverage[-1] > LEVERAGE_BOUND, call
    assert call.rows == 1 or call.leverage[-2] <= LEVERAGE_BOUND, call


def test_online_iidgauss_touches_no_ridge_triangle(monkeypatch):
    # the sqrt(ridge) shortcut settles the ridge-0.01 rank rule from the
    # column sums of squares, and the carried certificate the ridge-0 one,
    # so the run absorbs only when a certificate is taken
    stream = gen_synthetic(SyntheticConfig(seed=5, observation_count=120, feature_count=5))
    predictor = IidGaussPredictor(ridge=0.01, mc=MonteCarloConfig(samples=49, seed=2))
    history = History(5)
    calls = count_absorbs(monkeypatch, history)
    for observation in stream:
        predictor.step(history, observation.explanatory)
        history.append(observation)
    per_ridge = {ridge: sum(1 for call in calls if call.ridge == ridge) for ridge in (0.0, 0.01)}
    assert 0.01 not in history._factors
    assert per_ridge == {0.0: per_ridge[0.0], 0.01: 0}
    assert 1 <= per_ridge[0.0] <= 3


def test_wide_online_steps_absorb_once_per_block():
    stream = gen_synthetic(SyntheticConfig(seed=3, observation_count=300, feature_count=40))
    schedule = FeatureSchedule.for_feature_count(40)
    for predictor, ridges in (
        (IidPredictor(0.01, schedule), (0.01,)),
        (MvaPredictor(0.01, schedule), (0.0, 0.01)),
        (GaussPredictor(), (0.0,)),
    ):
        history = History(40)
        with pytest.MonkeyPatch.context() as patch:
            calls = count_absorbs(patch, history)
            for observation in stream:
                predictor.step(history, observation.explanatory)
                history.append(observation)
        for ridge in ridges:
            wide = [call for call in calls if call.ridge == ridge and call.width == 41]
            # one call per block or guard trip, not one per step
            assert len(wide) <= len(stream) // 4
            for call in wide:
                assert_block_or_guard_trip(call)
