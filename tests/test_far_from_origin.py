"""Data far from the origin: shifted responses and features at ridge 0.

Each case compares a history whose responses or features sit far from zero
with the history of the values that the shifted floats represent exactly
((v + c) - c), so any difference is the predictor's own rounding.
"""

import numpy as np
import pytest

from olreg import (
    GaussSummary,
    History,
    IidGaussPredictor,
    MvaSummary,
    Observation,
    RankDeficiencyError,
    gauss_fit,
    gauss_score,
    iid_predict,
    iidgauss_predict,
    mva_predict,
    mva_score,
)
from olreg.sampler import IidGaussSummary, sample_conditional

LEVELS = (0.05, 0.01)


def history_of(features, responses):
    return History.from_observations(Observation(x, float(y)) for x, y in zip(features, responses))


def iidgauss_intervals(history, x):
    return iidgauss_predict(IidGaussPredictor().step(history, x), LEVELS)


def instance(seed):
    """A 60 x 5 Gaussian-linear history plus one new observation."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(61, 5))
    responses = features @ np.arange(1.0, 6.0) + rng.normal(size=61)
    return features[:60], responses[:60], features[60], responses[60]


def assert_moved(moved, base, offset, tolerance):
    for got, ref in zip(moved, base):
        assert ref.is_bounded and not ref.is_empty
        width = ref.length
        assert abs(got.lower - (ref.lower + offset)) <= tolerance * width, (got, ref)
        assert abs(got.upper - (ref.upper + offset)) <= tolerance * width, (got, ref)


@pytest.mark.parametrize("predict", [mva_predict, iid_predict])
def test_response_shift_moves_the_interval_exactly(predict):
    # at 1e9 the MVA quadratic's coefficients used to scale like the
    # shift squared and cancel, leaving an empty set at level 0.05
    features, responses, x, _ = instance(3)
    shifted = responses + 1e9
    base = predict(history_of(features, shifted - 1e9), x, LEVELS[:1], ridge=0.0)
    moved = predict(history_of(features, shifted), x, LEVELS[:1], ridge=0.0)
    assert_moved(moved, base, 1e9, 1e-6)


@pytest.mark.parametrize("predict", [mva_predict, iid_predict])
def test_feature_shift_keeps_full_rank_and_the_interval(predict):
    # x + 1e3 gives a design condition number near 2e6, far inside the
    # least-squares rank rule; the squared Gram used to fall below its floor
    features, responses, x, _ = instance(3)
    shifted, x_shifted = features + 1e3, x + 1e3
    base = predict(history_of(shifted - 1e3, responses), x_shifted - 1e3, LEVELS[:1], ridge=0.0)
    moved = predict(history_of(shifted, responses), x_shifted, LEVELS[:1], ridge=0.0)
    assert_moved(moved, base, 0.0, 1e-6)


def test_summary_pivot_at_a_feature_shift_matches_the_factor_fit():
    features, responses, x, y = instance(0)
    history = history_of(features + 1e3, responses)
    observation = Observation(x + 1e3, y)
    fit = gauss_fit(history, observation.explanatory)
    pivot = abs(y - fit.point_prediction) / (fit.sigma_hat * np.sqrt(1.0 + fit.leverage))
    score = gauss_score(GaussSummary.from_history(history), observation)
    assert score == pytest.approx(pivot, rel=1e-6)


def test_iidgauss_search_is_measured_from_the_center():
    # the Monte-Carlo search bound (1e6) used to be measured from zero, so
    # responses near 5e6 gave the whole line
    features, responses, x, _ = instance(3)
    shifted = responses + 5e6
    base = iidgauss_intervals(history_of(features, shifted - 5e6), x)
    moved = iidgauss_intervals(history_of(features, shifted), x)
    assert_moved(moved, base, 5e6, 1e-2)


def test_iidgauss_radius_keeps_full_accuracy_at_a_response_shift():
    # the conditional radius comes from residuals, not from y'y - m'b,
    # which cancels at y'y ~ 1e15 and moves this interval by 9e-4 of its width
    features, responses, x, _ = instance(3)
    shifted = responses + 5e6
    base = iidgauss_intervals(history_of(features, shifted - 5e6), x)
    moved = iidgauss_intervals(history_of(features, shifted), x)
    assert_moved(moved, base, 5e6, 1e-6)


def test_iidgauss_feature_shift_keeps_full_rank_and_the_interval():
    # x + 1e3 gives a design condition number near 2e6; the squared Gram's
    # reciprocal condition number (4e-13) used to fail the rank floor
    features, responses, x, _ = instance(3)
    shifted, x_shifted = features + 1e3, x + 1e3
    base = iidgauss_intervals(history_of(shifted - 1e3, responses), x_shifted - 1e3)
    moved = iidgauss_intervals(history_of(shifted, responses), x_shifted)
    assert_moved(moved, base, 0.0, 1e-6)


def test_sampler_at_a_feature_shift_reproduces_the_summary():
    features, responses, _, _ = instance(0)
    summary = IidGaussSummary.from_stream(
        Observation(x, float(y)) for x, y in zip(features + 1e3, responses)
    )
    for sample in sample_conditional(summary, 20, seed=9):
        again = sample.summary()
        assert again.response_sum == pytest.approx(summary.response_sum, rel=1e-8)
        assert np.allclose(again.cross_sum, summary.cross_sum, rtol=1e-8, atol=1e-10)
        assert again.square_sum == pytest.approx(summary.square_sum, rel=1e-8)


def test_summary_centered_score_at_a_feature_shift_matches_the_unshifted_one():
    # x + 1e3 gives a design condition number near 5e6: the rank rule on the
    # Gram's Cholesky factor, at the square root of the least-squares
    # tolerance, keeps it; a fixed floor on the Gram's reciprocal condition
    # number (4e-14 here) used to reject it
    features, responses, x, y = instance(0)
    shifted, x_shifted = features + 1e3, x + 1e3
    base = mva_score(
        MvaSummary.from_history(history_of(shifted - 1e3, responses)),
        Observation(x_shifted - 1e3, y),
    )
    moved = mva_score(MvaSummary.from_history(history_of(shifted, responses)), Observation(x_shifted, y))
    assert moved == pytest.approx(base, rel=1e-6)


def test_summary_centered_score_past_the_rank_cutoff_raises():
    # at x + 1e4 the design condition number is near 5e8, past the cut-off
    features, responses, x, y = instance(0)
    summary = MvaSummary.from_history(history_of(features + 1e4, responses))
    with pytest.raises(RankDeficiencyError):
        mva_score(summary, Observation(x + 1e4, y))
