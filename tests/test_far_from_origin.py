"""Data far from the origin and ridge-0 equivariance: mapped responses and
shifted features.

Each case compares a history whose responses or features are mapped (y ->
scale * y + offset, x -> x + c) with the history of the values that the
mapped floats represent ((v + c) - c exactly, or (w - offset) / scale), so
any difference is the predictor's own rounding.
"""

import numpy as np
import pytest

from olreg import (
    History,
    IidGaussPredictor,
    Observation,
    RankDeficiencyError,
    RegressionSummary,
    gauss_fit,
    gauss_score,
    iid_predict,
    iidgauss_predict,
    mva_predict,
    mva_score,
)
from olreg.sampler import IidGaussSummary, sample_conditional

LEVELS = (0.05, 0.01)

# ridge-0 predictors are equivariant under y -> scale * y + offset
RESPONSE_MAPS = [(1e-6, 0.0), (1e6, 0.0), (-3.0, 0.0), (1e6, 1e9)]


def history_of(features, responses):
    return History.from_observations(Observation(x, float(y)) for x, y in zip(features, responses))


def summary_of(features, responses):
    return RegressionSummary.from_history(history_of(features, responses))


def iidgauss_intervals(history, x, levels=LEVELS, ridge=0.0):
    return iidgauss_predict(IidGaussPredictor(ridge=ridge).step(history, x), levels)


def instance(seed):
    """A 60 x 5 Gaussian-linear history plus one new observation."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(61, 5))
    responses = features @ np.arange(1.0, 6.0) + rng.normal(size=61)
    return features[:60], responses[:60], features[60], responses[60]


def assert_moved(moved, base, offset, tolerance, scale=1.0):
    """Each interval is its reference mapped by y -> scale * y + offset."""
    for got, ref in zip(moved, base):
        assert ref.is_bounded and not ref.is_empty
        width = abs(scale) * ref.length
        lower, upper = sorted((scale * ref.lower + offset, scale * ref.upper + offset))
        assert abs(got.lower - lower) <= tolerance * width, (got, ref)
        assert abs(got.upper - upper) <= tolerance * width, (got, ref)


@pytest.mark.parametrize("predict", [mva_predict, iid_predict])
def test_response_shift_moves_the_interval_exactly(predict):
    # at 1e9 the MVA quadratic's coefficients used to scale like the
    # shift squared and cancel, leaving an empty set at level 0.05
    features, responses, x, _ = instance(3)
    shifted = responses + 1e9
    base = predict(history_of(features, shifted - 1e9), x, LEVELS[:1], ridge=0.0)
    moved = predict(history_of(features, shifted), x, LEVELS[:1], ridge=0.0)
    assert_moved(moved, base, 1e9, 1e-6)


@pytest.mark.parametrize("scale,offset", RESPONSE_MAPS)
@pytest.mark.parametrize("predict", [mva_predict, iid_predict, iidgauss_intervals])
def test_response_affine_map_moves_the_interval(predict, scale, offset):
    features, responses, x, _ = instance(3)
    moved = scale * responses + offset
    # the reference fits the responses that the mapped floats represent
    represented = (moved - offset) / scale
    base = predict(history_of(features, represented), x, LEVELS[:1], ridge=0.0)
    got = predict(history_of(features, moved), x, LEVELS[:1], ridge=0.0)
    assert_moved(got, base, offset, 1e-6, scale)


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
    score = gauss_score(RegressionSummary.from_history(history), observation)
    assert score == pytest.approx(pivot, rel=1e-6)


@pytest.mark.parametrize("scale,offset", RESPONSE_MAPS + [(1.0, 1e9)])
def test_summary_scores_follow_a_response_affine_map(scale, offset):
    # the pivot is unchanged and the centered score takes the sign of the
    # scale; summaries of Gram moments cancelled at y + 1e9 to a false zero
    # residual spread
    features, responses, x, y = instance(0)
    moved = scale * responses + offset
    moved_new = Observation(x, scale * y + offset)
    summary = summary_of(features, moved)
    reference = summary_of(features, (moved - offset) / scale)
    new = Observation(x, (moved_new.response - offset) / scale)
    assert gauss_score(summary, moved_new) == pytest.approx(gauss_score(reference, new), rel=1e-6)
    assert mva_score(summary, moved_new) == pytest.approx(
        np.sign(scale) * mva_score(reference, new), rel=1e-6
    )


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
    # x + 1e3 and x + 1e4 give design condition numbers near 5e6 and 5e8,
    # far inside the least-squares rank rule; read from the summary's
    # triangle the score keeps full accuracy, where a Cholesky factor of the
    # Gram moments refused the 1e4 shift
    features, responses, x, y = instance(0)
    for shift in (1e3, 1e4):
        shifted, x_shifted = features + shift, x + shift
        base = mva_score(
            summary_of(shifted - shift, responses), Observation(x_shifted - shift, y)
        )
        moved = mva_score(summary_of(shifted, responses), Observation(x_shifted, y))
        assert moved == pytest.approx(base, rel=1e-6)


def test_summary_centered_score_past_the_rank_cutoff_raises():
    # x3 = x1 + x2 in every summarized row and in the new one
    features, responses, x, y = instance(0)
    features[:, 2] = features[:, 0] + features[:, 1]
    x[2] = x[0] + x[1]
    summary = summary_of(features, responses)
    for score in (gauss_score, mva_score):
        with pytest.raises(RankDeficiencyError):
            score(summary, Observation(x, y))
