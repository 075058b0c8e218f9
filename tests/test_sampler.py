"""Summary folding and exact conditional resampling."""

import numpy as np
import pytest
from scipy import stats

from olreg import (
    ConditionalSample,
    IidGaussSummary,
    Observation,
    SummaryMismatchError,
    sample_conditional,
)
from olreg.sampler import complement_directions, random_orderings, update_summary


def stream_of(features, responses):
    return [Observation(x, float(y)) for x, y in zip(features, responses)]


def random_stream(rng, n, k):
    features = rng.normal(size=(n, k))
    responses = rng.normal(size=n)
    return stream_of(features, responses)


def test_fold_matches_batch_construction():
    rng = np.random.default_rng(51)
    stream = random_stream(rng, 12, 3)
    folded = IidGaussSummary.empty(3)
    for obs in stream:
        folded = update_summary(folded, obs)
    batch = IidGaussSummary.from_stream(stream)
    assert np.allclose(folded.features, batch.features, atol=1e-12)
    assert folded.response_sum == pytest.approx(batch.response_sum, rel=1e-12)
    assert np.allclose(folded.cross_sum, batch.cross_sum, rtol=1e-12)
    assert folded.square_sum == pytest.approx(batch.square_sum, rel=1e-12)


def test_fold_is_pure():
    summary = IidGaussSummary.empty(2)
    obs = Observation(np.array([1.0, 2.0]), 3.0)
    update_summary(summary, obs)
    assert summary.count == 0  # the input is untouched
    assert update_summary(summary, obs).count == 1


def test_summary_reports_moments():
    stream = stream_of(np.array([[1.0], [2.0]]), [3.0, 4.0])
    summary = IidGaussSummary.from_stream(stream)
    assert summary.count == 2
    assert summary.feature_count == 1
    assert summary.response_sum == pytest.approx(7.0)
    assert np.allclose(summary.cross_sum, [11.0])
    assert summary.square_sum == pytest.approx(25.0)
    assert summary.design_matrix().shape == (2, 2)


def test_samples_reproduce_the_summary():
    rng = np.random.default_rng(52)
    stream = random_stream(rng, 20, 3)
    summary = IidGaussSummary.from_stream(stream)
    for sample in sample_conditional(summary, 50, seed=9):
        again = sample.summary()
        assert np.allclose(
            np.sort(again.features.ravel()), np.sort(summary.features.ravel()), atol=1e-12
        )
        assert again.response_sum == pytest.approx(summary.response_sum, rel=1e-8)
        assert np.allclose(again.cross_sum, summary.cross_sum, rtol=1e-8, atol=1e-10)
        assert again.square_sum == pytest.approx(summary.square_sum, rel=1e-8)


def test_sampling_is_deterministic_in_the_seed():
    rng = np.random.default_rng(53)
    summary = IidGaussSummary.from_stream(random_stream(rng, 10, 2))
    first = sample_conditional(summary, 5, seed=4)
    second = sample_conditional(summary, 5, seed=4)
    for a, b in zip(first, second):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.responses, b.responses)
    shifted = sample_conditional(summary, 5, seed=5)
    assert not all(
        np.array_equal(a.responses, b.responses) for a, b in zip(first, shifted)
    )


def test_each_sample_owns_its_stream():
    # sample i is the same whether or not earlier samples were drawn
    rng = np.random.default_rng(54)
    summary = IidGaussSummary.from_stream(random_stream(rng, 8, 1))
    ten = sample_conditional(summary, 10, seed=77)
    three = sample_conditional(summary, 3, seed=77)
    for a, b in zip(three, ten):
        assert np.array_equal(a.responses, b.responses)


def test_exactly_interpolated_summary_returns_fitted_responses():
    # two observations, one feature: energy is exactly used up by the fit
    features = np.array([[0.0], [1.0]])
    responses = np.array([1.0, 3.0])
    stream = stream_of(features, responses)
    base = IidGaussSummary.from_stream(stream)
    # K + 2 = 3 observations minimum: extend with a third point
    features = np.array([[0.0], [1.0], [2.0]])
    responses = np.array([1.0, 3.0, 5.0])  # exactly linear
    summary = IidGaussSummary.from_stream(stream_of(features, responses))
    for sample in sample_conditional(summary, 4, seed=1):
        order = np.argsort(sample.features.ravel())
        assert np.allclose(sample.responses[order], [1.0, 3.0, 5.0], atol=1e-7)
    assert base.count == 2


def test_minimal_count_uses_the_two_point_sphere():
    # n = K + 2 leaves a one-dimensional orthocomplement: directions +-v
    rng = np.random.default_rng(55)
    stream = random_stream(rng, 3, 1)
    summary = IidGaussSummary.from_stream(stream)
    samples = sample_conditional(summary, 40, seed=2)
    distinct = {tuple(np.round(s.responses[np.argsort(s.features.ravel())], 9))
                for s in samples}
    # orderings permute the bag, signs flip the residual: finitely many outcomes
    assert 1 < len(distinct) <= 12


def test_inconsistent_summary_is_rejected():
    rng = np.random.default_rng(56)
    stream = random_stream(rng, 9, 2)
    good = IidGaussSummary.from_stream(stream)
    bad = IidGaussSummary(
        good.features,
        good.response_sum,
        good.cross_sum,
        0.0,  # impossible: nonzero moments with no response energy at all
    )
    with pytest.raises(SummaryMismatchError):
        sample_conditional(bad, 1, seed=0)


def test_too_few_observations_rejected():
    rng = np.random.default_rng(57)
    summary = IidGaussSummary.from_stream(random_stream(rng, 3, 2))  # n = K + 1
    with pytest.raises(ValueError):
        sample_conditional(summary, 1, seed=0)
    with pytest.raises(ValueError):
        sample_conditional(IidGaussSummary.from_stream(random_stream(rng, 5, 1)), 0, seed=0)


def test_responses_visit_both_sphere_hemispheres():
    # the empirical mean of the sampled last responses should straddle the
    # fitted value, not sit on one side
    rng = np.random.default_rng(58)
    stream = random_stream(rng, 12, 2)
    summary = IidGaussSummary.from_stream(stream)
    samples = sample_conditional(summary, 300, seed=11)
    residual_signs = []
    for s in samples:
        fit, *_ = np.linalg.lstsq(
            np.column_stack([np.ones(12), s.features]), s.responses, rcond=None
        )
        residual_signs.append(np.sign(s.responses[0] - float(
            np.concatenate([[1.0], s.features[0]]) @ fit
        )))
    share = np.mean(np.array(residual_signs) > 0)
    assert 0.3 < share < 0.7


def test_sample_type_roundtrip():
    sample = ConditionalSample(np.array([[1.0], [2.0]]), np.array([3.0, 4.0]))
    back = sample.summary()
    assert back.count == 2
    assert back.square_sum == pytest.approx(25.0)


@pytest.mark.parametrize("n,k", [(4, 2), (9, 6), (5, 2), (8, 3), (40, 5), (61, 30)])
@pytest.mark.parametrize("seed", [0, 1])
def test_last_coordinate_follows_the_sphere_law(n, k, seed):
    # Whatever the random stream, a complement direction read at its last
    # row j is sqrt(1 - h_j) times one coordinate U of a uniform point on the
    # unit sphere of the d = n - K - 1 dimensional complement, where h_j is
    # row j's leverage: (U + 1) / 2 is Beta((d - 1) / 2, (d - 1) / 2) for
    # d >= 2, |U| = 1 for d = 1, and j is uniform over the rows.
    rng = np.random.default_rng(seed)
    design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
    basis, upper = np.linalg.qr(design)
    leverage = np.einsum("ij,ij->i", basis, basis)
    samples = 4000
    orderings = random_orderings(rng, samples, n)
    directions = complement_directions(rng, design, orderings, (upper, False))
    last = orderings[:, -1]
    u = directions[:, -1] / np.sqrt(1.0 - leverage[last])
    d = n - k - 1
    if d == 1:
        np.testing.assert_allclose(np.abs(u), 1.0, rtol=0, atol=1e-12)
    else:
        shape = (d - 1) / 2
        assert stats.kstest((u + 1.0) / 2.0, stats.beta(shape, shape).cdf).pvalue > 1e-6
    assert stats.chisquare(np.bincount(last, minlength=n)).pvalue > 1e-6
