"""Each batch model's onset rule (``can_bound``) against its own predictor.

Where the rule says that step n cannot give a bounded interval, the
predictor gives none at any level, and ``batch_predict`` returns code 2
exactly there.
"""

import math

import numpy as np
import pytest

from olreg import (
    FeatureSchedule,
    GaussPredictor,
    History,
    IidGaussPredictor,
    IidPredictor,
    MonteCarloConfig,
    MvaPredictor,
    Observation,
    RankDeficiencyError,
    batch_predict,
    run_online,
)

LEVELS = (0.25, 0.1)
MC = MonteCarloConfig(samples=99, seed=5)


def make_predictor(model, ridge, schedule):
    if model == "iid":
        return IidPredictor(ridge, schedule)
    if model == "gauss":
        return GaussPredictor()
    if model == "mva":
        return MvaPredictor(ridge, schedule)
    return IidGaussPredictor(ridge, schedule, MC)


def draw(seed, rows, k):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(rows, k))
    return features, features @ rng.normal(size=k) + rng.normal(size=rows)


@pytest.mark.parametrize("model", ["iid", "gauss", "mva", "iidgauss"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("ridge", [0.0, 0.01])
@pytest.mark.parametrize("scheduled", [False, True])
def test_no_bounded_interval_where_the_rule_says_no(model, k, ridge, scheduled):
    schedule = FeatureSchedule.for_feature_count(k, 1) if scheduled else None
    predictor = make_predictor(model, ridge, schedule)
    last = max(k + 5, math.ceil(1.0 / LEVELS[-1]) + 1)
    for seed in range(3):
        features, responses = draw(seed, last, k)
        for n in range(1, last + 1):
            history = History.from_arrays(features[: n - 1], responses[: n - 1])
            test = features[n - 1 : n]
            allowed = predictor.can_bound(n, k, LEVELS)
            try:
                intervals = predictor.predict(predictor.step(history, test[0]), LEVELS)
            except RankDeficiencyError:
                # too few rows for a ridge-0 fit: no interval at all
                assert ridge == 0.0 and model in ("iid", "mva")
                intervals = None
            if not allowed and intervals is not None:
                for interval in intervals:
                    assert (interval.lower, interval.upper) == (-math.inf, math.inf), (n, interval)

            if n == 1:
                continue  # batch_predict needs a training row
            try:
                result = batch_predict(
                    features[: n - 1], responses[: n - 1], test, LEVELS,
                    model=model, ridge=ridge, schedule=schedule, mc=MC,
                )
            except RankDeficiencyError:
                assert allowed and intervals is None
                continue
            assert (result.code == 2) == (not allowed), (n, result.code)
            if intervals is not None:
                np.testing.assert_array_equal(result.lower[0], [i.lower for i in intervals])
                np.testing.assert_array_equal(result.upper[0], [i.upper for i in intervals])


def test_iidgauss_bounds_at_k_plus_two_before_the_rank_onset():
    # ceil(1 / 0.2) = 5 > K + 2 = 4, yet the Monte-Carlo estimate already
    # excludes candidates at n = K + 2, and batch_predict reports that step
    rng = np.random.default_rng(4)
    features = rng.normal(size=(4, 2))
    responses = features @ rng.normal(size=2) + rng.normal(size=4)
    mc = MonteCarloConfig(999, 1729)
    result = batch_predict(
        features[:3], responses[:3], features[3:], (0.2,), model="iidgauss", ridge=0.01, mc=mc
    )
    predictor = IidGaussPredictor(0.01, None, mc)
    (interval,) = predictor.predict(
        predictor.step(History.from_arrays(features[:3], responses[:3]), features[3]), (0.2,)
    )
    assert result.code == 0
    assert math.isfinite(interval.lower) and math.isfinite(interval.upper)
    assert (result.lower[0, 0], result.upper[0, 0]) == (interval.lower, interval.upper)
    assert interval.lower == pytest.approx(-1.023, abs=1e-3)
    assert interval.upper == pytest.approx(1.733, abs=1e-3)


@pytest.mark.parametrize("model", ["iid", "mva"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scheduled", [False, True])
def test_ridge_zero_runs_abstain_while_the_fit_interpolates(model, k, scheduled):
    # with no more rows than active columns a ridge-0 fit interpolates:
    # the step abstains with full lines instead of raising, and a smoothed
    # IID p-value there is the tie-break itself (MVA's is one)
    schedule = FeatureSchedule.for_feature_count(k, 1) if scheduled else None
    predictor = make_predictor(model, 0.0, schedule)
    features, responses = draw(k, 3 * k + 12, k)
    stream = [Observation(x, float(y)) for x, y in zip(features, responses)]
    for smoothed in (False, True):
        ledger = run_online(predictor, stream, LEVELS, smoothed=smoothed, seed=k)
        assert ledger.step_count == len(stream)
        for n in range(1, len(stream) + 1):
            active = schedule.active_features(n) if scheduled else k
            abstains = n <= active + 1
            if abstains or not predictor.can_bound(n, k, LEVELS):
                assert np.all(ledger.lengths[:, n - 1] == math.inf), (n, ledger.lengths[:, n - 1])
            if smoothed and abstains:
                tie_break = ledger.trace.tie_breaks[n - 1]
                p = tie_break if model == "iid" else 1.0
                assert ledger.trace.pvalues[n - 1] == p
                bits = [int(p <= eps) for eps in LEVELS]
                np.testing.assert_array_equal(ledger.errors[:, n - 1], bits)
        # past the interpolating steps the ridge-0 fit bounds some interval
        assert np.isfinite(ledger.lengths[:, -1]).any()
