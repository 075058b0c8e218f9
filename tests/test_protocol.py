"""On-line protocol harness, ledger arithmetic, and validity diagnostics."""

import math

import numpy as np
import pytest

import oracles
import olreg.base
import olreg.numerics
from olreg import (
    DEFAULT_SEED,
    FeatureSchedule,
    FullLinePredictor,
    GaussPredictor,
    History,
    IidGaussPredictor,
    IidPredictor,
    MonteCarloConfig,
    MvaPredictor,
    Observation,
    OnlineLedger,
    PredictionInterval,
    SyntheticConfig,
    binomial_band,
    centered_residual_score,
    fisher_verify,
    gauss_fit,
    gen_synthetic,
    iid_pvalue,
    median_accuracy,
    run_online,
    validity_report,
)
from olreg.base import DegenerateFitError
from olreg.numerics import StudentT
from olreg.predictors import _mc_machinery, _step_projector
from olreg.protocol import PValueTrace


class EmptyPredictor:
    """Always claims certainty it cannot have: every interval is empty."""

    def step(self, history, x_new):
        return None

    def predict(self, step, levels):
        return [PredictionInterval.empty() for _ in levels]

    def pvalue(self, step, response, tie_break=1.0):
        return 0.0


class BrokenNestingPredictor:
    """*Narrower* intervals at *smaller* epsilon: deliberately inverted."""

    def step(self, history, x_new):
        return None

    def predict(self, step, levels):
        return [
            PredictionInterval(-1.0 / eps, 1.0 / eps) for eps in sorted(levels)
        ]

    def pvalue(self, step, response, tie_break=1.0):
        return 1.0


def location_stream(rng, n):
    return [Observation(np.zeros(0), float(rng.normal())) for _ in range(n)]


def feature_stream(rng, n, k):
    return [Observation(rng.normal(size=k), float(rng.normal())) for _ in range(n)]


def test_full_line_predictor_never_errs():
    rng = np.random.default_rng(71)
    ledger = run_online(FullLinePredictor(), location_stream(rng, 25), (0.05, 0.01))
    assert ledger.step_count == 25
    assert tuple(ledger.error_counts()) == (0, 0)
    assert np.all(np.isinf(ledger.lengths))
    assert np.all(ledger.cumulative_errors() == 0)


def test_empty_predictor_errs_every_step():
    rng = np.random.default_rng(72)
    ledger = run_online(EmptyPredictor(), location_stream(rng, 10), (0.5,))
    assert tuple(ledger.error_counts()) == (10,)
    assert np.all(ledger.lengths == 0.0)
    assert list(ledger.cumulative_errors()[0]) == list(range(1, 11))


def test_nesting_violation_is_detected():
    rng = np.random.default_rng(73)
    with pytest.raises(RuntimeError):
        run_online(BrokenNestingPredictor(), location_stream(rng, 3), (0.1, 0.05))


def test_cumulative_errors_sum_the_bits():
    rng = np.random.default_rng(74)
    stream = feature_stream(rng, 60, 1)
    ledger = run_online(IidPredictor(ridge=0.01), stream, (0.2, 0.1))
    for j in range(2):
        assert list(np.cumsum(ledger.errors[j])) == list(ledger.cumulative_errors()[j])
    assert tuple(ledger.error_counts()) == tuple(
        int(r[-1]) for r in ledger.cumulative_errors()
    )


def test_deterministic_errors_imply_smoothed_errors():
    rng = np.random.default_rng(75)
    stream = feature_stream(rng, 80, 1)
    plain = run_online(IidPredictor(ridge=0.01), stream, (0.2,))
    smoothed = run_online(IidPredictor(ridge=0.01), stream, (0.2,), smoothed=True, seed=5)
    assert np.all(smoothed.errors[0] >= plain.errors[0])
    # interval lengths are a property of the deterministic hulls either way
    assert np.array_equal(plain.lengths, smoothed.lengths)


def test_smoothed_runs_reproduce_and_record_the_trace():
    rng = np.random.default_rng(76)
    stream = feature_stream(rng, 30, 1)
    first = run_online(IidPredictor(ridge=0.01), stream, (0.1,), smoothed=True, seed=9)
    second = run_online(IidPredictor(ridge=0.01), stream, (0.1,), smoothed=True, seed=9)
    assert np.array_equal(first.errors, second.errors)
    assert first.trace is not None
    assert len(first.trace.pvalues) == 30
    assert len(first.trace.tie_breaks) == 30
    assert np.array_equal(first.trace.pvalues, second.trace.pvalues)
    assert all(0.0 <= t <= 1.0 for t in first.trace.tie_breaks)
    unseeded = run_online(IidPredictor(ridge=0.01), stream, (0.1,), smoothed=True)
    assert unseeded.seed == DEFAULT_SEED


def test_median_accuracy_rules():
    assert median_accuracy([1.0, 2.0, 3.0]) == 2.0
    assert median_accuracy([3.0, 1.0]) == 2.0
    assert median_accuracy([1.0, math.inf]) == math.inf
    assert median_accuracy([1.0, math.inf, 2.0]) == 2.0
    assert median_accuracy([5.0]) == 5.0
    assert median_accuracy([math.inf, math.inf]) == math.inf
    with pytest.raises(ValueError):
        median_accuracy([])


def test_running_medians_match_prefix_recomputation():
    rng = np.random.default_rng(77)
    lengths = rng.exponential(size=25)
    lengths[rng.random(25) < 0.3] = math.inf
    ledger = OnlineLedger(
        levels=(0.1,),
        errors=np.zeros((1, 25), dtype=np.uint8),
        lengths=lengths[None, :],
        smoothed=False,
        seed=DEFAULT_SEED,
    )
    series = ledger.median_lengths()[0]
    for i in range(25):
        assert series[i] == median_accuracy(lengths[: i + 1])


def test_ledger_roundtrips_through_plain_data():
    rng = np.random.default_rng(78)
    stream = feature_stream(rng, 12, 1)
    ledger = run_online(IidPredictor(ridge=0.01), stream, (0.5, 0.2), smoothed=True, seed=3)
    data = ledger.to_dict()
    assert data["levels"] == [0.5, 0.2]
    assert any(v == "inf" for row in data["lengths"] for v in row)
    back = OnlineLedger.from_dict(data)
    assert back.levels == ledger.levels
    assert np.array_equal(back.errors, ledger.errors)
    assert np.array_equal(back.lengths, ledger.lengths)
    assert np.array_equal(back.trace.pvalues, ledger.trace.pvalues)
    assert back.seed == ledger.seed and back.smoothed


def test_band_matches_direct_probability_sums():
    for count, eps in ((100, 0.05), (2000, 0.01), (37, 0.5)):
        assert binomial_band(count, eps) == oracles.binomial_band_direct(count, eps)
        low, high = binomial_band(count, eps)
        assert low <= count * eps <= high


def test_band_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binomial_band(0, 0.05)
    with pytest.raises(ValueError):
        binomial_band(10, 0.0)
    with pytest.raises(ValueError):
        binomial_band(10, 0.05, confidence=1.0)


def test_report_on_the_five_point_trace():
    ledger = OnlineLedger(
        levels=(0.05,),
        errors=np.zeros((1, 5), dtype=np.uint8),
        lengths=np.ones((1, 5)),
        smoothed=True,
        seed=DEFAULT_SEED,
    )
    trace = PValueTrace(
        pvalues=np.array([0.1, 0.3, 0.5, 0.7, 0.9]),
        tie_breaks=np.full(5, 0.5),
    )
    report = validity_report(ledger, trace)
    assert report["pvalue_ks_statistic"] == pytest.approx(0.1)
    assert report["pvalue_ks_pvalue"] > 0.9
    level = report["levels"][0]
    assert level["error_count"] == 0
    assert level["lag1_autocorrelation"] is None  # constant bits


def test_report_flags_conservative_runs():
    errors = np.zeros((1, 1000), dtype=np.uint8)
    ledger = OnlineLedger(
        levels=(0.05,),
        errors=errors,
        lengths=np.ones((1, 1000)),
        smoothed=False,
        seed=DEFAULT_SEED,
    )
    report = validity_report(ledger)
    level = report["levels"][0]
    assert level["conservative"] is True
    assert level["within_band"] is False
    assert report["pvalue_ks_statistic"] is None


def test_report_on_a_real_run_is_calibrated():
    rng = np.random.default_rng(79)
    stream = location_stream(rng, 1200)
    ledger = run_online(GaussPredictor(), stream, (0.1,))
    report = validity_report(ledger)
    level = report["levels"][0]
    assert level["within_band"]
    assert abs(level["lag1_autocorrelation"]) < 0.1


def test_isolated_batches_against_the_pivot_oracle():
    rng = np.random.default_rng(80)
    responses = rng.normal(size=11 * 8)
    errors = fisher_verify(responses, batch_size=10, epsilon=0.2, mode="isolated")
    assert errors.shape == (8,)
    for m in range(8):
        train = responses[m * 11 : m * 11 + 10]
        test = responses[m * 11 + 10]
        low, high = oracles.pivot_interval(
            np.zeros((10, 0)), train, np.zeros(0), 0.2
        )
        assert bool(errors[m]) == (not low <= test <= high)


def test_constant_training_blocks():
    block = [1.0] * 10
    hit = fisher_verify(np.array(block + [1.0]), batch_size=10, epsilon=0.1)
    miss = fisher_verify(np.array(block + [2.0]), batch_size=10, epsilon=0.1)
    assert list(hit) == [0]
    assert list(miss) == [1]


def test_cumulative_batches_reuse_all_history():
    rng = np.random.default_rng(81)
    responses = rng.normal(size=11 * 6)
    cumulative = fisher_verify(responses, batch_size=10, epsilon=0.2, mode="cumulative")
    stream = [Observation(np.zeros(0), float(y)) for y in responses]
    ledger = run_online(GaussPredictor(), stream, (0.2,))
    positions = [m * 11 - 1 for m in range(1, 7)]
    assert np.array_equal(cumulative, ledger.errors[0][positions])


def test_fisher_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fisher_verify(np.ones(10), batch_size=1, epsilon=0.1)
    with pytest.raises(ValueError):
        fisher_verify(np.ones(10), batch_size=3, epsilon=0.1, mode="other")


MODELS = (
    IidPredictor(ridge=0.01, schedule=FeatureSchedule(1, 6, 3)),
    MvaPredictor(ridge=0.01, schedule=FeatureSchedule(1, 6, 3)),
    GaussPredictor(),
    IidGaussPredictor(mc=MonteCarloConfig(samples=99, seed=4)),
)


@pytest.mark.parametrize("predictor", MODELS, ids=lambda p: type(p).__name__)
def test_smoothed_runs_build_one_step_per_observation(predictor, monkeypatch):
    built = []
    build = type(predictor).step

    def counted(self, history, x_new):
        built.append(len(history))
        return build(self, history, x_new)

    monkeypatch.setattr(type(predictor), "step", counted)
    stream = feature_stream(np.random.default_rng(82), 30, 3)
    run_online(predictor, stream, (0.2, 0.1), smoothed=True)
    assert built == list(range(30))


def test_smoothed_iid_absorbs_two_rows_per_step(monkeypatch):
    # one row into the history's kept factor and one into the step's copy;
    # building the step a second time for the p-value would make it three
    absorbed = []
    absorb = olreg.base.absorb_rows

    def counted(triangle, rows):
        absorbed.append(len(rows))
        return absorb(triangle, rows)

    monkeypatch.setattr(olreg.base, "absorb_rows", counted)
    monkeypatch.setattr(olreg.numerics, "absorb_rows", counted)
    stream = gen_synthetic(SyntheticConfig(seed=3, observation_count=60, feature_count=100))
    predictor = IidPredictor(ridge=0.01, schedule=FeatureSchedule.for_feature_count(100))
    run_online(predictor, stream, (0.05, 0.01), smoothed=True)
    assert len(absorbed) == 2 * (len(stream) - 1)


def one_off_pvalue(predictor, history, observation, tie_break):
    """The realized p-value built afresh for the known response, as it was
    computed before steps were shared (a ridge-0 IID step that interpolates
    is decided by its structure), and whether the rank scores tie within
    1e-12 without being equal (rounding would then decide the rank)."""
    n = len(history) + 1
    x, y = observation.explanatory, observation.response
    if isinstance(predictor, IidGaussPredictor):
        step = _mc_machinery(history, x, predictor.ridge, predictor.schedule, predictor.mc)
        return (1.0 if step is None else step.pvalue(y)), False
    if isinstance(predictor, GaussPredictor):
        if n < history.feature_count + 3:
            return 1.0, False
        fit = gauss_fit(history, x)
        pivot = (y - fit.point_prediction) / (fit.sigma_hat * np.sqrt(1.0 + fit.leverage))
        return 2.0 * (1.0 - StudentT(fit.degrees_of_freedom).cdf(abs(pivot))), False
    if isinstance(predictor, IidPredictor) and n == 1:
        return tie_break, False
    if isinstance(predictor, IidPredictor) and predictor.ridge == 0.0 and (
        n == predictor.schedule.active_features(n) + 1
    ):
        # a ridge-0 fit of n rows on n columns interpolates: every residual
        # is zero, so every score ties with the last
        return tie_break, False
    if isinstance(predictor, MvaPredictor) and n < 3:
        return 1.0, False
    projector = _step_projector(history, x, predictor.ridge, predictor.schedule, y)
    residuals = projector.residuals(np.append(history.responses, y))
    if isinstance(predictor, IidPredictor):
        scores = np.abs(residuals)
        gaps = np.abs(scores[:-1] - scores[-1])
        near_tie = bool(np.any((gaps > 0.0) & (gaps <= 1e-12)))
        return iid_pvalue(scores, tie_break), near_tie
    try:
        score = centered_residual_score(residuals)
    except DegenerateFitError:
        return 1.0, False
    statistic = np.sqrt((n - 1) * (n - 2) / n) * score
    return 2.0 * (1.0 - StudentT(n - 2).cdf(abs(statistic))), False


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_step_pvalues_match_the_one_off_computation(seed):
    rng = np.random.default_rng(300 + seed)
    stream = feature_stream(rng, 40, 3)
    levels = (0.2, 0.05)
    predictors = [GaussPredictor()]
    for ridge in (0.0, 0.01, 0.5):
        for schedule in (None, FeatureSchedule(1, 6, 3)):
            if ridge > 0.0 or schedule is not None:  # ridge 0 needs rows before columns
                predictors += [
                    IidPredictor(ridge=ridge, schedule=schedule),
                    MvaPredictor(ridge=ridge, schedule=schedule),
                ]
            predictors.append(
                IidGaussPredictor(ridge, schedule, MonteCarloConfig(samples=99, seed=seed))
            )
    for predictor in predictors:
        ledger = run_online(predictor, stream, levels, smoothed=True, seed=seed)
        history = History(3)
        expected, near_ties = [], []
        for observation, tie_break in zip(stream, ledger.trace.tie_breaks):
            pvalue, near_tie = one_off_pvalue(predictor, history, observation, tie_break)
            expected.append(pvalue)
            near_ties.append(near_tie)
            history.append(observation)
        got = ledger.trace.pvalues
        expected, near_ties = np.array(expected), np.array(near_ties)
        if isinstance(predictor, MvaPredictor):
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)
        else:
            assert np.array_equal(got, expected), predictor
        # no rank is left to rounding: the interpolating steps are decided above
        assert not near_ties.any(), (predictor, np.flatnonzero(near_ties) + 1)
        bits = np.array([[p <= eps for p in expected] for eps in levels], dtype=np.uint8)
        assert np.array_equal(ledger.errors, bits), predictor
