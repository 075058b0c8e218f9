"""On-line protocol harness, ledger arithmetic, and validity diagnostics."""

import math

import numpy as np
import pytest
from scipy import optimize, stats
from scipy.special import stdtr

import oracles
import olreg.base
import olreg.predictors
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
    batch_predict,
    binomial_band,
    fisher_verify,
    gauss_fit,
    gen_synthetic,
    median_accuracy,
    mva_score,
    run_online,
    validity_report,
)
from olreg.base import DegenerateFitError
from olreg.predictors import GaussFit, _step_projector, iid_pvalue
from olreg.protocol import PValueTrace
from test_pending import assert_block_or_guard_trip, count_absorbs


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


@pytest.mark.parametrize("ridge", [-1.0, math.inf, math.nan])
def test_invalid_ridge_is_rejected_everywhere(ridge):
    for predictor in (IidPredictor, MvaPredictor, IidGaussPredictor):
        with pytest.raises(ValueError, match="ridge must be nonnegative and finite"):
            predictor(ridge=ridge)
    rng = np.random.default_rng(3)
    history = History.from_arrays(rng.normal(size=(29, 3)), rng.normal(size=29))
    with pytest.raises(ValueError, match="ridge must be nonnegative and finite"):
        mva_score(history, Observation(rng.normal(size=3), 0.5), ridge=ridge)
    for method in (
        history.triangular_factor,
        history.design_has_full_rank,
        history.design_norm,
    ):
        with pytest.raises(ValueError, match="ridge must be nonnegative and finite"):
            method(ridge)


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
    # the level is checked up front, also where every block's spread is zero
    for responses in (np.arange(12.0), np.ones(12)):
        for epsilon in (0.0, 1.0, 1.5, -0.1, math.nan):
            with pytest.raises(ValueError):
                fisher_verify(responses, batch_size=3, epsilon=epsilon)


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


def test_smoothed_iid_absorbs_once_per_block(monkeypatch):
    # one absorb call per row into the history's narrow kept factor, below
    # the width floor; from the switch to all 40 features one call per
    # block of pending rows or per guard trip.  The step reads that factor
    # and absorbs the new row into no copy of it
    assert olreg.base.WIDTH_FLOOR <= 41
    # the predictors reach absorb_rows only through the history
    assert not hasattr(olreg.predictors, "absorb_rows")
    calls = count_absorbs(monkeypatch)
    stream = gen_synthetic(SyntheticConfig(seed=3, observation_count=200, feature_count=40))
    predictor = IidPredictor(ridge=0.01, schedule=FeatureSchedule.for_feature_count(40))
    run_online(predictor, stream, (0.05, 0.01), smoothed=True)
    switch = predictor.schedule.switch_step
    assert [call.rows for call in calls[: switch - 2]] == [1] * (switch - 2)
    assert calls[switch - 2][1:4] == (41, True, switch - 1)
    wide = calls[switch - 1 :]
    assert 0 < len(wide) <= (len(stream) - switch) // 4
    left_pending = len(stream) - 1 - (switch - 1) - sum(call.rows for call in wide)
    assert 0 <= left_pending <= olreg.base.ABSORB_BLOCK
    for call in wide:
        assert_block_or_guard_trip(call)


def test_iid_forms_no_step_triangle(monkeypatch):
    # the step reads the history's kept factor: an on-line run with a
    # positive ridge and a ridge-0 batch prediction absorb the new row into
    # no triangle (only the history absorbs its rows, once per block of
    # pending rows or guard trip, here with no width floor), and give the
    # intervals and p-values they gave before
    stream = gen_synthetic(SyntheticConfig(seed=7, observation_count=80, feature_count=12))
    predictor = IidPredictor(ridge=0.01, schedule=FeatureSchedule.for_feature_count(12))
    features = np.array([o.explanatory for o in stream])
    responses = np.array([o.response for o in stream])
    monkeypatch.setattr(olreg.base, "WIDTH_FLOOR", 0)

    def outputs():
        ledgers = [
            run_online(predictor, stream, (0.1, 0.05), smoothed=smoothed)
            for smoothed in (False, True)
        ]
        batch = batch_predict(features[:60], responses[:60], features[60:], (0.1, 0.05))
        return ledgers, batch

    (deterministic, smoothed), batch = outputs()
    assert not hasattr(olreg.predictors, "absorb_rows")
    calls = count_absorbs(monkeypatch)
    (deterministic_again, smoothed_again), batch_again = outputs()
    # each on-line run: the first row, then blocks and guard trips up to the
    # switch to all features, which refactors the history's rows at once,
    # then blocks and guard trips again; then the 60 training rows at once
    switch = predictor.schedule.switch_step
    assert calls[-1][1:4] == (13, True, 60)
    runs = calls[:-1]
    assert len(runs) <= 2 * len(stream) // 3
    assert [call[1:4] for call in runs if call.fresh] == [(11, True, 1), (13, True, switch - 1)] * 2
    for call in runs:
        assert_block_or_guard_trip(call)
    assert batch.code == batch_again.code == 0
    np.testing.assert_array_equal(batch_again.lower, batch.lower)
    np.testing.assert_array_equal(batch_again.upper, batch.upper)
    for ledger, again in ((deterministic, deterministic_again), (smoothed, smoothed_again)):
        np.testing.assert_array_equal(again.lengths, ledger.lengths)
        np.testing.assert_array_equal(again.errors, ledger.errors)
    np.testing.assert_array_equal(smoothed_again.trace.pvalues, smoothed.trace.pvalues)


def one_off_pvalue(predictor, history, observation, tie_break):
    """The realized p-value built afresh for the known response, as it was
    computed before steps were shared (a ridge-0 IID step that interpolates
    is decided by its structure), and whether the rank scores tie within
    1e-12 without being equal (rounding would then decide the rank)."""
    n = len(history) + 1
    x, y = observation.explanatory, observation.response
    if isinstance(predictor, IidGaussPredictor):
        step = predictor.step(history, x)
        return (1.0 if step is None else step.pvalue(y)), False
    if isinstance(predictor, GaussPredictor):
        if n < history.feature_count + 3:
            return 1.0, False
        fit = gauss_fit(history, x)
        pivot = (y - fit.point_prediction) / (fit.sigma_hat * np.sqrt(1.0 + fit.leverage))
        return 2.0 * stdtr(fit.degrees_of_freedom, -abs(pivot)), False
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
    cols = predictor.schedule.active_features(n) + 1 if predictor.schedule else len(x) + 1
    design = np.vstack([history.design_matrix[:, :cols], np.append(1.0, x[: cols - 1])])
    residuals = oracles.residuals_direct(design, predictor.ridge, np.append(history.responses, y))
    if isinstance(predictor, IidPredictor):
        scores = np.abs(residuals)
        gaps = np.abs(scores[:-1] - scores[-1])
        near_tie = bool(np.any((gaps > 0.0) & (gaps <= 1e-12)))
        return iid_pvalue(scores, tie_break), near_tie
    try:
        score = oracles.centered_residual_score(residuals)
    except DegenerateFitError:
        return 1.0, False
    statistic = np.sqrt((n - 1) * (n - 2) / n) * score
    return 2.0 * stdtr(n - 2, -abs(statistic)), False


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


TAIL_STATISTICS = (5.0, 9.0, 40.0)


def test_gauss_pvalue_is_exact_in_the_far_tail():
    # 1 - cdf(|t|) is off by 1.2e-10 relative at t = 5 and rounds to 0 from
    # t = 9 on, where the tail is still 4.8e-18
    step = GaussFit(np.zeros(1), 1.0, 0.0, 0.0, 497)
    for t in TAIL_STATISTICS:
        for response in (t, -t):
            got = GaussPredictor().pvalue(step, response)
            assert got == pytest.approx(2.0 * stats.t.sf(t, 497), rel=1e-12, abs=0)


def test_mva_pvalue_is_exact_in_the_far_tail():
    rng = np.random.default_rng(75)
    history = History(2)
    for observation in feature_stream(rng, 498, 2):
        history.append(observation)
    predictor = MvaPredictor(ridge=0.01)
    x = rng.normal(size=2)
    step = predictor.step(history, x)
    n = step.count
    # the reference statistic: residual vectors of the step's ridge projector
    projector = _step_projector(history, x, 0.01, None)

    def statistic(y):
        score = oracles.centered_residual_score(projector.residuals(y))
        return math.sqrt((n - 1) * (n - 2) / n) * score

    center = optimize.brentq(statistic, -100.0, 100.0)
    for t in TAIL_STATISTICS:
        y = optimize.brentq(lambda y: statistic(y) - t, center, center + 1e3)
        want = 2.0 * stats.t.sf(abs(statistic(y)), n - 2)
        assert want > 0.0
        assert predictor.pvalue(step, y) == pytest.approx(want, rel=1e-12, abs=0)
