"""End-to-end acceptance checks, one per shipping criterion.

Each test prints a single PASS/FAIL line with the measured quantities and
its runtime, then asserts the criterion at its stated tolerance.  Randomness
is frozen: every stream, Monte-Carlo draw, and instance generator runs from
an explicit seed, so the printed numbers are reproducible bit for bit.
"""

import time
from math import ceil, inf, sqrt

import numpy as np
import pytest
from scipy import stats

import oracles
from olreg import (
    FeatureSchedule,
    GaussPredictor,
    History,
    IidGaussPredictor,
    IidPredictor,
    MvaPredictor,
    Observation,
    SyntheticConfig,
    batch_predict,
    binomial_band,
    fisher_verify,
    gen_synthetic,
    run_online,
    wilks_predict,
)
from olreg.predictors import (
    MonteCarloConfig,
    build_sweep,
    gauss_score,
    iidgauss_pvalue,
    mva_hull,
    mva_score,
    sweep_hull,
)
from olreg.sampler import sample_conditional


def announce(capfd, number: int, ok: bool, limit: float, elapsed: float, detail: str):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(
            f"criterion {number:02d} {verdict} ({elapsed:.2f}s of {limit:g}s) {detail}"
        )


def close_or_equal(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol


def test_criterion_01_informative_onsets(capfd):
    # Gauss bounded exactly from n = K + 3; MVA from n = 3; IID from
    # within three steps of n = ceil(1/eps).
    start = time.perf_counter()
    stream = gen_synthetic(SyntheticConfig(seed=8, observation_count=23, feature_count=10))
    schedule = FeatureSchedule.for_feature_count(10)
    gauss = run_online(GaussPredictor(), stream, (0.05,)).lengths[0]
    mva = run_online(MvaPredictor(ridge=0.01, schedule=schedule), stream, (0.05,)).lengths[0]
    iid = run_online(IidPredictor(ridge=0.01, schedule=schedule), stream, (0.05,)).lengths[0]
    threshold = ceil(1.0 / 0.05)
    first_iid = int(np.argmax(np.isfinite(iid))) + 1
    ok = (
        bool(np.all(np.isinf(gauss[:12])))
        and np.isfinite(gauss[12])
        and np.isfinite(mva[2])
        and bool(np.all(np.isinf(iid[: threshold - 1])))
        and first_iid - threshold < 3
    )
    elapsed = time.perf_counter() - start
    announce(
        capfd, 1, ok and elapsed < 5.0, 5.0, elapsed,
        f"gauss bounded from n=13, mva at n=3 (len {mva[2]:.1f}), "
        f"iid at n={first_iid} (threshold {threshold})",
    )
    assert ok
    assert elapsed < 5.0


def test_criterion_02_gauss_strong_validity(capfd):
    # Error frequency in the exact-binomial 99% band at both levels and
    # lag-1 autocorrelation of the error bits below 0.06 in magnitude.
    start = time.perf_counter()
    stream = gen_synthetic(SyntheticConfig(seed=1, observation_count=2000, feature_count=5))
    ledger = run_online(GaussPredictor(), stream, (0.05, 0.01))
    parts, ok = [], True
    for j, epsilon in enumerate((0.05, 0.01)):
        bits = ledger.errors[j][7:]  # steps with n >= K + 3
        count = int(bits.sum())
        low, high = binomial_band(bits.size, epsilon)
        rho = float(np.corrcoef(bits[:-1].astype(float), bits[1:].astype(float))[0, 1])
        ok = ok and low <= count <= high and abs(rho) < 0.06
        parts.append(f"eps={epsilon:g}: {count} in [{low},{high}], rho={rho:+.4f}")
    elapsed = time.perf_counter() - start
    announce(capfd, 2, ok and elapsed < 30.0, 30.0, elapsed, "; ".join(parts))
    assert ok
    assert elapsed < 30.0


def test_criterion_03_iid_conservative_validity(capfd):
    # Deterministic rank-based intervals err at most eps plus the normal
    # allowance 2.58 sqrt(eps (1 - eps) / 600) on the benchmark stream.
    start = time.perf_counter()
    stream = gen_synthetic(SyntheticConfig())
    predictor = IidPredictor(ridge=0.01, schedule=FeatureSchedule.for_feature_count(100))
    ledger = run_online(predictor, stream, (0.05, 0.01, 0.005))
    parts, ok = [], True
    for j, epsilon in enumerate((0.05, 0.01, 0.005)):
        frequency = int(ledger.errors[j].sum()) / 600.0
        bound = epsilon + 2.58 * sqrt(epsilon * (1.0 - epsilon) / 600.0)
        ok = ok and frequency <= bound
        parts.append(f"eps={epsilon:g}: {frequency:.4f} <= {bound:.4f}")
    elapsed = time.perf_counter() - start
    announce(capfd, 3, ok and elapsed < 120.0, 120.0, elapsed, "; ".join(parts))
    assert ok
    assert elapsed < 120.0


def test_criterion_04_smoothed_pvalues_uniform(capfd):
    # Realized p-values of a smoothed run are uniform: KS not rejected at 1%.
    start = time.perf_counter()
    stream = gen_synthetic(SyntheticConfig(seed=0, observation_count=2000, feature_count=3))
    ledger = run_online(IidPredictor(ridge=0.01), stream, (0.05,), smoothed=True)
    statistic, pvalue = ledger.trace.ks_uniform()
    ok = pvalue > 0.01
    elapsed = time.perf_counter() - start
    announce(
        capfd, 4, ok and elapsed < 60.0, 60.0, elapsed,
        f"KS statistic {statistic:.4f}, p-value {pvalue:.4f} > 0.01",
    )
    assert ok
    assert elapsed < 60.0


def test_criterion_05_quadratic_oracle_equivalence(capfd):
    # Closed-form quadratic classification of a step read from the
    # history's kept factors vs a dense grid scan of the
    # studentized-centered-residual inequality over the projector's
    # residual decomposition, endpoints to 1e-5.
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    checked = trials = 0
    while checked < 200:
        trials += 1
        assert trials <= 260, "instance generator starved by out-of-range hulls"
        n = int(rng.integers(3, 31))
        k = int(rng.integers(0, 6))
        ridge = float(rng.choice([0.0, 0.01]))
        if ridge == 0.0 and n <= k + 1:
            ridge = 0.01
        design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        fixed = rng.normal(size=n - 1)
        epsilon = float(rng.choice([0.05, 0.1, 0.2]))
        t_value = float(stats.t.ppf(1.0 - epsilon / 2.0, n - 2))
        offset, slope = oracles.affine_residuals(design, ridge, fixed)
        history = History.from_arrays(design[:-1, 1:], fixed)
        lower, upper = mva_hull(MvaPredictor(ridge).step(history, design[-1, 1:]), t_value)
        mine = (lower[0], upper[0])
        reference = oracles.quadratic_region_grid_hull(offset, slope, n, t_value, refine=1e-7)
        endpoints = [v for v in mine + (reference.lower, reference.upper) if np.isfinite(v)]
        if any(abs(v) > 5000.0 for v in endpoints):
            continue  # beyond the oracle grid's trustworthy range
        assert oracles.hulls_match(
            *mine, reference.lower, reference.upper, atol=1e-5
        ), (n, k, ridge, epsilon, mine, reference)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 60.0
    announce(
        capfd, 5, ok, 60.0, elapsed,
        f"{checked} instances matched the grid oracle in {trials} draws",
    )
    assert ok


def test_criterion_06_sweep_oracle_equivalence(capfd):
    # Sweep hulls equal set-by-set rank-counting at every critical point
    # and cell midpoint, endpoints to 1e-9.
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    for trial in range(200):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(0, 5))
        ridge = float(rng.choice([0.01, 1.0]))
        design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        fixed = rng.normal(size=n - 1)
        if trial % 5 == 0 and n > 3:
            fixed[1] = fixed[0]  # provoke exact residual ties
        epsilon = float(rng.choice([0.05, 0.1, 0.25, 0.5, 0.8]))
        offset, slope = oracles.affine_residuals(design, ridge, fixed)
        lower, upper = sweep_hull(build_sweep(offset, slope), n, epsilon)
        hull = (lower[0], upper[0])
        low, high = oracles.rank_region_hull(offset, slope, epsilon)
        assert close_or_equal(hull[0], low, 1e-9), (trial, hull, low, high)
        assert close_or_equal(hull[1], high, 1e-9), (trial, hull, low, high)
    elapsed = time.perf_counter() - start
    announce(capfd, 6, elapsed < 30.0, 30.0, elapsed, "200 instances matched to 1e-9")
    assert elapsed < 30.0


def test_criterion_07_sampler_exactness_and_coverage(capfd):
    # Every conditional sample carries the exact summary it was drawn from;
    # Monte-Carlo p-values cover at the promised rate as n grows.
    start = time.perf_counter()
    mismatched = 0
    for s in range(20):
        srng = np.random.default_rng(100 + s)
        k = int(srng.integers(0, 5))
        n = int(srng.integers(k + 2, 26))
        stream = [Observation(srng.normal(size=k), float(srng.normal())) for _ in range(n)]
        history = History.from_observations(stream)
        summary = oracles.raw_summary(history.features, history.responses)
        for sample in sample_conditional(history, 500, seed=s):
            again = oracles.raw_summary(sample.features, sample.responses)
            exact = (
                np.allclose(again.bag, summary.bag, atol=1e-12)
                and close_or_equal(
                    again.response_sum, summary.response_sum,
                    1e-8 * max(1.0, abs(summary.response_sum)),
                )
                and np.allclose(again.cross_sum, summary.cross_sum, rtol=1e-8, atol=1e-10)
                and close_or_equal(
                    again.square_sum, summary.square_sum, 1e-8 * summary.square_sum
                )
            )
            mismatched += 0 if exact else 1

    covered = 0
    for t in range(400):
        n = int(round(10 + 190 * t / 399))
        srng = np.random.default_rng(10000 + t)
        x = srng.standard_normal((n + 1, 3))
        y = srng.standard_normal(n + 1)
        history = History.from_observations(
            Observation(x[i], float(y[i])) for i in range(n)
        )
        predictor = IidGaussPredictor(ridge=0.0, mc=MonteCarloConfig(samples=999, seed=t))
        p = iidgauss_pvalue(predictor.step(history, x[n]), float(y[n]))
        covered += 1 if p > 0.05 else 0
    coverage = covered / 400.0
    ok = mismatched == 0 and 0.92 <= coverage <= 0.98
    elapsed = time.perf_counter() - start
    announce(
        capfd, 7, ok and elapsed < 600.0, 600.0, elapsed,
        f"{10000 - mismatched}/10000 samples exact, coverage {coverage:.4f} in [0.92, 0.98]",
    )
    assert ok
    assert elapsed < 600.0


def test_criterion_08_summary_scores_match_raw_paths(capfd):
    # Scores read from the history's triangle equal raw-data recomputation.
    start = time.perf_counter()
    worst_gauss = worst_mva = 0.0
    rng = np.random.default_rng(88)
    for _ in range(100):
        k = int(rng.integers(0, 5))
        n = int(rng.integers(k + 2, 30))
        x = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        observation = Observation(rng.normal(size=k), float(rng.normal()))
        history = History.from_observations(
            Observation(x[i], float(y[i])) for i in range(n)
        )
        mine = gauss_score(history, observation)
        reference = oracles.pivot_score_direct(
            x, y, observation.explanatory, observation.response
        )
        worst_gauss = max(worst_gauss, abs(mine - reference) / abs(reference))
        design = np.column_stack(
            [np.ones(n + 1), np.vstack([x, observation.explanatory])]
        )
        full_y = np.concatenate([y, [observation.response]])
        mine_mva = mva_score(history, observation)
        reference_mva = oracles.centered_score_direct(design, 0.0, full_y)
        worst_mva = max(worst_mva, abs(mine_mva - reference_mva) / abs(reference_mva))
    ok = worst_gauss < 1e-10 and worst_mva < 1e-10
    elapsed = time.perf_counter() - start
    announce(
        capfd, 8, ok and elapsed < 5.0, 5.0, elapsed,
        f"worst relative gap: gauss {worst_gauss:.2e}, mva {worst_mva:.2e}",
    )
    assert ok
    assert elapsed < 5.0


def test_criterion_09_order_statistic_and_batch_protocols(capfd):
    # Order-statistic intervals err at rate 2r/n; batch t-intervals err at
    # rate eps; cumulative-mode batch errors replay the on-line record.
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    wilks_errors = 0
    for _ in range(5000):
        values = rng.standard_normal(50)
        interval = wilks_predict(values[:49], 2)
        wilks_errors += 0 if interval.contains(values[49]) else 1
    wilks_low, wilks_high = binomial_band(5000, 2 * 2 / 50)

    responses = np.random.default_rng(4).standard_normal(11 * 5000)
    isolated = int(fisher_verify(responses, batch_size=10, epsilon=0.1).sum())
    fisher_low, fisher_high = binomial_band(5000, 0.1)

    short = np.random.default_rng(5).standard_normal(11 * 30)
    cumulative = fisher_verify(short, batch_size=10, epsilon=0.1, mode="cumulative")
    ledger = run_online(
        GaussPredictor(),
        [Observation(np.zeros(0), float(v)) for v in short],
        (0.1,),
    )
    positions = [m * 11 - 1 for m in range(1, 31)]
    subsequence = bool(np.array_equal(cumulative, ledger.errors[0][positions]))

    ok = (
        wilks_low <= wilks_errors <= wilks_high
        and fisher_low <= isolated <= fisher_high
        and subsequence
    )
    elapsed = time.perf_counter() - start
    announce(
        capfd, 9, ok and elapsed < 60.0, 60.0, elapsed,
        f"wilks {wilks_errors} in [{wilks_low},{wilks_high}], "
        f"isolated {isolated} in [{fisher_low},{fisher_high}], "
        f"cumulative subsequence {subsequence}",
    )
    assert ok
    assert elapsed < 60.0


def test_criterion_10_asymptotic_accuracy(capfd):
    # With unit noise the n = 600 interval should approach the known-noise
    # oracle width 2 * 1.96; the median across streams must sit within 15%.
    start = time.perf_counter()
    target = 2.0 * oracles.normal_upper_quantile(0.025)
    lengths = []
    for seed in range(11):
        stream = gen_synthetic(SyntheticConfig(seed=seed))
        history = History.from_observations(stream[:599])
        predictor = MvaPredictor(
            ridge=0.01, schedule=FeatureSchedule.for_feature_count(100)
        )
        step = predictor.step(history, stream[599].explanatory)
        interval = predictor.predict(step, (0.05,))[0]
        lengths.append(interval.length)
    median = float(np.median(lengths))
    ok = abs(median / target - 1.0) <= 0.15
    elapsed = time.perf_counter() - start
    announce(
        capfd, 10, ok and elapsed < 60.0, 60.0, elapsed,
        f"median length {median:.4f} vs oracle {target:.4f} "
        f"(ratio {median / target:.3f}, allowed 0.85..1.15)",
    )
    assert ok
    assert elapsed < 60.0


def test_criterion_11_batch_interface_conformance(capfd):
    # The three batch calls return code 0 with one bounds row per test
    # point and one column per level; mismatch gives code 1, a too-short
    # training set gives code 2 with full lines; the empty interval is
    # encoded as lower = +inf, upper = -inf.
    start = time.perf_counter()
    x_train = np.array([[1.0], [2.0], [3.0], [4.0]])
    y_train = np.array([2.01, 2.99, 4.01, 4.99])
    x_test = np.array([[0.0], [10.0], [20.0]])

    iid = batch_predict(
        np.arange(24.0)[:, None], np.arange(24.0) % 7, x_test,
        (0.05, 0.01), model="iid", ridge=0.01,
    )
    mva = batch_predict(
        np.array([[0.0], [10.0], [20.0], [30.0]]),
        np.array([1.01, 10.99, 21.01, 30.99]),
        np.array([[5.0], [15.0], [25.0]]),
        (0.2, 0.05), model="mva", ridge=0.01,
    )
    gauss = batch_predict(x_train, y_train, x_test[:2], (0.05, 0.01), model="gauss")
    shapes_ok = (
        iid.code == mva.code == gauss.code == 0
        and iid.lower.shape == iid.upper.shape == (3, 2)
        and mva.lower.shape == (3, 2)
        and gauss.lower.shape == (2, 2)
        and bool(np.all(np.isfinite(mva.lower)) and np.all(np.isfinite(mva.upper)))
        and bool(np.all(np.isfinite(gauss.lower)) and np.all(np.isfinite(gauss.upper)))
        and bool(np.all(iid.lower[:, 0] > -inf) and np.all(iid.upper[:, 0] < inf))
        and bool(np.all(iid.lower[:, 1] == -inf) and np.all(iid.upper[:, 1] == inf))
    )

    mismatch = batch_predict(np.ones((5, 2)), np.ones(5), np.ones((1, 3)), (0.05,))
    short = batch_predict(x_train[:2], y_train[:2], x_test[:1], (0.05,), model="gauss")
    codes_ok = (
        mismatch.code == 1
        and mismatch.lower.size == 0
        and short.code == 2
        and bool(np.all(short.lower == -inf) and np.all(short.upper == inf))
    )

    r = np.random.default_rng(1)
    empty = batch_predict(
        r.normal(size=(3, 2)), r.normal(size=3), r.normal(size=(1, 2)),
        (0.5,), model="mva", ridge=0.0,
    )
    empty_ok = (
        empty.code == 0
        and empty.lower[0, 0] == inf
        and empty.upper[0, 0] == -inf
    )

    ok = shapes_ok and codes_ok and empty_ok
    elapsed = time.perf_counter() - start
    announce(
        capfd, 11, ok and elapsed < 1.0, 1.0, elapsed,
        f"codes 0/1/2 and encodings verified (shapes {shapes_ok}, "
        f"codes {codes_ok}, empty {empty_ok})",
    )
    assert ok
    assert elapsed < 1.0
