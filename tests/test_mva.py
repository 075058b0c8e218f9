"""Centered-residual predictor and the order-statistic predictor."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtr

import oracles
from olreg import (
    DegenerateFitError,
    FeatureSchedule,
    History,
    Observation,
    PredictionInterval,
    mva_hull,
    mva_score,
    wilks_level,
    wilks_predict,
)
import olreg.base
import olreg.numerics
import olreg.predictors
from olreg import RankDeficiencyError, run_online
from olreg.numerics import two_sided_quantiles
from olreg.predictors import mva_predict, quadratic_ends
from olreg.protocol import MvaPredictor

# Worked example (same data as the rank-region one), bounds fixed by the
# dense-grid oracle refined to 1e-9.
TRAIN_X = np.array([[0.0], [10.0], [20.0], [30.0]])
TRAIN_Y = np.array([1.01, 10.99, 21.01, 30.99])
EXPECTED = {
    (0.2, 5.0): (5.973868648052219, 6.023578191280364),
    (0.2, 15.0): (15.979973859310157, 16.020044790744777),
    (0.2, 25.0): (25.977257964611063, 26.028865911960594),
    (0.05, 5.0): (5.913631137371063, 6.049667570590972),
    (0.05, 15.0): (15.96110240125656, 16.038968020915988),
    (0.05, 25.0): (25.953479372501377, 26.09921009874344),
}


def hull_at(step, t_value) -> PredictionInterval:
    """The step's hull at one threshold: element 0 of ``mva_hull``'s ends."""
    lower, upper = mva_hull(step, t_value)
    return PredictionInterval(lower[0], upper[0])


def region_hull(lead, cross, constant) -> PredictionInterval:
    return PredictionInterval(*quadratic_ends(lead, cross, constant))


def history_of(features, responses):
    return History.from_observations(
        Observation(np.atleast_1d(x), float(y)) for x, y in zip(features, responses)
    )


def test_worked_example_bounds_fixed_by_grid_oracle():
    history = history_of(TRAIN_X, TRAIN_Y)
    for x in (5.0, 15.0, 25.0):
        narrow, wide = mva_predict(history, np.array([x]), (0.2, 0.05), ridge=0.01)
        assert narrow.lower == pytest.approx(EXPECTED[(0.2, x)][0], abs=1e-6)
        assert narrow.upper == pytest.approx(EXPECTED[(0.2, x)][1], abs=1e-6)
        assert wide.lower == pytest.approx(EXPECTED[(0.05, x)][0], abs=1e-6)
        assert wide.upper == pytest.approx(EXPECTED[(0.05, x)][1], abs=1e-6)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper


def test_quadratic_region_classification():
    full = region_hull(-1.0, 0.0, -1.0)
    assert (full.lower, full.upper) == (-math.inf, math.inf)

    left_ray = region_hull(0.0, 1.0, -4.0)  # 2y - 4 < 0
    assert left_ray.lower == -math.inf
    assert left_ray.upper == pytest.approx(2.0)

    right_ray = region_hull(0.0, -1.0, -4.0)  # -2y - 4 < 0
    assert right_ray.lower == pytest.approx(-2.0)
    assert right_ray.upper == math.inf

    assert region_hull(0.0, 0.0, -1.0).is_bounded is False
    assert region_hull(0.0, 0.0, 1.0).is_empty

    empty = region_hull(1.0, 0.0, 1.0)  # y^2 + 1 < 0
    assert empty.is_empty

    segment = region_hull(1.0, 0.0, -4.0)  # y^2 < 4
    assert segment.lower == pytest.approx(-2.0)
    assert segment.upper == pytest.approx(2.0)


def test_region_membership_matches_hull_endpoints():
    region = (2.0, -3.0, 1.0)
    hull = region_hull(*region)
    inside = 0.5 * (hull.lower + hull.upper)
    assert oracles.quadratic_contains(*region, inside)
    assert not oracles.quadratic_contains(*region, hull.upper + 1e-6)
    assert not oracles.quadratic_contains(*region, hull.lower - 1e-6)


def test_degenerate_centered_heads_give_the_full_line():
    # an intercept-only fit of equal past responses: every centered earlier
    # residual vanishes whatever the candidate, so the statistic is 0/0
    for ridge in (0.0, 0.01):
        for value in (0.0, 1.0, 7.5):
            history = history_of(np.zeros((2, 0)), [value, value])
            predictor = MvaPredictor(ridge)
            step = predictor.step(history, np.zeros(0))
            hull = hull_at(step, 4.3)
            assert (hull.lower, hull.upper) == (-math.inf, math.inf)
            assert predictor.pvalue(step, value + 5.0, 0.5) == 1.0


def test_too_few_observations_give_full_lines():
    history = history_of(TRAIN_X[:1], TRAIN_Y[:1])
    intervals = mva_predict(history, np.array([5.0]), (0.2, 0.05), ridge=0.01)
    assert all(i.lower == -math.inf and i.upper == math.inf for i in intervals)


def test_hull_against_grid_oracle_on_random_instances():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(3, 31))
        k = int(rng.integers(0, 6))
        ridge = float(rng.choice([0.0, 0.01]))
        if ridge == 0.0 and n <= k + 1:
            ridge = 0.01
        design = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        fixed = rng.normal(size=n - 1)
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        t_value = float(stats.t.ppf(1.0 - eps / 2.0, n - 2))
        offset, slope = oracles.affine_residuals(design, ridge, fixed)
        history = History.from_arrays(design[:-1, 1:], fixed)
        mine = hull_at(MvaPredictor(ridge).step(history, design[-1, 1:]), t_value)
        reference = oracles.quadratic_region_grid_hull(offset, slope, n, t_value)
        finite = [v for v in (mine.lower, mine.upper, reference.lower, reference.upper)
                  if np.isfinite(v)]
        if any(abs(v) > 5000.0 for v in finite):
            continue  # boundary too close to the grid edge to classify
        assert oracles.hulls_match(
            mine.lower, mine.upper, reference.lower, reference.upper
        ), (mine, reference)
        checked += 1
    assert checked >= 40


def test_raw_score_examples():
    assert oracles.centered_residual_score(np.array([-1.0, 1.0, 0.0])) == pytest.approx(0.0)
    with pytest.raises(DegenerateFitError):
        oracles.centered_residual_score(np.array([1.0, 1.0, 5.0]))
    with pytest.raises(ValueError):
        oracles.centered_residual_score(np.array([1.0, 2.0]))


def test_summary_score_matches_raw_computation():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(4, 25))
        k = int(rng.integers(0, 4))
        ridge = float(rng.choice([0.0, 0.01]))
        if ridge == 0.0 and n <= k + 1:
            ridge = 0.01
        features = rng.normal(size=(n, k))
        responses = rng.normal(size=n)
        history = history_of(features[:-1], responses[:-1])
        obs = Observation(features[-1], responses[-1])
        from_summary = mva_score(history, obs, ridge=ridge)
        design = np.column_stack([np.ones(n), features])
        raw = oracles.centered_score_direct(design, ridge, responses)
        assert from_summary == pytest.approx(raw, rel=1e-10, abs=1e-12)


def test_summary_score_on_an_exactly_linear_history_is_degenerate():
    # every residual is zero in exact arithmetic; near 1e9 rounding leaves
    # them a spread that is residue, not signal
    features = np.arange(1.0, 9.0)[:, None]
    for scale, offset in ((1.0, 0.0), (1e6, 1e9)):
        responses = scale * (2.0 * features[:, 0] + 3.0) + offset
        history = history_of(features, responses)
        with pytest.raises(DegenerateFitError):
            mva_score(history, Observation(np.array([9.0]), scale * 21.0 + offset))


def test_summary_score_rejects_an_observation_of_another_width():
    rng = np.random.default_rng(44)
    features = rng.normal(size=(20, 3))
    responses = features @ np.array([1.0, -1.0, 0.5]) + rng.normal(size=20)
    history = history_of(features, responses)
    for width in (2, 4):
        for active in (None, 2):
            with pytest.raises(ValueError, match=f"expected 3 features, got {width}"):
                mva_score(history, Observation(rng.normal(size=width), 0.5), active_count=active)


def test_summary_score_respects_feature_truncation():
    rng = np.random.default_rng(43)
    features = rng.normal(size=(8, 4))
    responses = rng.normal(size=8)
    history = history_of(features[:-1], responses[:-1])
    obs = Observation(features[-1], responses[-1])
    truncated = mva_score(history, obs, ridge=0.01, active_count=2)
    design = np.column_stack([np.ones(8), features[:, :2]])
    raw = oracles.centered_score_direct(design, 0.01, responses)
    assert truncated == pytest.approx(raw, rel=1e-10)


def test_realized_pvalue_flips_at_the_interval_boundary():
    history = history_of(TRAIN_X, TRAIN_Y)
    predictor = MvaPredictor(ridge=0.01)
    (interval,) = mva_predict(history, np.array([15.0]), (0.1,), ridge=0.01)
    shift = 1e-7 * (1.0 + abs(interval.upper))
    step = predictor.step(history, np.array([15.0]))
    inside = predictor.pvalue(step, interval.upper - shift, 0.5)
    outside = predictor.pvalue(step, interval.upper + shift, 0.5)
    assert inside > 0.1 >= outside


def test_pvalue_matches_direct_recomputation():
    rng = np.random.default_rng(44)
    predictor = MvaPredictor(ridge=0.01)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        k = int(rng.integers(0, 3))
        features = rng.normal(size=(n, k))
        responses = rng.normal(size=n)
        history = history_of(features[:-1], responses[:-1])
        p = predictor.pvalue(predictor.step(history, features[-1]), responses[-1], 0.5)
        design = np.column_stack([np.ones(n), features])
        expected = oracles.centered_pvalue_direct(design, 0.01, responses)
        assert p == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_one_residual_dimension_gives_empty_set_or_whole_line():
    # With ridge 0 and n = (active features) + 2 the residual space is one
    # direction, so the statistic is the same for every candidate response:
    # the interval must be exactly empty or exactly the whole line, and empty
    # exactly when the realized p-value (any response off the 0/0 point) is
    # at most the level.
    levels = (0.5, 0.2, 0.05)
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for k in range(6):
            features = rng.normal(size=(k + 2, k))
            responses = rng.normal(size=k + 2)
            cases.append((features, responses, None))
    rng = np.random.default_rng(99)
    early = FeatureSchedule(early_count=2, switch_step=10, full_count=4)
    cases.append((rng.normal(size=(4, 4)), rng.normal(size=4), early))  # n = 2 + 2

    seen = set()
    for features, responses, schedule in cases:
        history = history_of(features[:-1], responses[:-1])
        intervals = mva_predict(history, features[-1], levels, ridge=0.0, schedule=schedule)
        predictor = MvaPredictor(ridge=0.0, schedule=schedule)
        p = predictor.pvalue(predictor.step(history, features[-1]), responses[-1], 0.5)
        for eps, interval in zip(levels, intervals):
            bounds = (interval.lower, interval.upper)
            assert bounds in ((math.inf, -math.inf), (-math.inf, math.inf)), bounds
            empty = bounds == (math.inf, -math.inf)
            assert empty == (p <= eps), (eps, p, bounds)
            seen.add(empty)
    assert seen == {True, False}


def test_ridge_zero_structure_stays_exact_with_rows_pending(monkeypatch):
    # The check above run on-line, with every kept factor holding its
    # appended rows pending (the width floor patched to 0).  At n = K + 2 the
    # history's triangle has absorbed at most K rows of its K + 1 columns, so
    # it cannot whiten a held row and absorbs them all: nothing is pending
    # there, and the interval must still be exactly empty or the whole line.
    # From the next steps on rows are pending, and at every ridge-0 step,
    # one row or a block, the offset and the cross term are exactly 0: the
    # least-squares residuals at the prediction sum to zero and are
    # orthogonal to their change, which the step sets rather than reads.
    monkeypatch.setattr(olreg.base, "WIDTH_FLOOR", 0)
    levels = (0.5, 0.2, 0.05)
    seen, pending_steps = set(), 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for k in range(1, 6):
            features = rng.normal(size=(k + 14, k)) + 3.0
            responses = 1e3 + rng.normal(size=k + 14)
            predictor = MvaPredictor(ridge=0.0)
            history = History(k)
            for x, y in zip(features[:-3], responses[:-3]):
                if len(history) >= k + 1:
                    pending = history.pending_factor(0.0, k + 1).pending
                    assert pending == 0 or len(history) > k + 1
                    pending_steps += pending > 0
                    step = predictor.step(history, x)
                    block = predictor.step(history, np.vstack([x, features[-3:]]))
                    for numbers in (step, block):
                        assert np.all(numbers.last_offset == 0.0), numbers
                        assert np.all(numbers.head_ab == 0.0), numbers
                    if len(history) == k + 1:
                        p = predictor.pvalue(step, y, 0.5)
                        for eps, interval in zip(levels, predictor.predict(step, levels)):
                            bounds = (interval.lower, interval.upper)
                            assert bounds in ((math.inf, -math.inf), (-math.inf, math.inf))
                            assert (bounds == (math.inf, -math.inf)) == (p <= eps), (eps, p)
                            seen.add(bounds)
                else:
                    # an interpolating step, which still reads the factor
                    predictor.step(history, x)
                history.append(Observation(x, float(y)))
    assert len(seen) == 2 and pending_steps > 100


@pytest.mark.parametrize("seed", range(6))
def test_interpolating_ridge_zero_step_gives_full_lines_and_pvalue_one(seed):
    # K = 2 and n = 3 at ridge 0: the fit interpolates and every residual is
    # identically zero, so the statistic is 0/0 whatever the response; the
    # rounding residue left in the residuals must not decide the interval
    # or the p-value, which tripling the responses would then change
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(3, 2))
    responses = features @ np.array([1.0, 2.0]) + rng.normal(size=3)
    predictor = MvaPredictor(ridge=0.0, schedule=FeatureSchedule.for_feature_count(2))
    levels = (0.2, 0.05)
    for scale in (1.0, 3.0):
        history = history_of(features[:2], scale * responses[:2])
        step = predictor.step(history, features[2])
        assert step.interpolates
        for interval in predictor.predict(step, levels):
            assert (interval.lower, interval.upper) == (-math.inf, math.inf)
        assert predictor.pvalue(step, scale * responses[2], 0.5) == 1.0
        intervals = mva_predict(history, features[2], levels, ridge=0.0)
        assert all((i.lower, i.upper) == (-math.inf, math.inf) for i in intervals)


def vector_route(history, x, response, predictor, levels):
    """Intervals and realized p-value of an MVA step from its residual
    vectors: the explicit residual map around the mean past response
    (``oracles.affine_residuals``) and ``oracles.centered_residual_score``,
    with the ridge-0 structure decided on those vectors.  A ridge-0 fit of
    no more rows than columns interpolates, whatever the rows' rank: full
    lines.  Otherwise a ridge-0 history design of lower rank
    (``matrix_rank``) raises."""
    n = len(history) + 1
    schedule = predictor.schedule
    active = schedule.active_features(n) if schedule is not None else history.feature_count
    cols = active + 1
    full = [(-math.inf, math.inf)] * len(levels)
    if predictor.ridge == 0.0 and n <= cols:
        return full, 1.0
    head = history.design_matrix[:, :cols]
    if predictor.ridge == 0.0 and np.linalg.matrix_rank(head) < cols:
        raise RankDeficiencyError("history design is rank deficient")
    reference = float(history.responses.mean())
    design = np.vstack([head, np.append(1.0, x[:active])])
    offset, slope = oracles.affine_residuals(design, predictor.ridge, history.responses, reference)
    t_values = two_sided_quantiles(n - 2, levels).tolist()
    factor = math.sqrt((n - 1) * (n - 2) / n)

    def statistic(residuals):
        try:
            return abs(factor * oracles.centered_residual_score(residuals))
        except DegenerateFitError:
            return None

    realized = statistic(offset + (response - reference) * slope)
    if predictor.ridge == 0.0 and n == cols + 1:
        # one residual direction: the statistic does not depend on y
        big_offset = np.linalg.norm(offset) >= np.linalg.norm(slope)
        fixed = statistic(offset if big_offset else slope)
        if fixed is None:
            return full, 1.0
        bounds = [(-math.inf, math.inf) if fixed < t else (math.inf, -math.inf) for t in t_values]
        return bounds, 2.0 * stdtr(n - 2, -fixed)
    a = offset - offset[:-1].mean()
    b = slope - slope[:-1].mean()
    bounds = []
    for t in t_values:
        if not a[:-1].any() and not b[:-1].any():
            bounds.append((-math.inf, math.inf))
            continue
        weight, scale = t * t * n, float((n - 1) * (n - 2))
        lower, upper = oracles.quadratic_hull(
            scale * b[-1] ** 2 - weight * float(b[:-1] @ b[:-1]),
            scale * a[-1] * b[-1] - weight * float(a[:-1] @ b[:-1]),
            scale * a[-1] ** 2 - weight * float(a[:-1] @ a[:-1]),
        )
        bounds.append((lower + reference, upper + reference))
    pvalue = 1.0 if realized is None else 2.0 * stdtr(n - 2, -realized)
    return bounds, pvalue


def shape_of(lower, upper):
    if (lower, upper) == (math.inf, -math.inf):
        return "empty"
    if math.isinf(lower) and math.isinf(upper):
        return "full"
    return "ray" if math.isinf(lower) or math.isinf(upper) else "bounded"


def test_step_from_the_kept_factors_matches_the_vector_route():
    # endpoints within the tolerance times the width (for a ray, times the
    # distance from the step's center), and p-values within the tolerance
    levels = (0.2, 0.05, 0.01)
    shifts = ((0.0, 0.0, 1e-9), (1e9, 0.0, 1e-6), (0.0, 1e3, 1e-6))
    compared = {"empty": 0, "full": 0, "ray": 0, "bounded": 0, "raised": 0, "interpolated": 0}
    for k in range(6):
        rng = np.random.default_rng(500 + k)
        features = rng.normal(size=(k + 12, k))
        responses = features @ rng.normal(size=k) + rng.normal(size=k + 12)
        schedules = [None] + ([FeatureSchedule(max(1, k // 2), k + 4, k)] if k else [])
        for ridge in (0.0, 0.01, 0.5):
            for schedule in schedules:
                predictor = MvaPredictor(ridge, schedule)
                for y_shift, x_shift, tolerance in shifts:
                    for n in range(3, k + 13):
                        history = history_of(features[: n - 1] + x_shift, responses[: n - 1] + y_shift)
                        x, y = features[n - 1] + x_shift, responses[n - 1] + y_shift
                        try:
                            want, want_p = vector_route(history, x, y, predictor, levels)
                        except RankDeficiencyError:
                            with pytest.raises(RankDeficiencyError):
                                predictor.step(history, x)
                            compared["raised"] += 1
                            continue
                        step = predictor.step(history, x)
                        got = predictor.predict(step, levels)
                        case = (k, ridge, schedule, y_shift, x_shift, n)
                        compared["interpolated"] += ridge == 0.0 and step.interpolates
                        for interval, (lower, upper) in zip(got, want):
                            shape = shape_of(lower, upper)
                            assert shape_of(interval.lower, interval.upper) == shape, (case, interval, want)
                            compared[shape] += 1
                            if shape == "bounded":
                                scale = upper - lower
                            elif shape == "ray":
                                scale = 1.0 + abs((lower if math.isfinite(lower) else upper) - step.center)
                            else:
                                continue
                            for mine, theirs in ((interval.lower, lower), (interval.upper, upper)):
                                if math.isfinite(theirs):
                                    assert abs(mine - theirs) <= tolerance * scale, (case, interval, want)
                        # under a shift the responses' own rounding (1e9 * eps) moves
                        # the statistic on either route, so p gets the shift's tolerance
                        got_p = predictor.pvalue(step, y, 0.5)
                        assert got_p == pytest.approx(want_p, abs=tolerance), case
    # a ray needs a leading coefficient of exactly zero, which random data
    # does not give, and full-rank random histories raise nothing (the
    # rank rule is met in test_ridge_zero_rank_is_decided_on_the_history_design);
    # every other outcome is met
    assert all(
        compared[shape] for shape in ("empty", "full", "bounded", "interpolated")
    ), compared


def test_mva_run_forms_no_residual_vector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the MVA path formed a residual vector")

    for module in (olreg.predictors, olreg.numerics):
        monkeypatch.setattr(module, "residual_decomposition", refuse)
        monkeypatch.setattr(module, "RidgeProjector", refuse)
    for k, ridge in ((2, 0.0), (2, 0.01), (12, 0.01)):
        rng = np.random.default_rng(k)
        features = rng.normal(size=(40, k))
        stream = [Observation(row, float(row.sum() + rng.normal())) for row in features]
        predictor = MvaPredictor(ridge, FeatureSchedule.for_feature_count(k))
        for smoothed in (False, True):
            ledger = run_online(predictor, stream, (0.1, 0.05), smoothed=smoothed)
            assert ledger.step_count == 40


def test_ridge_zero_rank_is_decided_on_the_history_design():
    # x2 = x1 in every past row, so the history's design has rank 2 of 3;
    # the new row alone would make the step's rows full rank, but the rank
    # rule reads the history's design block, as GaussPredictor does
    rng = np.random.default_rng(12)
    first = rng.normal(size=8)
    features = np.column_stack([first, first])
    responses = first + rng.normal(size=8)
    history = history_of(features, responses)
    x = np.array([0.3, -1.2])
    with pytest.raises(RankDeficiencyError):
        MvaPredictor().step(history, x)
    with pytest.raises(RankDeficiencyError):
        mva_score(history, Observation(x, 0.5))
    # a positive ridge keeps the step, and the new row's rank does not matter
    step = MvaPredictor(ridge=0.01).step(history, x)
    assert all(i.lower < i.upper for i in MvaPredictor(ridge=0.01).predict(step, (0.1,)))


# ---------------------------------------------------------------------------
# Order-statistic predictor
# ---------------------------------------------------------------------------


def test_order_statistic_interval_and_level():
    interval = wilks_predict(np.array([1.0, 2.0, 3.0, 4.0]), depth=1)
    assert (interval.lower, interval.upper) == (1.0, 4.0)
    assert wilks_level(5, 1) == pytest.approx(2.0 / 5.0)


def test_order_statistic_needs_enough_history():
    full = wilks_predict(np.array([1.0, 2.0, 3.0]), depth=2)
    assert (full.lower, full.upper) == (-math.inf, math.inf)
    deeper = wilks_predict(np.arange(10.0), depth=2)
    assert (deeper.lower, deeper.upper) == (1.0, 8.0)
    assert wilks_level(11, 2) == pytest.approx(4.0 / 11.0)


def test_order_statistic_rejects_bad_depth():
    with pytest.raises(ValueError):
        wilks_predict(np.array([1.0, 2.0]), depth=0)
