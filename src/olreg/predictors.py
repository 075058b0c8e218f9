"""Interval predictors for on-line linear regression.

Every predictor here answers the same question: after n-1 revealed
observations and a new explanatory vector, which candidate responses y would
not look strange at significance level epsilon?  The reported interval is the
convex hull of the surviving candidates, one interval per level of a strictly
decreasing ladder.

Four predictors are provided, differing in what they assume about the data:

* ``iid_predict`` assumes exchangeability only.  A candidate survives when
  the rank of its ridge residual magnitude among all n residual magnitudes is
  not extreme; the exact survivor set is found by a sweep over the at most
  2n - 2 points where two residual magnitudes cross.
* ``gauss_predict`` assumes the full linear-Gaussian model and inverts the
  classical studentized prediction pivot.
* ``mva_predict`` assumes Gaussian noise but nothing about the explanatory
  law; it studentizes the last centered ridge residual and classifies the
  resulting quadratic inequality in y.
* ``iidgauss_predict`` assumes the Gaussian response model with exchangeable
  explanatory vectors and estimates p-values by Monte Carlo draws from the
  exact conditional distribution given the sufficient summary; the survivor
  set of those estimates is found exactly, by a sweep over the at most four
  points per draw where the draw's score crosses the candidate's.

``wilks_predict`` is the model-free order-statistic predictor used as a
baseline: it needs no explanatory data at all.

Conventions: intervals are closed, the pair (+inf, -inf) encodes the empty
set, and degenerate fits fall back to documented conventions (a zero
estimated spread gives a point interval, an identically zero spread over all
candidates gives the full line) instead of empty output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, sqrt

import numpy as np
from scipy.linalg import solve_triangular

from .base import (
    DegenerateFitError,
    FeatureSchedule,
    History,
    PredictionInterval,
    Observation,
    RankDeficiencyError,
    _leading_factor,
    _passes_rank_rule,
    _rank_tolerance,
    absorb_rows,
    validate_levels,
)
from .numerics import (
    ResidualDecomposition,
    RidgeProjector,
    StudentT,
    residual_decomposition,
)
from .sampler import complement_directions, random_orderings


def _full_lines(count: int) -> list[PredictionInterval]:
    return [PredictionInterval.full_line() for _ in range(count)]


def _new_row(x_new, feature_count: int) -> np.ndarray:
    x = np.asarray(x_new, dtype=float).ravel()
    if x.size != feature_count:
        raise ValueError(f"expected {feature_count} features, got {x.size}")
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("explanatory components must be finite")
    return x


def _step_projector(
    history: History,
    x_new,
    ridge: float,
    schedule: FeatureSchedule | None,
    reference: float,
) -> RidgeProjector:
    """Ridge projector of the history rows plus the new one, truncated to the
    scheduled column count, with ``reference`` as the new row's response.

    Built from the history's kept factor for ``ridge`` plus the new row:
    O(K^2) on top of the history's own O(K^2) per appended row, one O(n)
    reference vector, and no copy of the design.  The new row only raises
    the smallest singular value, so the rank certificate the history carries
    for that factor settles the projector's rank rule without an inverse.
    """
    k = history.feature_count
    x = _new_row(x_new, k)
    n = len(history) + 1
    active = schedule.active_features(n) if schedule is not None else k
    if active > k:
        raise ValueError(f"schedule asks for {active} features but only {k} exist")
    cols = active + 1
    row = np.empty(cols)
    row[0] = 1.0
    row[1:] = x[:active]
    return RidgeProjector(
        history.design_matrix[:, :cols],
        ridge,
        new_row=row,
        factor=history.triangular_factor(ridge, cols),
        responses=history.responses,
        reference=reference,
        inverse_norm=history.design_inverse_norm(ridge),
    )


def _shifted(interval: PredictionInterval, by: float) -> PredictionInterval:
    """The interval moved by ``by``; the empty set and infinite ends stay."""
    return PredictionInterval(interval.lower + by, interval.upper + by)


# ---------------------------------------------------------------------------
# Rank-counting predictor for exchangeable data (the "IID" predictor)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepState:
    """Sorted crossing points with membership deltas and boundary counts.

    ``points`` starts at -inf and ends at +inf; ``deltas`` aligns with it,
    and ``counts``, its running prefix sum, equals n * p(y) for y in the
    half-open cell that starts at the corresponding point, where p(y) is the
    fraction of the n residual magnitudes at least as large as the
    candidate's own.  ``left_count`` and ``right_count`` tally the
    comparison sets that are unbounded to the left and to the right.
    """

    points: np.ndarray
    deltas: np.ndarray
    counts: np.ndarray
    left_count: int
    right_count: int

    @classmethod
    def from_crossings(cls, points, deltas, left: int, right: int) -> "SweepState":
        """Sort the crossing points (lists of arrays) between the infinite sentinels.

        The sentinels carry ``left`` + 1 and -``right`` - 1: the candidate's
        own score is always counted.  One ``argsort`` orders the points; only
        when two of them are equal does a stable ``lexsort`` on (point,
        -delta) replace it, so that at a tie the +1 entries come first and
        the prefix peak at a point equals the membership count there.
        Entries that tie on both keys are equal (at most the sign of a zero
        differs), so the order in which they are emitted does not matter.
        Without ties both sorts give the one ascending order.
        """
        all_points = np.concatenate([[-inf], *points, [inf]])
        all_deltas = np.concatenate([[left + 1], *deltas, [-right - 1]], dtype=np.int64)
        order = np.argsort(all_points)
        sorted_points = all_points[order]
        if (sorted_points[1:] == sorted_points[:-1]).any():
            order = np.lexsort((-all_deltas, all_points))
            sorted_points = all_points[order]
        sorted_deltas = all_deltas[order]
        return cls(sorted_points, sorted_deltas, np.cumsum(sorted_deltas), left, right)


def build_sweep(offset: np.ndarray, slope: np.ndarray) -> SweepState:
    """Locate every candidate response where two residual magnitudes cross.

    The i-th residual is the affine function offset_i + y * slope_i, and the
    comparison set S_i = {y : |e_i(y)| >= |e_n(y)|} is closed: an interval, a
    point, one ray, two rays, the whole line, or empty.  Each bounded
    transition contributes a crossing point carrying +1 where S_i begins and
    -1 where it ends; sets reaching an infinity are tallied in the boundary
    counts instead.  Ties in slope or offset are compared exactly: equality
    of floats is the event the case analysis is about, and near-coincident
    slopes simply produce a far-away crossing point that the infinite
    sentinels absorb.
    """
    offset = np.asarray(offset, dtype=float)
    slope = np.asarray(slope, dtype=float)
    if offset.shape != slope.shape or offset.ndim != 1 or offset.size < 1:
        raise ValueError("offset and slope must be 1-d arrays of equal positive length")
    # Normalize signs so every slope is nonnegative; |e_i| is unchanged.
    flip = slope < 0.0
    offset = np.negative(offset, out=offset.copy(), where=flip)
    slope = np.negative(slope, out=slope.copy(), where=flip)
    a, b = offset[:-1], slope[:-1]
    last_offset, last_slope = offset[-1], slope[-1]

    # Unequal slopes: both magnitudes cross twice (counting multiplicity),
    # where the difference and where the sum of the two affine maps vanish.
    differ = b != last_slope
    a_d, b_d = a[differ], b[differ]
    first = np.subtract(a_d, last_offset)
    np.negative(first, out=first)
    first /= b_d - last_slope
    second = np.add(a_d, last_offset)
    np.negative(second, out=second)
    second /= b_d + last_slope
    ordered = first <= second
    # A smaller slope makes S_i the closed interval [lo, hi] (a single point
    # when they coincide); a larger one makes it the two closed rays past lo
    # and hi, or the whole line at a tangency from above (lo == hi), which
    # adds no points.
    inside = b_d < last_slope
    kept = inside | (first != second)
    starts = np.where(inside[kept], 1, -1)
    points = [np.where(ordered, first, second)[kept], np.where(ordered, second, first)[kept]]
    deltas = [starts, -starts]
    left = right = int(inside.size - np.count_nonzero(inside))

    same_slope = a[~differ]
    if same_slope.size:
        same = same_slope == last_offset  # identical magnitudes: the whole line
        if last_slope != 0.0:
            # Equal nonzero slopes: one crossing, S_i is a single ray.
            moving = same_slope[~same]
            points.append(-(moving + last_offset) / (2.0 * last_slope))
            rightward = moving > last_offset
            deltas.append(np.where(rightward, 1, -1))
            right_rays = int(np.count_nonzero(rightward))
            left += moving.size - right_rays
            right += right_rays
            covering = int(np.count_nonzero(same))
        else:
            # Both magnitudes constant: S_i is everything or nothing.
            covering = int(np.count_nonzero(same | (np.abs(same_slope) >= abs(last_offset))))
        left += covering
        right += covering

    return SweepState.from_crossings(points, deltas, left, right)


def sweep_hull(state: SweepState, count: int, epsilon: float) -> PredictionInterval:
    """Convex hull of the candidates whose rank fraction exceeds ``epsilon``.

    The state's prefix counts give count * p(y) per cell; a cell or point
    qualifies when p(y) = counts / count > epsilon, so no sum is taken
    again per level.  The hull runs from the first qualifying position to
    the point just after the last one: qualifying sets are closed, so the
    supremum of a qualifying open cell is itself a member.
    """
    qualifying = np.flatnonzero(state.counts / count > epsilon)
    if qualifying.size == 0:
        return PredictionInterval.empty()
    return PredictionInterval(
        state.points[qualifying[0]], state.points[qualifying[-1] + 1]
    )


@dataclass(frozen=True, eq=False)
class RidgeStep:
    """One IID or MVA step: the ridge fit shared by its intervals and p-value.

    ``projector`` fits the history rows plus the new one, truncated to the
    scheduled columns, with the mean past response as the new row's
    reference; ``decomposition`` writes every residual as an affine function
    of the candidate response around that reference.  ``responses`` are the
    history's.
    """

    responses: np.ndarray
    projector: RidgeProjector
    decomposition: ResidualDecomposition

    @property
    def count(self) -> int:
        return self.projector.row_count

    @property
    def interpolates(self) -> bool:
        """Ridge 0 with as many rows as columns: every residual is identically zero."""
        return self.projector.ridge == 0.0 and self.count == self.projector.column_count

    def residuals(self, response: float) -> np.ndarray:
        """The n residuals once ``response`` is revealed, solved by the projector."""
        return self.projector.residuals(np.append(self.responses, response))


def _ridge_step(
    history: History,
    x_new,
    ridge: float,
    schedule: FeatureSchedule | None,
    minimum: int,
) -> RidgeStep | None:
    """The step at n = len(history) + 1, or None when n is below ``minimum``."""
    if len(history) + 1 < minimum:
        return None
    projector = _step_projector(
        history, x_new, ridge, schedule, float(history.responses.mean())
    )
    return RidgeStep(
        history.responses, projector, residual_decomposition(projector, history.responses)
    )


def _iid_step(history, x_new, ridge, schedule) -> RidgeStep | None:
    """The rank predictor's step; None on an empty history."""
    return _ridge_step(history, x_new, ridge, schedule, 2)


def _iid_intervals(step: RidgeStep | None, levels) -> list[PredictionInterval]:
    levels = validate_levels(levels)
    if step is None or step.interpolates:
        # every residual ties with the candidate's, whatever the candidate
        return _full_lines(len(levels))
    decomposition = step.decomposition
    state = build_sweep(decomposition.offset, decomposition.slope)
    return [
        _shifted(sweep_hull(state, step.count, eps), decomposition.reference)
        for eps in levels
    ]


def iid_predict(
    history: History,
    x_new,
    levels,
    ridge: float = 0.0,
    schedule: FeatureSchedule | None = None,
) -> list[PredictionInterval]:
    """Distribution-free prediction intervals from ridge residual ranks.

    A candidate response y survives at level epsilon when more than an
    epsilon fraction of the n ridge residual magnitudes (computed with the
    candidate appended) are at least as large as the candidate's own.  Ties
    count in the candidate's favour, which makes the predictor conservative:
    its error rate never exceeds epsilon in probability, at the price of
    slightly longer intervals than the tie-smoothed ideal.

    With an empty history every candidate is maximally typical, so the full
    line is returned at any level.  So it is at ridge 0 with as many rows as
    columns: the fit interpolates and every residual is zero whatever the
    candidate, which that structure decides rather than rounding residue.
    The residuals are decomposed around the mean past response, and the
    sweep runs in the distance from it.
    """
    return _iid_intervals(_iid_step(history, x_new, ridge, schedule), levels)


def iid_pvalue(scores, tie_break: float) -> float:
    """Rank fraction of the last score with randomized tie handling.

    ``tie_break`` is the tie weight tau in [0, 1]: strictly larger scores
    always count against the last observation, equal ones count with weight
    tau.  tau = 1 reproduces the deterministic (conservative) rule.
    """
    if not 0.0 <= tie_break <= 1.0:
        raise ValueError("tie_break must lie in [0, 1]")
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size < 1:
        raise ValueError("scores must be a nonempty 1-d array")
    last = scores[-1]
    larger = int(np.count_nonzero(scores > last))
    equal = int(np.count_nonzero(scores == last))
    return (larger + tie_break * equal) / scores.size


def iid_bounded_threshold(epsilon: float) -> int:
    """Smallest step at which the rank predictor can return a bounded interval."""
    return ceil(1.0 / epsilon)


# ---------------------------------------------------------------------------
# Studentized pivot predictor under the full linear-Gaussian model ("Gauss")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussFit:
    """Least-squares fit of the history plus the geometry of one new point."""

    coefficients: np.ndarray
    sigma_hat: float
    leverage: float
    point_prediction: float
    degrees_of_freedom: int


def gauss_fit(history: History, x_new) -> GaussFit:
    """Fit the history by least squares and studentize the new design point.

    ``sigma_hat`` is the usual unbiased residual scale estimate and
    ``leverage`` the quadratic form z'(Z'Z)^{-1}z of the new design row; the
    prediction pivot (y - point_prediction) / (sigma_hat * sqrt(1 + leverage))
    follows a Student t law with ``degrees_of_freedom`` when the model holds.

    Everything is read from the triangular factor R of [design | responses]
    that the history keeps: the coefficients solve R_D b = r_y on R's leading
    block and its response column, the leverage is ||R_D^-T z||^2 (no Gram
    matrix is formed, so its conditioning is not squared), and ``sigma_hat``
    comes from the direct residuals y - Z b, so a perfectly interpolated
    history gives exactly zero.  With the factor up to date a call costs two
    O(K^2) triangular solves plus the O(nK) residual product.
    """
    x = _new_row(x_new, history.feature_count)
    design = history.design_matrix
    rows, cols = design.shape
    if rows <= cols:
        raise RankDeficiencyError(
            f"need more than {cols} observations to estimate the residual scale"
        )
    if not history.design_has_full_rank():
        raise RankDeficiencyError("history design matrix is rank deficient")
    new_row = np.concatenate([[1.0], x])
    coefficients, leverage = _solve_and_leverage(history.triangular_factor(), new_row)
    fitted_residuals = history.responses - design @ coefficients
    dof = rows - cols
    sigma_hat = sqrt(float(fitted_residuals @ fitted_residuals) / dof)
    return GaussFit(
        coefficients=coefficients,
        sigma_hat=sigma_hat,
        leverage=leverage,
        point_prediction=float(coefficients @ new_row),
        degrees_of_freedom=dof,
    )


def _solve_and_leverage(factor: np.ndarray, new_row: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coefficients and the leverage of ``new_row`` from the
    triangle R of [design | responses]: b solves R_D b = r_y on R's leading
    block R_D and its response column, and the leverage is ||R_D^-T z||^2."""
    cols = new_row.size
    leading = factor[:cols, :cols]
    coefficients = solve_triangular(leading, factor[:cols, cols], check_finite=False)
    whitened = solve_triangular(leading, new_row, trans="T", check_finite=False)
    return coefficients, float(whitened @ whitened)


def _gauss_step(history: History, x_new) -> GaussFit | None:
    """The pivot predictor's step: the fit, or None before step K + 3."""
    if len(history) + 1 < history.feature_count + 3:
        return None
    return gauss_fit(history, x_new)


def _pivot_intervals(fit: GaussFit | None, levels) -> list[PredictionInterval]:
    levels = validate_levels(levels)
    if fit is None:
        return _full_lines(len(levels))
    if fit.sigma_hat == 0.0:
        return [
            PredictionInterval(fit.point_prediction, fit.point_prediction)
            for _ in levels
        ]
    spread = fit.sigma_hat * sqrt(1.0 + fit.leverage)
    dist = StudentT(fit.degrees_of_freedom)
    out = []
    for eps in levels:
        half = dist.upper_quantile(eps / 2.0) * spread
        out.append(
            PredictionInterval(fit.point_prediction - half, fit.point_prediction + half)
        )
    return out


def gauss_predict(history: History, x_new, levels) -> list[PredictionInterval]:
    """Classical studentized prediction intervals, full line before step K+3.

    Below step K + 3 the residual scale has no degrees of freedom, so the
    predictor abstains with the whole line; from K + 3 on the intervals are
    exact under the linear-Gaussian model.  A zero estimated scale (perfectly
    interpolated history) collapses the interval to the point prediction.
    """
    return _pivot_intervals(_gauss_step(history, x_new), levels)


@dataclass(frozen=True, eq=False)
class RegressionSummary:
    """Sufficient summary of a history for ``gauss_score`` and ``mva_score``.

    ``factor`` is the upper triangle R of [1 | x | y] over the ``count``
    summarized rows, a copy of ``History.triangular_factor()``: R'R is the
    matrix of the rows' cross-moments, but no Gram matrix is formed, so a
    score read from R by triangular solves keeps the design's conditioning
    unsquared.
    """

    count: int
    factor: np.ndarray

    @classmethod
    def from_history(cls, history: History) -> "RegressionSummary":
        return cls(len(history), np.array(history.triangular_factor()))


def gauss_score(summary: RegressionSummary, observation: Observation) -> float:
    """Studentized residual magnitude of a new observation, from the summary.

    Equals |y - yhat| / (sigma_hat * sqrt(1 + leverage)) computed from the
    raw history; requires at least K + 2 summarized observations so the
    residual scale has a positive number of degrees of freedom.  The fit and
    the leverage come from the summary's triangle as in ``gauss_fit``, under
    the same least-squares rank rule, and sigma_hat from its last diagonal
    entry, the root of the residual energy.  A residual energy at the
    least-squares cut-off relative to the responses' own (a perfectly
    interpolated history) raises ``DegenerateFitError``.
    """
    factor = summary.factor
    cols = factor.shape[0] - 1
    dof = summary.count - cols
    if dof < 1:
        raise ValueError(f"need more than {cols} summarized observations")
    if not _passes_rank_rule(factor[:cols, :cols], summary.count):
        raise RankDeficiencyError("summarized design is rank deficient")
    residual_norm = abs(float(factor[-1, -1]))
    tolerance = _rank_tolerance(summary.count, cols + 1)
    if residual_norm <= tolerance * np.linalg.norm(factor[:, -1]):
        raise DegenerateFitError("summarized history is perfectly interpolated")
    row = np.concatenate([[1.0], observation.explanatory])
    coefficients, leverage = _solve_and_leverage(factor, row)
    sigma_hat = residual_norm / sqrt(dof)
    prediction = float(coefficients @ row)
    return abs(observation.response - prediction) / (sigma_hat * sqrt(1.0 + leverage))


# ---------------------------------------------------------------------------
# Studentized centered-residual predictor ("MVA"): Gaussian noise, free design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticRegion:
    """The candidate set {y : lead y^2 + 2 cross y + constant < 0}."""

    lead: float
    cross: float
    constant: float

    @property
    def discriminant(self) -> float:
        return self.cross * self.cross - self.lead * self.constant

    def contains(self, value: float) -> bool:
        return (self.lead * value + 2.0 * self.cross) * value + self.constant < 0.0

    def hull(self) -> PredictionInterval:
        """Convex hull of the region.

        A negative leading coefficient means the region reaches both
        infinities (its complement is at most an interval), so the hull is
        the whole line.  A vanishing leading coefficient leaves a ray, the
        line, or nothing; a positive one leaves an open interval between the
        roots or nothing.
        """
        if self.lead < 0.0:
            return PredictionInterval.full_line()
        if self.lead == 0.0:
            if self.cross > 0.0:
                return PredictionInterval(-inf, -self.constant / (2.0 * self.cross))
            if self.cross < 0.0:
                return PredictionInterval(-self.constant / (2.0 * self.cross), inf)
            if self.constant < 0.0:
                return PredictionInterval.full_line()
            return PredictionInterval.empty()
        disc = self.discriminant
        if disc <= 0.0:
            return PredictionInterval.empty()
        root = sqrt(disc)
        return PredictionInterval(
            (-self.cross - root) / self.lead, (-self.cross + root) / self.lead
        )


def _centered_region(
    a: np.ndarray, b: np.ndarray, count: int, t_value: float
) -> QuadraticRegion:
    """Quadratic form of the studentized-last-centered-residual inequality.

    ``a`` and ``b`` decompose the n ridge residuals as affine functions of
    the candidate response, both already centered by the mean of their first
    n-1 components.  A candidate survives when

        sqrt((n-1)/n) |a_n + y b_n| < t * sqrt(sum_{i<n} (a_i + y b_i)^2 / (n-2)),

    which after squaring is the region carried by the returned coefficients.
    """
    scale = float((count - 1) * (count - 2))
    weight = t_value * t_value * count
    head_a, head_b = a[:-1], b[:-1]
    return QuadraticRegion(
        lead=scale * float(b[-1] * b[-1]) - weight * float(head_b @ head_b),
        cross=scale * float(a[-1] * b[-1]) - weight * float(head_a @ head_b),
        constant=scale * float(a[-1] * a[-1]) - weight * float(head_a @ head_a),
    )


def _centered(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values - values[:-1].mean()


def mva_hull(offset, slope, count: int, t_value: float) -> PredictionInterval:
    """Hull of the studentized-centered-residual region for one t threshold.

    When every centered residual of the first n-1 observations is exactly
    zero at every candidate (offset and slope heads all zero), the statistic
    is 0/0 and carries no evidence against any candidate, so the full line is
    returned rather than the empty set the raw algebra would give.
    """
    a, b = _centered(offset), _centered(slope)
    if not a[:-1].any() and not b[:-1].any():
        return PredictionInterval.full_line()
    return _centered_region(a, b, count, t_value).hull()


def centered_residual_score(residuals) -> float:
    """Last residual centered by the earlier mean, over the centered spread.

    The raw-data route to the same score that ``mva_score`` computes from a
    ``RegressionSummary``: with residuals e_1 ... e_n, returns
    (e_n - mean(e_1..e_{n-1})) / sqrt(sum_{i<n} (e_i - mean)^2), keeping the
    sign.  Zero spread among the earlier residuals is a degenerate fit.
    """
    residuals = np.asarray(residuals, dtype=float).ravel()
    if residuals.size < 3:
        raise ValueError("need at least three residuals")
    head = residuals[:-1]
    head_mean = head.mean()
    spread = float(((head - head_mean) ** 2).sum())
    if spread == 0.0:
        raise DegenerateFitError("earlier residuals have zero spread")
    return float((residuals[-1] - head_mean) / sqrt(spread))


def _mva_step(history, x_new, ridge, schedule) -> RidgeStep | None:
    """The centered-residual predictor's step; None before step 3."""
    return _ridge_step(history, x_new, ridge, schedule, 3)


def _mva_intervals(step: RidgeStep | None, levels) -> list[PredictionInterval]:
    levels = validate_levels(levels)
    if step is None or step.interpolates:
        # every residual is identically zero: the statistic is 0/0 everywhere
        return _full_lines(len(levels))
    n = step.count
    projector, decomposition = step.projector, step.decomposition
    dist = StudentT(n - 2)
    if projector.ridge == 0.0 and n == projector.column_count + 1:
        # offset and slope both lie on the residual direction; either may vanish
        offset, slope = decomposition.offset, decomposition.slope
        direction = offset if np.linalg.norm(offset) >= np.linalg.norm(slope) else slope
        try:
            score = centered_residual_score(direction)
        except DegenerateFitError:
            return _full_lines(len(levels))
        statistic = sqrt((n - 1) * (n - 2) / n) * abs(score)
        return [
            PredictionInterval.full_line()
            if statistic < dist.upper_quantile(eps / 2.0)
            else PredictionInterval.empty()
            for eps in levels
        ]
    return [
        _shifted(
            mva_hull(
                decomposition.offset,
                decomposition.slope,
                n,
                dist.upper_quantile(eps / 2.0),
            ),
            decomposition.reference,
        )
        for eps in levels
    ]


def mva_predict(
    history: History,
    x_new,
    levels,
    ridge: float = 0.0,
    schedule: FeatureSchedule | None = None,
) -> list[PredictionInterval]:
    """Prediction intervals from the studentized last centered ridge residual.

    Valid whenever the noise is Gaussian, whatever the explanatory vectors
    are; informative from step 3 on with a positive ridge, and from step
    K + 3 on with ridge 0 (K the number of active features).  Residuals come
    from one ridge fit of all n rows, so the candidate response enters every
    residual and the survivor set is a quadratic region classified exactly
    (no search).  The region is solved in the distance from the mean past
    response, so its coefficients do not grow with the responses' distance
    from zero.

    With ridge 0 at n = K + 1 the fit interpolates: every residual is zero
    whatever the candidate, so the statistic is 0/0 and the whole line is
    returned, decided by that structure rather than by rounding residue.
    With ridge 0 at n = K + 2 the residual space is one-dimensional: every
    candidate's residual vector is a multiple of one direction, so the
    statistic does not depend on y (apart from the single candidate where it
    is 0/0).  The interval is then the empty set or the whole line, decided
    once from that direction rather than from the sign of a discriminant that
    is exactly zero and only rounding makes positive.
    """
    return _mva_intervals(_mva_step(history, x_new, ridge, schedule), levels)


def mva_score(
    summary: RegressionSummary,
    observation: Observation,
    ridge: float = 0.0,
    active_count: int | None = None,
) -> float:
    """Last centered ridge residual over the root of the centered energy.

    The score is signed: (e_n - mean of earlier residuals) divided by the
    root of the summed squared deviations of the earlier residuals, all read
    from the summary's triangle.  ``active_count`` truncates the regression
    to the first features, mirroring a feature schedule.  With ridge 0 it
    raises ``RankDeficiencyError`` under the least-squares rank rule, as
    ``gauss_score`` does, and ``DegenerateFitError`` at n = active + 1,
    where the fit interpolates and every residual is zero.  A centered
    spread at the least-squares cut-off relative to the past responses' own
    energy (an exactly linear history) is ``DegenerateFitError`` too.

    The head triangle R of [1 | x | y] is truncated to the active columns,
    and sqrt(ridge) I and the new row [1, x, y] are absorbed into a copy of
    it to solve for the ridge coefficients c.  With w = R [-c, 1] the head
    residuals are Q w for R's orthogonal factor Q, whose first column is the
    ones column over R[0, 0] = +-sqrt(count): so the head residuals sum to
    R[0, 0] w[0] and their centered energy is ||w[1:]||^2, with no column
    sums formed and no difference of energies that could cancel.
    """
    k = summary.factor.shape[0] - 2
    active = k if active_count is None else int(active_count)
    if not 0 <= active <= k:
        raise ValueError(f"active_count must lie in [0, {k}]")
    head = summary.count
    n = head + 1
    if n < 3:
        raise ValueError("need at least three observations in total")

    cols = active + 1
    factor = _leading_factor(summary.factor, cols)
    new_row = np.concatenate([[1.0], observation.explanatory[:active]])
    rows = np.append(new_row, observation.response)[None, :]
    if ridge > 0.0:
        rows = np.vstack([sqrt(ridge) * np.eye(cols, cols + 1), rows])
    full = absorb_rows(factor, rows)
    if ridge == 0.0:
        if not _passes_rank_rule(full[:cols, :cols], n):
            raise RankDeficiencyError("design is rank deficient; use a positive ridge")
        if n == cols:
            raise DegenerateFitError("the fit interpolates: every residual is zero")
    coefficients = solve_triangular(full[:cols, :cols], full[:cols, -1], check_finite=False)

    last_residual = observation.response - float(new_row @ coefficients)
    weights = factor @ np.append(-coefficients, 1.0)
    head_mean = float(factor[0, 0] * weights[0]) / head
    spread = float(np.linalg.norm(weights[1:]))
    if spread <= _rank_tolerance(head, cols + 1) * np.linalg.norm(factor[:, -1]):
        raise DegenerateFitError("earlier residuals have zero spread")
    return (last_residual - head_mean) / spread


# ---------------------------------------------------------------------------
# Order-statistic predictor (no model, responses only)
# ---------------------------------------------------------------------------


def wilks_predict(responses, depth: int) -> PredictionInterval:
    """Interval between the depth-th smallest and depth-th largest response.

    With n - 1 past responses and order-statistic depth r, the interval
    misses the next response of an exchangeable continuous sequence with
    probability exactly 2r / n.  When the history is too short for the
    requested depth (n <= 2r) no finite statement is possible and the full
    line is returned.
    """
    values = np.asarray(responses, dtype=float).ravel()
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    n = values.size + 1
    if n <= 2 * depth:
        return PredictionInterval.full_line()
    ordered = np.sort(values)
    return PredictionInterval(ordered[depth - 1], ordered[n - depth - 1])


def wilks_level(step: int, depth: int) -> float:
    """Significance level achieved by ``wilks_predict`` at the given step."""
    return 2.0 * depth / step


# ---------------------------------------------------------------------------
# Monte-Carlo predictor under the Gaussian response model ("IID-Gauss")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloConfig:
    """Knobs of the Monte-Carlo p-value estimate.

    ``samples`` conditional draws give the p-value estimate
    (1 + #{draws at least as strange}) / (samples + 1), and ``seed`` fixes
    the draws: a generator seeded with it gives the row orderings
    (``random_orderings``) and then the normals of the directions
    (``complement_directions``), drawn in the design's canonical row order.
    Setting up the draws of one step costs O(samples * n * K) in two GEMMs
    and O(samples * n) memory; after that a p-value costs O(samples) and
    the survivor sets of every level one O(samples log samples) sweep, with
    no search bound and no bisection.
    """

    samples: int = 999
    seed: object = 0


@dataclass(frozen=True, eq=False)
class IidGaussStep:
    """One IID-Gauss step: common draws as functions of the candidate y.

    Draw m's last truncated residual is
    ``draw_const[m] + y * draw_lin[m] + radius(y) * draw_dir[m]`` and the
    observed one is ``observed_const + y * observed_lin``, where
    ``radius(y)``^2 = rss + weight * (y - center)^2 is the residual energy of
    the full least-squares fit once y is appended to the history; ``center``
    is the history's least-squares prediction.  Scores are compared in
    u = y - center, so they do not cancel when responses sit far from zero.

    ``ties`` marks the draws whose last row is the new row when the residual
    sphere is one-dimensional (n = K + 2).  Such a draw reproduces the
    observed sequence wherever u has the sign of its ``draw_dir``, so there
    it counts as at least as strange, decided from that structure rather
    than from rounding residue.  ``reflected`` says that the truncated fit
    is the full one (ridge 0 on all K features): a draw's last residual is
    then ``radius(y) * draw_dir`` alone, so a tied draw reproduces the
    observed score on both sides.
    """

    draw_const: np.ndarray
    draw_lin: np.ndarray
    draw_dir: np.ndarray
    observed_const: float
    observed_lin: float
    rss: float
    weight: float
    center: float
    ties: np.ndarray
    reflected: bool

    def radius(self, y: float) -> float:
        return sqrt(max(self.rss + self.weight * (y - self.center) ** 2, 0.0))

    def strange(self, u: np.ndarray) -> np.ndarray:
        """Whether each draw is at least as strange as the observed sequence at
        y = center + u; ``u`` is a scalar or has one row per draw."""
        u = np.asarray(u, dtype=float)
        per_draw = (slice(None),) + (None,) * (u.ndim - 1)
        lin = self.draw_lin[per_draw]
        direction = self.draw_dir[per_draw]
        const = self.draw_const[per_draw] + self.center * lin
        radius = np.sqrt(np.maximum(self.rss + self.weight * u * u, 0.0))
        scores = np.abs(const + lin * u + radius * direction)
        observed = self.observed_const + self.center * self.observed_lin
        target = np.abs(observed + self.observed_lin * u)
        tied = self.ties[per_draw] & (self.reflected | (u * direction >= 0.0))
        return (scores >= target) | tied

    def pvalue(self, y: float) -> float:
        count = int(np.count_nonzero(self.strange(y - self.center)))
        return (1 + count) / (self.draw_dir.size + 1)

    def sweep(self) -> SweepState:
        """Every point in u = y - center where some draw's indicator changes.

        Draw m's last residual equals s times the observed one (s = +1 or
        -1) where radius(u) * d = P + Q u, with d = draw_dir[m], P = s * g -
        a and Q = s * observed_lin - draw_lin[m]; a and g are the draw's and
        the observed last residual without the radius term at u = 0.
        Squaring gives the quadratic (Q^2 - d^2 w) u^2 + 2 P Q u + (P^2 -
        d^2 rss) = 0, whose discriminant is d^2 (rss Q^2 + w (P^2 - d^2
        rss)), so each draw crosses at most four times (plus u = 0 for a
        tied draw).  Roots that
        the squaring adds are harmless: the indicator is probed once in every
        cell between a draw's sorted roots, and only a change of the probed
        value is a crossing.  Prefix sums of the sorted deltas count, on
        every cell, the draws at least as strange, plus one for the observed
        sequence itself.
        """
        w, rss = self.weight, self.rss
        lin, direction = self.draw_lin, self.draw_dir
        const = self.draw_const + self.center * lin
        observed = self.observed_const + self.center * self.observed_lin
        spread = direction * direction
        columns = [np.where(self.ties, 0.0, inf)]
        for sign in (1.0, -1.0):
            p = sign * observed - const
            q = sign * self.observed_lin - lin
            lead = q * q - spread * w
            half = p * q
            constant = p * p - spread * rss
            disc = rss * q * q + w * constant
            real = disc >= 0.0
            root = np.abs(direction) * np.sqrt(np.where(real, disc, 0.0))
            # the root of larger magnitude from the sum of like signs, the
            # other from the product of the roots, so neither cancels
            far = -(half + np.copysign(root, half))
            columns.append(np.divide(far, lead, out=np.full_like(far, inf),
                                     where=real & (lead != 0.0)))
            columns.append(np.divide(constant, far, out=np.full_like(far, inf),
                                     where=real & (far != 0.0)))
        roots = np.sort(np.column_stack(columns), axis=1)
        known = np.isfinite(roots)  # the missing roots (inf) sort last
        at = np.where(known, roots, 0.0)
        reach = 1.0 + np.abs(at)
        # one probe left of the first root, then one right of each root: the
        # midpoint to the next root, or a point past the last
        probes = np.empty((roots.shape[0], roots.shape[1] + 1))
        probes[:, 0] = at[:, 0] - reach[:, 0]
        probes[:, 1:] = at + reach
        probes[:, 1:-1] = np.where(
            known[:, 1:], 0.5 * (at[:, :-1] + at[:, 1:]), probes[:, 1:-1]
        )
        strange = self.strange(probes)
        after = strange[:, 1:]
        changes = known & (after != strange[:, :-1])
        left = int(np.count_nonzero(strange[:, 0]))
        right = int(np.count_nonzero(strange[np.arange(roots.shape[0]), known.sum(axis=1)]))
        return SweepState.from_crossings(
            [roots[changes]], [np.where(after[changes], 1, -1)], left, right
        )


def _mc_machinery(
    history: History,
    x: np.ndarray,
    ridge: float,
    schedule: FeatureSchedule | None,
    mc: MonteCarloConfig,
) -> IidGaussStep | None:
    """The IID-Gauss step at n = len(history) + 1.

    Returns the step's draws, the observed last residual and the radius
    terms; returns None while the conditional law is degenerate (fewer than
    K + 2 total observations, or no samples requested).

    A draw permutes the rows, but the truncated fit and the fitted vectors do
    not change under row permutations, so no permuted copy of the design is
    formed: the fitted vectors' truncated residuals are computed once and read
    at each draw's last row, and the observed one at the new row.  A draw's
    direction is orthogonal to every design column, so its truncated fit is
    zero and its last residual is its own last entry.  The fits are
    orthogonal projections through QR factors of the design, so the design's
    conditioning is not squared.
    """
    k = history.feature_count
    n = len(history) + 1
    if n < k + 2 or mc.samples < 1:
        return None
    x = _new_row(x, k)

    # The draws must depend on the history only through its bag of rows
    # (permuting past observations must not change the output), so the
    # design is taken in a canonical lexicographic row order.  Past the
    # constant ones column the first feature decides it unless it has ties.
    design = np.empty((n, k + 1))
    design[: n - 1] = history.design_matrix
    design[-1, 0] = 1.0
    design[-1, 1:] = x
    first = design[:, min(k, 1)]  # the ones column itself when K = 0
    canonical = np.argsort(first)
    if (first[canonical[1:]] == first[canonical[:-1]]).any():
        canonical = np.lexsort(design.T[::-1])
    ordered = design[canonical]
    basis, upper = np.linalg.qr(ordered)
    if not _passes_rank_rule(upper, n):
        raise RankDeficiencyError("augmented design is rank deficient")

    # Fitted vectors of the fixed responses (new response 0) and of the new
    # row's unit vector, in canonical order.
    new_at = int(np.flatnonzero(canonical == n - 1)[0])
    fixed = np.append(history.responses, 0.0)[canonical]
    fixed_fit = basis @ (basis.T @ fixed)
    unit_fit = basis @ basis[new_at]

    rng = np.random.default_rng(mc.seed)
    orderings = random_orderings(rng, mc.samples, n)
    directions = complement_directions(rng, ordered, orderings, (upper, False))

    # Once y is appended the full fit leaves residual fixed - fixed_fit +
    # y * (unit - unit_fit), whose energy is least at the history's own
    # prediction, center, where it is the history's residual energy rss.
    # Both are read off these vectors, so nothing cancels when the responses
    # sit far from zero.
    weight = 1.0 - float(basis[new_at] @ basis[new_at])
    center = float(fixed_fit[new_at]) / weight if weight > 0.0 else 0.0
    if n == k + 2:
        # One residual dimension: the history's K + 1 rows are interpolated,
        # and the draws whose last row is the new row tie (see IidGaussStep).
        rss, ties = 0.0, orderings[:, -1] == new_at
    else:
        resid = fixed - fixed_fit - center * unit_fit
        resid[new_at] += center
        rss, ties = float(resid @ resid), np.zeros(mc.samples, dtype=bool)
    draw_dir = directions[:, -1]

    active = schedule.active_features(n) if schedule is not None else k
    if active > k:
        raise ValueError(f"schedule asks for {active} features but only {k} exist")
    reflected = ridge == 0.0 and active == k
    if reflected:
        # The truncated fit is the full fit: it leaves nothing of the fitted
        # vectors, and the observed last residual is weight * (y - center).
        draw_const = draw_lin = np.zeros(mc.samples)
        observed_const, observed_lin = -weight * center, weight
    else:
        # the ridge fit projects onto the leading rows of the orthogonal
        # factor of the truncated design stacked on sqrt(ridge) I
        cols = active + 1
        stacked = np.vstack([ordered[:, :cols], sqrt(ridge) * np.eye(cols)])
        trunc_basis, trunc_upper = np.linalg.qr(stacked)
        if not _passes_rank_rule(trunc_upper, n, ridge):
            raise RankDeficiencyError("truncated design is rank deficient")
        trunc_basis = trunc_basis[:n]
        fits = np.column_stack([fixed_fit, unit_fit])
        fit_resid = fits - trunc_basis @ (trunc_basis.T @ fits)
        draw_const, draw_lin = fit_resid[orderings[:, -1]].T
        # the observed sequence's own last residual: its new row
        trunc_row = trunc_basis[new_at]
        observed_const = -float(trunc_row @ (trunc_basis.T @ fixed))
        observed_lin = 1.0 - float(trunc_row @ trunc_row)
    return IidGaussStep(
        draw_const, draw_lin, draw_dir, observed_const, observed_lin,
        rss, weight, center, ties, reflected,
    )


def iidgauss_predict(step: IidGaussStep | None, levels) -> list[PredictionInterval]:
    """Monte-Carlo prediction intervals under the Gaussian response model.

    For each candidate response, appending it to the history fixes the
    sufficient summary (feature bag, response moments); the candidate's
    p-value is the chance that a fresh sequence drawn from the conditional
    law given that summary has a last ridge residual at least as large as
    the observed one.  The chance is estimated by the step's common draws:
    the bag orderings and sphere directions are drawn once per step and
    reused for every candidate, so each draw's score is an explicit affine
    function of the candidate plus a radius term.  ``IidGaussPredictor.step``
    builds the step, in O(samples * n * K) GEMMs and O(samples * n) memory.

    The estimate is a step function of the candidate whose jumps are solved
    in closed form (``IidGaussStep.sweep``), so the reported interval is the
    exact hull of the candidates whose estimated p-value exceeds epsilon, in
    one O(samples log samples) sweep for all levels: no search bound, no
    bisection, and no assumption that the survivor set is an interval.  An
    unbounded end cell gives a ray.  The only approximation left is the
    Monte-Carlo noise of the estimate.  A step of None (fewer than K + 2
    total observations, where the conditional law is degenerate, or no
    samples) gives full lines.
    """
    levels = validate_levels(levels)
    if step is None:
        return _full_lines(len(levels))
    state = step.sweep()
    count = step.draw_dir.size + 1
    return [_shifted(sweep_hull(state, count, eps), step.center) for eps in levels]


def iidgauss_pvalue(step: IidGaussStep | None, response: float) -> float:
    """Monte-Carlo p-value of a realized response, from the step's own draws.

    The draws are the ones ``iidgauss_predict`` swept, so the realized
    p-value and the reported intervals agree.  While the conditional law is
    degenerate (a step of None) every response is maximally typical and the
    p-value is one.
    """
    if step is None:
        return 1.0
    return step.pvalue(float(response))
