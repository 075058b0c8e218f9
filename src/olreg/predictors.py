"""Interval predictors for on-line linear regression.

Every predictor here answers the same question: after n-1 revealed
observations and a new explanatory vector, which candidate responses y would
not look strange at significance level epsilon?  The reported interval is the
convex hull of the surviving candidates, one interval per level of a strictly
decreasing ladder.

Each model is one class that owns all of its rules, in three calls plus an
onset rule: ``step(history, x_new)`` builds what the model knows before the
response arrives (None where it abstains), ``predict(step, levels)`` reads
the intervals from that step, ``pvalue(step, response, tie_break)`` the
realized p-value, and ``can_bound(n, feature_count, levels)`` says from which
step n a bounded interval (the empty set included) is possible at all.

* ``IidPredictor`` assumes exchangeability only.  A candidate survives when
  the rank of its ridge residual magnitude among all n residual magnitudes is
  not extreme.  Its step is one residual map, kept on the step's
  ``RidgeProjector``.  Where every comparison set is an interval around
  the prediction, the hull's ends are order statistics of the interval
  ends, selected in O(n); otherwise the exact survivor set is found by a
  sweep over the at most 2n - 2 points where two residual magnitudes
  cross, one map (one row) at a time.
* ``GaussPredictor`` assumes the full linear-Gaussian model and inverts the
  classical studentized prediction pivot.
* ``MvaPredictor`` assumes Gaussian noise but nothing about the explanatory
  law; it studentizes the last centered ridge residual and classifies the
  resulting quadratic inequality in y.
* ``IidGaussPredictor`` assumes the Gaussian response model with exchangeable
  explanatory vectors and estimates p-values by Monte Carlo draws from the
  exact conditional distribution given the sufficient summary; the survivor
  set of those estimates is found exactly, by a sweep over the at most four
  points per draw where the draw's score crosses the candidate's.
* ``FullLinePredictor`` is the degenerate reference that never commits.

Every predictor reads the ends of its intervals in one place,
``_bounds(step, levels)``: one column per level and, for a block step, one
row per new row.  ``predict`` makes them ``PredictionInterval`` objects.
Batch prediction (``predict_rows``) gives the intervals of many test rows
after one history, through one loop for every model
(``_BlockPredictor.predict_rows``).  IID, Gauss and MVA take the rows
``BLOCK_ROWS`` at a time: their ``step`` takes a block of rows as well as
one row, with the history's own numbers solved once and the block's rows
the many-column right side of the step's triangular solves.  The on-line
step is the one-row block of the same code.  An IID block decides its
route row by row: the rows whose comparison sets are all intervals read
their ends at once, and each other row falls back to its own sweep, so
every row gets the ends of its one-row route.  IID-Gauss takes blocks of one
row, since each row's draws need the design in its own canonical order and
its own QR factors.

The history is the sufficient summary every model reads: its rows, and
the factors of [design | responses] that ``History`` keeps, whose R'R
carries the moments sum y, sum y x and sum y^2.  The IID, Gauss and MVA
steps, and the scores ``gauss_score`` and ``mva_score``, read those factors
by triangular solves, corrected for the rows the history leaves pending
beside a wide factor (``History.pending_factor``), and absorb the new row
into no copy of them.  Every step decides rank by one method on the
history's design block (``History.design_has_full_rank``, through
``_require_full_rank``), so the new row never decides it: the sqrt(ridge)
shortcut or the certificate the history carries settles most steps without
touching a factor, and otherwise one triangular inverse of the block, or
its singular values, decide.  The IID step is its ``RidgeProjector``: three
solves and one O(nK) product for the residuals' offset and slope, after
which a p-value is an O(n) read; a block of m rows takes the same three
solves with m right sides and one GEMM.  The Gauss and MVA steps form no
residual vector: each is O(K^2) per row, with five numbers for an MVA step
(``MvaStep``) solved in the distance from the history's own prediction,
and one copy of the MVA region's branch rules (``quadratic_ends``) for
every row and level.

``iid_predict``, ``gauss_predict`` and ``mva_predict`` are one-step
shortcuts that take the history directly, and ``iidgauss_predict`` and
``iidgauss_pvalue`` read an IID-Gauss step; the package does not export
them.  ``wilks_predict`` is the model-free order-statistic predictor used
as a baseline: it needs no explanatory data at all.

Conventions: intervals are closed, the pair (+inf, -inf) encodes the empty
set, and degenerate fits fall back to documented conventions (a zero
estimated spread gives a point interval, an identically zero spread over all
candidates gives the full line) instead of empty output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, sqrt
from numbers import Integral

import numpy as np
from scipy.special import stdtr

from .base import (
    DegenerateFitError,
    FeatureSchedule,
    History,
    PendingFactor,
    PredictionInterval,
    Observation,
    RankDeficiencyError,
    _rank_tolerance,
    validate_levels,
    validate_ridge,
)
from .numerics import RidgeProjector, residual_decomposition, two_sided_quantiles
from .sampler import complement_directions, random_orderings


# Test rows per step of a batch IID, Gauss or MVA prediction
# (``_BlockPredictor.predict_rows``).  For 200 IID test rows at n = 601,
# K = 100 and ridge 0 on one BLAS thread, with the ends read by order
# statistics, blocks of 8 to 12 rows took 7-8 ms (median), 16 to 48 rows
# 5-6.5 ms, and one step per row 18-19 ms; Gauss and MVA blocks of 12 took
# under 2 ms.  Larger blocks would save about 1.5 ms of the 30-40 ms of an
# ``olreg predict`` run, too little to move the value.  A block's arrays
# take a few (rows x 2n) doubles for IID and a few (rows x K) for Gauss and
# MVA, so memory does not grow with the number of test rows.
BLOCK_ROWS = 12


def _new_row(x_new, feature_count: int, block: bool = False) -> np.ndarray:
    """One explanatory row, checked: 1-d, unless ``block`` keeps a 2-d
    input of several rows as a block (m x K) after the same history.  A
    block of one row is that row, so that its step is the one-row step."""
    x = np.asarray(x_new, dtype=float)
    if not (block and x.ndim == 2 and len(x) > 1):
        x = x.ravel()
    if x.shape[-1] != feature_count:
        raise ValueError(f"expected {feature_count} features, got {x.shape[-1]}")
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("explanatory components must be finite")
    return x


def _design_rows(x: np.ndarray, cols: int) -> np.ndarray:
    """[1 | the first cols - 1 features] of one row, or of each row of a block."""
    rows = np.empty(x.shape[:-1] + (cols,))
    rows[..., 0] = 1.0
    rows[..., 1:] = x[..., : cols - 1]
    return rows


def _column_dots(a: np.ndarray, b: np.ndarray):
    """a . b: a float for vectors, by the BLAS dot the one-row steps have
    always taken, and one dot per column pair for blocks."""
    if a.ndim == 1:
        return float(a @ b)
    return np.einsum("ij,ij->j", a, b)


def _leverage(whitened: np.ndarray, part: np.ndarray):
    """z'(D'D + aI)^-1 z for each right side z, from the (G, Y) of
    ``PendingFactor.whiten``: |g|^2 less the pending rows' part |y|^2."""
    leverage = _column_dots(whitened, whitened)
    return leverage - _column_dots(part, part) if len(part) else leverage


def _residual_cut_off(norm: float, root: float, count: int, cols: int) -> float:
    """A fit's root residual energy ``norm`` over ``count`` rows and
    ``cols`` design columns, or exactly 0 at or below the least-squares
    cut-off relative to the responses' own root energy ``root``: there an
    exactly linear history leaves rounding residue alone."""
    return 0.0 if norm <= _rank_tolerance(count, cols + 1) * root else norm


def _choose(condition, chosen, otherwise):
    """``chosen`` where ``condition`` holds and ``otherwise`` elsewhere: a
    plain choice for a scalar condition, so that one-row steps pay no array
    overhead, and ``np.where`` for a block's conditions."""
    if isinstance(condition, (bool, np.bool_)):
        return chosen if condition else otherwise
    return np.where(condition, chosen, otherwise)


def _feature_matrix(features, feature_count: int) -> np.ndarray:
    """The test rows of a batch prediction as a matrix of K columns."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != feature_count:
        raise ValueError(f"features must be a matrix of {feature_count} columns")
    return features


def _active_features(schedule: FeatureSchedule | None, n: int, k: int) -> int:
    """How many of the k features the ridge fit sees at step n."""
    active = schedule.active_features(n) if schedule is not None else k
    if active > k:
        raise ValueError(f"schedule asks for {active} features but only {k} exist")
    return active


def _require_full_rank(
    history: History, ridge: float, columns: int, ridge_helps: bool = True
) -> None:
    """Raise ``RankDeficiencyError`` unless the leading ``columns``-block of
    the history's factor for ``ridge`` passes the least-squares rank rule
    (``History.design_has_full_rank``): the rank decision of the IID, Gauss
    and MVA steps and of IID-Gauss's ridge fit.  At ridge 0 the message
    advises a positive ridge only where the model has one
    (``ridge_helps``); Gauss fits by least squares whatever the ridge."""
    if not history.design_has_full_rank(ridge, columns):
        if ridge > 0.0:
            raise RankDeficiencyError("ridge normal matrix is numerically singular")
        raise RankDeficiencyError(
            "design is rank deficient; use a positive ridge coefficient"
            if ridge_helps
            else "design is rank deficient; the least-squares fit needs a full-rank design"
        )


def _step_projector(
    history: History, x_new, ridge: float, schedule: FeatureSchedule | None
) -> RidgeProjector:
    """Ridge projector of the history rows plus the new one, truncated to the
    scheduled column count, around the history's own prediction at the new
    row.  ``x_new`` is one explanatory row, or a block of them (m x K),
    each a new row after the same history.

    The history's design block decides the rank first
    (``_require_full_rank``, by ``History.design_has_full_rank``), so
    neither a new row nor a block of them changes the decision; where the
    certificate that the history carries for its factor settles it, no
    factor is touched.  The projector is then built from that kept factor,
    with the rows pending beside it (``History.pending_factor``), and the
    new rows by three triangular solves, O(K^2) per row on top of the
    history's own bookkeeping per appended row, with no copy of the design
    or the responses and no step triangle.  Its residual map is taken
    (``residual_decomposition``) before it is returned.
    """
    k = history.feature_count
    x = _new_row(x_new, k, block=True)
    cols = _active_features(schedule, len(history) + 1, k) + 1
    _require_full_rank(history, ridge, cols)
    projector = RidgeProjector(
        history.design_matrix[:, :cols],
        _design_rows(x, cols),
        history.pending_factor(ridge, cols),
        history.responses,
    )
    return residual_decomposition(projector)


def _intervals(lower: np.ndarray, upper: np.ndarray) -> list[PredictionInterval]:
    """One interval per level from arrays of lower and upper ends."""
    return list(map(PredictionInterval, lower.tolist(), upper.tolist()))


def _full_bounds(levels: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ends of the whole line at each level."""
    full = np.full(len(levels), inf)
    return -full, full


class _BlockPredictor:
    """Batch prediction for the models whose ``step`` takes a block of up
    to ``block_rows`` rows after one history, and whose ``_bounds(step,
    levels)`` reads the lower and upper ends from a step: one column per
    level, and one row per new row of a block step."""

    block_rows = BLOCK_ROWS

    def predict_rows(self, history: History, features, levels) -> tuple[np.ndarray, np.ndarray]:
        """The intervals of each row of ``features`` as the next step after
        ``history``, the batch setting: lower and upper ends, one row per
        feature row and one column per level.

        The rows are taken ``block_rows`` at a time, and a block is one
        step: the history's own numbers solved once, the block's rows the
        many-column right side of the step's triangular solves, and the
        ends of every row and level read at once, each row's numbers those
        of its own one-row step up to rounding.  The block size bounds the
        memory whatever the number of rows.
        """
        levels = validate_levels(levels)
        features = _feature_matrix(features, history.feature_count)
        lower = np.empty((len(features), len(levels)))
        upper = np.empty_like(lower)
        for start in range(0, len(features), self.block_rows):
            block = slice(start, start + self.block_rows)
            lower[block], upper[block] = self._bounds(self.step(history, features[block]), levels)
        return lower, upper


# ---------------------------------------------------------------------------
# Rank-counting predictor for exchangeable data (the "IID" predictor)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepState:
    """Sorted crossing points with membership deltas and boundary counts.

    ``points`` starts at -inf and ends at +inf; ``deltas`` aligns with it,
    and ``counts``, its running prefix sum, equals n * p(y) for y in the
    half-open cell that starts at the corresponding point, where p(y) is
    the fraction of the n residual magnitudes at least as large as the
    candidate's own.  ``left_count`` and ``right_count`` tally the
    comparison sets that are unbounded to the left and to the right.  A
    state holds the 1-d arrays of one map.
    """

    points: np.ndarray
    deltas: np.ndarray
    counts: np.ndarray
    left_count: int
    right_count: int

    @classmethod
    def from_crossings(cls, points, deltas, left: int, right: int) -> "SweepState":
        """Sort one map's crossing points (1-d) between the infinite sentinels.

        The sentinels carry ``left`` + 1 and -``right`` - 1: the candidate's
        own score is always counted.  One ``argsort`` orders the points;
        only where two of them are equal does a stable ``lexsort`` on
        (point, -delta) replace it, so that at a tie the +1 entries come
        first and the prefix peak at a point equals the membership count
        there.  Entries that tie on both keys are equal (at most the sign of
        a zero differs), so the order in which they are emitted does not
        matter.  Without ties both sorts give the one ascending order.
        """
        if np.ndim(points) != 1:
            raise ValueError("a sweep takes the crossing points of one map (1-d)")
        all_points = np.concatenate([[-inf], points, [inf]])
        all_deltas = np.concatenate([[left + 1], deltas, [-1 - right]], dtype=np.int64)
        order = np.argsort(all_points)
        sorted_points = all_points[order]
        if (sorted_points[1:] == sorted_points[:-1]).any():
            order = np.lexsort((-all_deltas, all_points))
            sorted_points = all_points[order]
        sorted_deltas = all_deltas[order]
        return cls(sorted_points, sorted_deltas, np.cumsum(sorted_deltas), left, right)


def build_sweep(offset: np.ndarray, slope: np.ndarray) -> SweepState:
    """Locate every candidate response where two residual magnitudes cross.

    ``offset`` and ``slope`` are one residual map: two n-vectors.  The
    i-th residual is the affine function offset_i + y * slope_i, and the
    comparison set S_i = {y : |e_i(y)| >= |e_n(y)|} is closed: an interval, a
    point, one ray, two rays, the whole line, or empty.  Each bounded
    transition contributes a crossing point carrying +1 where S_i begins and
    -1 where it ends; sets reaching an infinity are tallied in the boundary
    counts instead.  Ties in slope or offset are compared exactly: equality
    of floats is the event the case analysis is about, and near-coincident
    slopes simply produce a far-away crossing point that the infinite
    sentinels absorb.

    Each earlier residual owns two slots; the slots it does not fill (a
    tangency from above, a single ray, a set without transitions) are
    dropped before sorting.  The divisions run only where they are
    defined, so none of them warns.
    """
    offset = np.asarray(offset, dtype=float)
    slope = np.asarray(slope, dtype=float)
    if offset.shape != slope.shape or offset.ndim != 1 or offset.size == 0:
        raise ValueError("offset and slope must be 1-d arrays of equal nonzero length")
    # Normalize signs so every slope is nonnegative; |e_i| is unchanged (a
    # slope of -0 flips too, which only swaps the two crossings it has).
    offset = offset * np.copysign(1.0, slope)
    slope = np.abs(slope)
    a, b = offset[:-1], slope[:-1]
    last_offset, last_slope = offset[-1], slope[-1]

    # Unequal slopes: both magnitudes cross twice (counting multiplicity),
    # where the difference and where the sum of the two affine maps vanish.
    differ = b != last_slope
    unequal = differ.all()
    divisible = True if unequal else differ
    # -(a - last_offset) / (b - last_slope) and -(a + last_offset) /
    # (b + last_slope), with the minus signs moved into the denominators,
    # which changes no bit
    first = np.subtract(a, last_offset)
    np.divide(first, last_slope - b, out=first, where=divisible)
    second = np.add(a, last_offset)
    np.divide(second, -last_slope - b, out=second, where=divisible)
    # A smaller slope makes S_i the closed interval [lo, hi] (a single point
    # when they coincide); a larger one makes it the two closed rays past lo
    # and hi, or the whole line at a tangency from above (lo == hi), which
    # adds no points.
    inside = b < last_slope
    outside = differ & ~inside
    tangent = first == second
    tangent &= outside
    starts = np.where(inside, 1, -1)
    # the lower and the upper crossing; where they are equal, which one is
    # taken shows only in the sign of a zero
    width = len(a)
    points = np.empty(2 * width)
    np.minimum(first, second, out=points[:width])
    np.maximum(first, second, out=points[width:])
    deltas = np.concatenate([starts, -starts])
    left = right = int(np.count_nonzero(outside))
    # the slots in use: both where S_i has two ends, the first for a ray
    first_kept = kept = inside | outside & ~tangent

    if not unequal:
        # Equal slopes: identical magnitudes cover the whole line.  Equal
        # nonzero slopes cross once, at -(a + last_offset) / (2 last_slope),
        # where S_i becomes a single ray; with both magnitudes constant S_i
        # is everything or nothing.
        equal = ~differ
        same = equal & (a == last_offset)
        moving = equal & ~same & (last_slope != 0.0)
        rightward = moving & (a > last_offset)
        leftward = moving & ~rightward
        covering = same | (equal & (last_slope == 0.0) & (np.abs(a) >= np.abs(last_offset)))
        np.divide(second, -2.0 * last_slope, out=points[:width], where=moving)
        deltas[:width][rightward] = 1
        deltas[:width][leftward] = -1
        covered = int(np.count_nonzero(covering))
        left += covered + int(np.count_nonzero(leftward))
        right += covered + int(np.count_nonzero(rightward))
        first_kept = kept | moving

    if not unequal or tangent.any():
        used = np.concatenate([first_kept, kept])
        points, deltas = points[used], deltas[used]
    return SweepState.from_crossings(points, deltas, left, right)


def sweep_hull(state: SweepState, count: int, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """Convex hulls of the candidates whose rank fraction exceeds each level.

    The state's prefix counts give count * p(y) per cell; a cell or point
    qualifies when p(y) = counts / count > epsilon, with counts / count
    worked out once for every level.  A hull runs from the first
    qualifying position to the point just after the last one: qualifying
    sets are closed, so the supremum of a qualifying open cell is itself a
    member.  ``epsilon`` is a sequence of levels (one level counts as a
    sequence of one).  The lower and upper ends come as arrays, one entry
    per level, with the empty set as (inf, -inf).
    """
    levels = np.asarray(epsilon, dtype=float)
    qualifying = state.counts / count > levels.reshape(-1, 1)
    found = qualifying.any(axis=-1)
    first = qualifying.argmax(axis=-1)
    # one past the last qualifying position; kept in range where none is
    after = qualifying.shape[-1] - qualifying[:, ::-1].argmax(axis=-1)
    np.minimum(after, qualifying.shape[-1] - 1, out=after)
    points = state.points
    return np.where(found, points[first], inf), np.where(found, points[after], -inf)


def _interval_hull(offset: np.ndarray, slope: np.ndarray, levels):
    """The sweep's hulls read as order statistics:
    ``sweep_hull(build_sweep(offset, slope), n, levels)`` of each map, one
    row or every row of a block, at once.  Each map must have its last
    offset exactly 0 and every earlier slope below the last one in
    magnitude (``IidPredictor._bounds`` tests that).

    There every comparison set is the closed interval [lo_i, hi_i] around
    0, with ends formed by ``build_sweep``'s own expressions, and the count
    rises through the sorted lo_i and falls through the sorted hi_i.  So the
    hull at a level is [k-th smallest lo_i, k-th largest hi_i], where k + 1
    is the smallest count c with c / n > epsilon, compared in floats as
    ``sweep_hull`` does.  A -inf ahead of the lo_i and a +inf after the
    hi_i play the sweep's sentinels, so that k = 0 gives the whole line.
    One ``partition`` per side serves every level, and every row of a
    block, in O(n).  ``levels`` are validated: inside (0, 1), so k < n.
    Where several lo_i or hi_i are equal, only the sign of a zero end can
    tell which one was picked.
    """
    n = offset.shape[-1]
    magnitude = np.abs(slope)
    b, last_slope = magnitude[..., :-1], magnitude[..., -1:]
    offset = offset * np.copysign(1.0, slope)
    a, last_offset = offset[..., :-1], offset[..., -1:]
    first = (a - last_offset) / (last_slope - b)
    second = (a + last_offset) / (-last_slope - b)
    lower = np.empty(offset.shape)
    upper = np.empty(offset.shape)
    lower[..., 0], upper[..., -1] = -inf, inf
    np.minimum(first, second, out=lower[..., 1:])
    np.maximum(first, second, out=upper[..., :-1])
    # k counts the c in 1..n with c / n <= epsilon
    ranks = (np.arange(1, n + 1) / n).searchsorted(levels, side="right")
    lower.partition(ranks, axis=-1)
    upper.partition(n - 1 - ranks, axis=-1)
    return lower[..., ranks], upper[..., n - 1 - ranks]


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


@dataclass(frozen=True)
class IidPredictor(_BlockPredictor):
    """Distribution-free prediction intervals from ridge residual ranks.

    Valid for any exchangeable data source.  A candidate response y survives
    at level epsilon when more than an epsilon fraction of the n ridge
    residual magnitudes (computed with the candidate appended) are at least
    as large as the candidate's own.  Ties count in the candidate's favour,
    which makes the predictor conservative: its error rate never exceeds
    epsilon in probability, at the price of slightly longer intervals than
    the tie-smoothed ideal.  The smoothed p-value weighs the ties by the
    tie-break instead.

    With an empty history every candidate is maximally typical, so the full
    line is returned at any level.  So it is at ridge 0 with no more rows
    than columns: the fit interpolates and every residual is zero whatever
    the candidate, which that structure decides rather than rounding residue
    (or the rank of too few rows), and the p-value is the tie-break;
    ``can_bound`` says no there, so batch prediction returns code 2.
    Otherwise the rank is decided on the history's design block, as for
    ``GaussPredictor`` and ``MvaPredictor``: a history that only the new
    row would make full rank raises ``RankDeficiencyError``.  The residuals
    are mapped around the history's own prediction at the new row, and
    the ends are found in the distance from it (``_bounds``), so they do
    not cancel when the responses sit far from zero.
    """

    ridge: float = 0.0
    schedule: FeatureSchedule | None = None

    def __post_init__(self):
        validate_ridge(self.ridge)

    def step(self, history: History, x_new) -> RidgeProjector | None:
        """The ridge fit of the step, for one row or a block of them (m x
        K): the projector of the history rows plus the new one, with its
        residual map taken (``_step_projector``), whose ``offset``,
        ``slope`` and ``reference`` the intervals read and whose
        ``residuals`` the p-value reads.  None on an empty history, and at
        ridge 0 while n <= active + 1 (``active`` the features the schedule
        lets the fit see at n), where the fit interpolates.  Raises
        ``RankDeficiencyError`` where the history's design block fails the
        rank rule."""
        n = len(history) + 1
        if n == 1 or self._interpolates(n, history.feature_count):
            return None
        return _step_projector(history, x_new, self.ridge, self.schedule)

    def predict(self, step, levels) -> list[PredictionInterval]:
        return _intervals(*self._bounds(step, validate_levels(levels)))

    def _bounds(self, step, levels: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper ends at each level: one column per level, and one
        row per new row of a block step.  A step of None gives full lines:
        every residual ties with the candidate's, whatever the candidate.

        The test is taken once per row: where the map's last offset is
        exactly 0 and every earlier slope is below the new row's in
        magnitude, every comparison set is an interval around the
        prediction and the ends are order statistics of theirs
        (``_interval_hull``), the sweep's own hull without a sort.  Any
        other row, such as one with a residual whose slope reaches the new
        row's (a ray set), goes through ``build_sweep`` and ``sweep_hull``
        on its own.  The rows of a block that pass read their ends in one
        ``_interval_hull`` call, so each row gets the ends of its own
        one-row route.  Both routes give the same ends, up to the sign of a
        zero end."""
        if step is None:
            return _full_bounds(levels)
        offset, slope, reference = step.offset, step.slope, step.reference
        magnitude = np.abs(slope)
        fits = (offset[..., -1] == 0.0) & (magnitude[..., :-1] < magnitude[..., -1:]).all(axis=-1)
        if fits.all():
            lower, upper = _interval_hull(offset, slope, levels)
        else:
            # a row index of a block, or () for the one row of an on-line step
            lower, upper = np.empty((2,) + fits.shape + (len(levels),))
            if fits.any():
                lower[fits], upper[fits] = _interval_hull(offset[fits], slope[fits], levels)
            for row in np.ndindex(fits.shape):
                if not fits[row]:
                    state = build_sweep(offset[row], slope[row])
                    lower[row], upper[row] = sweep_hull(state, step.row_count, levels)
        if isinstance(reference, np.ndarray):
            reference = reference[:, None]
        return lower + reference, upper + reference

    def pvalue(self, step, response: float, tie_break: float = 1.0) -> float:
        if step is None:
            # Every score ties with the last: zero larger, all equal.
            return tie_break
        return iid_pvalue(np.abs(step.residuals(response)), tie_break)

    def can_bound(self, n: int, feature_count: int, levels) -> bool:
        """Whether step n can give a bounded interval: n >= ceil(1 / max
        epsilon), and with ridge 0 also n >= active + 2 (``active`` the
        features the schedule lets the fit see at n).

        Below the first the candidate's own rank fraction 1/n alone exceeds
        every level, so every candidate survives; below the second the fit
        interpolates and the step abstains (see ``step``).
        """
        return not self._interpolates(n, feature_count) and n >= ceil(1.0 / max(levels))

    def _interpolates(self, n: int, feature_count: int) -> bool:
        """Ridge 0 on no more rows than active columns: the fit reproduces
        every response, so every residual is zero whatever the candidate."""
        return self.ridge == 0.0 and n <= _active_features(self.schedule, n, feature_count) + 1


def iid_predict(
    history: History,
    x_new,
    levels,
    ridge: float = 0.0,
    schedule: FeatureSchedule | None = None,
) -> list[PredictionInterval]:
    """The intervals of ``IidPredictor(ridge, schedule)`` at one step."""
    predictor = IidPredictor(ridge, schedule)
    return predictor.predict(predictor.step(history, x_new), levels)


# ---------------------------------------------------------------------------
# Studentized pivot predictor under the full linear-Gaussian model ("Gauss")
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussFit:
    """Least-squares fit of the history plus the geometry of new points.

    ``coefficients``, ``sigma_hat`` and ``degrees_of_freedom`` belong to the
    history; ``leverage`` and ``point_prediction`` to the new explanatory
    vector, floats for one row and one entry per row for a block of them
    after the same history.  ``sigma_hat`` is read from the history's
    triangular factor, and is exactly zero when the residual energy lies at
    or below the least-squares cut-off (see ``from_factor``).
    """

    coefficients: np.ndarray
    sigma_hat: float
    leverage: float | np.ndarray
    point_prediction: float | np.ndarray
    degrees_of_freedom: int

    @classmethod
    def from_factor(cls, factor: PendingFactor, count: int, x: np.ndarray) -> "GaussFit":
        """The fit that the history's factor of [1 | x | y] over ``count``
        rows carries (``History.pending_factor``), at the new explanatory
        vector ``x``, or at each row of a block of them (m x K).

        The coefficients solve the normal equations through the factor's
        triangle R_D and response column, once for every row; the leverage
        of a row z is z'(D'D)^-1 z = ||R_D^-T z||^2 less the pending rows'
        part (no Gram matrix is formed, so its conditioning is not squared),
        from one triangular solve with the block's rows as its right sides;
        and ``sigma_hat`` is the root of the residual energy, |R[-1, -1]|
        with the pending rows' recursive residuals added, over sqrt(dof):
        exactly zero at or below the least-squares cut-off relative to the
        responses' own root energy.  Two triangular solves, O(K^2) per row,
        and no pass over the history's rows.
        """
        cols = x.shape[-1] + 1
        rows = _design_rows(x, cols)
        coefficients = factor.coefficients()
        whitened, part = factor.whiten(rows.T)
        residual_norm = _residual_cut_off(
            factor.residual_norm(), factor.response_norm(), count, cols
        )
        dof = count - cols
        point = rows @ coefficients
        return cls(
            coefficients=coefficients,
            sigma_hat=residual_norm / sqrt(dof),
            leverage=_leverage(whitened, part),
            point_prediction=float(point) if x.ndim == 1 else point,
            degrees_of_freedom=dof,
        )

    @property
    def spread(self) -> float | np.ndarray:
        """sigma_hat * sqrt(1 + leverage), the scale of the prediction error."""
        root = np.sqrt if isinstance(self.leverage, np.ndarray) else sqrt
        return self.sigma_hat * root(1.0 + self.leverage)

    def pivot(self, response: float) -> float:
        """(y - point_prediction) / spread, Student t with ``degrees_of_freedom``
        under the linear-Gaussian model."""
        return (response - self.point_prediction) / self.spread


def gauss_fit(history: History, x_new) -> GaussFit:
    """Fit the history by least squares and studentize the new design point,
    or each row of a block of them (m x K) after the same history.

    ``sigma_hat`` is the usual unbiased residual scale estimate and
    ``leverage`` the quadratic form z'(Z'Z)^{-1}z of the new design row; the
    prediction pivot ``GaussFit.pivot`` follows a Student t law with
    ``degrees_of_freedom`` when the model holds.

    Everything is read from the factor of [design | responses] that the
    history keeps, with the rows pending beside it
    (``GaussFit.from_factor``).  A residual energy at or below the
    least-squares cut-off relative to the responses' own (a perfectly
    interpolated history) gives sigma_hat exactly zero, by the rule
    ``gauss_score`` applies to the same factor.  With the factor up to date
    a call costs two O(K^2) triangular solves per row, with the history's
    coefficients solved once for a block, and no pass over the rows.
    """
    x = _new_row(x_new, history.feature_count, block=True)
    rows, cols = len(history), history.feature_count + 1
    if rows <= cols:
        raise RankDeficiencyError(
            f"need more than {cols} observations to estimate the residual scale"
        )
    _require_full_rank(history, 0.0, cols, ridge_helps=False)
    return GaussFit.from_factor(history.pending_factor(), rows, x)


def _pivot_ends(point, spread, quantiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ends point -/+ quantile * spread of the inverted Student t pivot,
    one per quantile (and per row, for columns of points and spreads).  A
    zero sigma_hat has a zero spread, so the interval is the point itself."""
    half = quantiles * spread
    return point - half, point + half


@dataclass(frozen=True)
class GaussPredictor(_BlockPredictor):
    """Classical studentized prediction intervals, full line before step K+3.

    Exact under the linear-Gaussian model.  Below step K + 3 the residual
    scale has no degrees of freedom, so the predictor abstains with the whole
    line; from K + 3 on the intervals invert the Student t pivot.  A zero
    estimated scale (perfectly interpolated history) collapses the interval
    to the point prediction, which alone has p-value one.
    """

    def step(self, history: History, x_new) -> GaussFit | None:
        """The least-squares fit of the step, for one row or a block of them
        (m x K), or None before step K + 3."""
        if not self.can_bound(len(history) + 1, history.feature_count, ()):
            return None
        return gauss_fit(history, x_new)

    def predict(self, step, levels) -> list[PredictionInterval]:
        return _intervals(*self._bounds(step, validate_levels(levels)))

    def _bounds(self, step, levels: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The inverted pivot at each level (``_pivot_ends``): one column per
        level, and one row per new row of a block step; full lines for a
        step of None."""
        if step is None:
            return _full_bounds(levels)
        spread, point = step.spread, step.point_prediction
        if isinstance(point, np.ndarray):
            spread, point = spread[:, None], point[:, None]
        return _pivot_ends(point, spread, two_sided_quantiles(step.degrees_of_freedom, levels))

    def pvalue(self, step, response: float, tie_break: float = 1.0) -> float:
        if step is None:
            return 1.0
        if step.sigma_hat == 0.0:
            return 1.0 if response == step.point_prediction else 0.0
        # the lower tail: 1 - cdf(|t|) loses the tail to rounding
        return 2.0 * stdtr(step.degrees_of_freedom, -abs(step.pivot(response)))

    def can_bound(self, n: int, feature_count: int, levels) -> bool:
        """Whether step n can give a bounded interval: n >= K + 3, the first
        step whose residual scale has a degree of freedom, at any level."""
        return n >= feature_count + 3


def gauss_predict(history: History, x_new, levels) -> list[PredictionInterval]:
    """The intervals of ``GaussPredictor()`` at one step."""
    predictor = GaussPredictor()
    return predictor.predict(predictor.step(history, x_new), levels)


def gauss_score(history: History, observation: Observation) -> float:
    """Studentized residual magnitude of a new observation after the history.

    Equals |y - yhat| / (sigma_hat * sqrt(1 + leverage)) computed from the
    raw history, and is the ``pivot`` of the fit ``gauss_fit`` reads from
    the history's triangle, under the same rank rule and with the same
    errors: at least K + 2 rows are needed so that the residual scale has a
    degree of freedom.  Where that fit gives sigma_hat = 0 (a residual
    energy at or below the least-squares cut-off relative to the responses'
    own: a perfectly interpolated history), this raises
    ``DegenerateFitError``.
    """
    fit = gauss_fit(history, observation.explanatory)
    if fit.sigma_hat == 0.0:
        raise DegenerateFitError("history is perfectly interpolated")
    return abs(fit.pivot(observation.response))


# ---------------------------------------------------------------------------
# Studentized centered-residual predictor ("MVA"): Gaussian noise, free design
# ---------------------------------------------------------------------------


def quadratic_ends(lead: float, cross: float, constant: float) -> tuple[float, float]:
    """Lower and upper ends of the convex hull of the candidate set
    {y : lead y^2 + 2 cross y + constant < 0}, with the empty set as
    (inf, -inf): the one copy of the branch rules, which every row and
    level of ``mva_hull`` takes.

    A negative leading coefficient means the region reaches both
    infinities (its complement is at most an interval), so the hull is the
    whole line.  A vanishing leading coefficient leaves a ray, the line, or
    nothing; a positive one leaves an open interval between the roots or
    nothing.
    """
    if lead < 0.0:
        return -inf, inf
    if lead == 0.0:
        if cross > 0.0:
            return -inf, -constant / (2.0 * cross)
        if cross < 0.0:
            return -constant / (2.0 * cross), inf
        return (-inf, inf) if constant < 0.0 else (inf, -inf)
    disc = cross * cross - lead * constant
    if disc <= 0.0:
        return inf, -inf
    root = sqrt(disc)
    return (-cross - root) / lead, (-cross + root) / lead


@dataclass(frozen=True)
class MvaStep:
    """One MVA step: five numbers that fix the statistic at every candidate.

    With u = y - ``center``, the last residual centered by the mean of the
    n - 1 earlier residuals is ``last_offset + u * last_slope``, and the
    earlier residuals' centered energy is ``head_energy(u)`` = ``head_aa`` +
    2 u ``head_ab`` + u^2 ``head_bb``.  ``count`` is n.  ``center`` is the
    candidate at which the centered last residual vanishes, so
    ``last_offset`` is 0 unless ``last_slope`` is: at ridge 0 it is the
    history's own prediction at the new row, and with ridge > 0 that
    prediction moved by the ridge's pull on the intercept.

    A step of one new row holds floats.  A step of a block of new rows
    after the same history holds one entry per row wherever the rows'
    numbers differ, and a float where every row shares it (``head_aa`` and
    ``head_ab`` at ridge 0, and every number of an interpolating fit).
    """

    count: int
    center: float | np.ndarray
    last_offset: float | np.ndarray
    last_slope: float | np.ndarray
    head_aa: float | np.ndarray
    head_ab: float | np.ndarray
    head_bb: float | np.ndarray

    @property
    def interpolates(self) -> bool | np.ndarray:
        """Every centered earlier residual is zero whatever the candidate, so
        the statistic is 0/0 everywhere: ridge 0 on as many rows as columns,
        where the fit interpolates, or a history that the fit reproduces up
        to a constant.  One flag per row of a block step."""
        return (self.head_aa == 0.0) & (self.head_bb == 0.0)

    def head_energy(self, u: float) -> float:
        return self.head_aa + u * (2.0 * self.head_ab + u * self.head_bb)


def _centered_crosses(scale: float, absorbed: int, heads: np.ndarray, tails: np.ndarray):
    """The matrix of sums over the earlier residuals of (a_i - mean a)(b_i -
    mean b) for each pair of their affine parts a, b (one more axis for the
    rows of a block), when some of those rows are pending beside R_0.

    ``heads`` holds, per part, its R_0 v for the rows absorbed into R_0
    (with Q the orthogonal factor of R_0, the part is Q v): its sum over the
    ``absorbed`` rows is ``scale`` * head[0] (``scale`` = R_0[0, 0], since
    Q's first column is the ones column over it) and its centered part
    lies in head[1:].  ``tails`` holds, per part, its values at the pending
    rows.  The groups are joined by their within-group terms plus the
    between-group term n_A n_P / n (mean_A a - mean_P a)(mean_A b -
    mean_P b), all as one Gram matrix of centered parts, so a centered
    energy stays a sum of squares.
    """
    held = tails.shape[1]
    means = tails.sum(axis=1, keepdims=True) / held
    between = sqrt(absorbed * held / (absorbed + held))
    parts = np.concatenate(
        [heads[:, 1:], tails - means, between * (scale / absorbed * heads[:, :1] - means)], axis=1
    )
    if parts.ndim == 2:
        return parts @ parts.T
    return np.einsum("aij,bij->abj", parts, parts)


def _mva_step(
    ridge_factor: PendingFactor,
    zero_factor: PendingFactor,
    count: int,
    rows: np.ndarray,
    ridge: float,
) -> MvaStep:
    """The step of a history of ``count`` rows at the new design row
    ``rows``, or at each row of a block of them (m x cols).

    ``ridge_factor`` is the history's factor R_a of [design | responses]
    with ``ridge`` (``History.pending_factor(ridge, cols)``), and
    ``zero_factor`` its factor R_0 at ridge 0 (R_a itself at ridge 0),
    each a kept triangle with the rows pending beside it.  With g the
    whitened row and h its leverage against all the history's rows, the
    history's coefficients c_h, its prediction yhat = row . c_h and u = y -
    yhat, the step's ridge coefficients are c(y) = c_h + q u / (1 + h), q =
    (D'D + aI)^-1 row, and its last residual is u / (1 + h).  With w(y) =
    R_0 [-c(y); 1] the earlier residuals absorbed into R_0 are Q w(y) for
    R_0's orthogonal factor Q, whose first column is the ones column over
    R_0[0, 0]: they sum to R_0[0, 0] w[0] and their centered energy is
    ||w[1:]||^2, with no column sums formed and no difference of energies
    that could cancel.  The rows pending beside R_0 add their own
    residuals, group by group (``_centered_crosses``).  At ridge 0, R_0 = R_a,
    the earlier residuals at yhat are the history's least-squares
    residuals, which sum to zero, have energy rho^2 (rho the history's
    residual norm) and are orthogonal to their change with u; with nothing
    pending w(y) = [-g u / (1 + h); rho] exactly, and the centered last
    residual u n / ((n - 1)(1 + h)) vanishes at yhat.  With ridge > 0 it
    vanishes elsewhere, and the forms are moved there from w(yhat) and
    dw/du (see ``MvaStep``).

    c_h, w(yhat) and rho belong to the history and are solved once; G =
    R_aD^-T X' takes one triangular solve with the rows as its right
    sides, and for ridge > 0 or pending rows q a second and R_0 times it one
    product with R_0's design block.  That is O(K^2) per row, plus O(p K)
    for p pending rows, with no n-vector.  A rho at or below the
    least-squares cut-off relative to the responses' own root energy (an
    exactly linear history) is taken as 0, the rule ``GaussFit`` applies to
    its residual scale.

    The caller decides the rank of R_aD first, except where the fit
    interpolates.  Ridge 0 has two structural cases.  With no more rows
    than columns the fit interpolates: every residual is zero whatever the
    rows' rank, and the step has every number zero.  With one row more the
    residual space is one direction: the history is interpolated, so rho is
    rounding residue and is set to 0, and the statistic does not depend on
    u.
    """
    cols = rows.shape[-1]
    n = count + 1
    if ridge == 0.0 and n <= cols:
        return MvaStep(n, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    whitened, part = ridge_factor.whiten(rows.T)
    coefficients = ridge_factor.coefficients()
    shrink = 1.0 / (1.0 + _leverage(whitened, part))
    center = rows @ coefficients
    triangle = zero_factor.triangle
    mean_weight = float(triangle[0, 0]) / count
    held = zero_factor.pending
    # at ridge 0 the history's residual norm; with ridge > 0 the rows
    # absorbed into R_0 enter the energy through their own, and the cut-off
    # is theirs (they are all of the rows when nothing is pending)
    if ridge == 0.0:
        rho, root = zero_factor.residual_norm(), zero_factor.response_norm()
    else:
        column = triangle[:, cols]
        rho, root = abs(float(column[cols])), sqrt(float(column @ column))
    rho = 0.0 if ridge == 0.0 and n == cols + 1 else _residual_cut_off(rho, root, count, cols)
    if ridge == 0.0 and not held:
        # w0 = [0; rho] and w1 = [-g; 0] / (1 + h): no product with R_0
        tail = whitened[1:]
        offset, slope = 0.0, shrink * (1.0 + mean_weight * whitened[0])
        forms = rho * rho, 0.0, shrink * shrink * _column_dots(tail, tail)
    else:
        direction = ridge_factor.solve(whitened, part)
        design_block = triangle[:, :cols]
        w1 = -shrink * (design_block @ direction)
        slope = shrink - mean_weight * w1[0]
        if held:
            pending_rows = zero_factor.rows
            t1 = -shrink * (pending_rows @ direction)
            slope = slope - t1.sum(axis=0) / count
            groups = (float(triangle[0, 0]), count - held)
        if ridge == 0.0:
            # the history's least-squares residuals at yhat: zero sum, energy
            # rho^2 and orthogonal to w1 (only with rows pending beside R_0)
            offset = 0.0
            bb = _centered_crosses(*groups, w1[None], t1[None])[0][0]
            forms = rho * rho, 0.0, float(bb) if rows.ndim == 1 else bb
        else:
            w0 = triangle[:, cols] - design_block @ coefficients
            w0[cols] = rho
            offset = -mean_weight * float(w0[0])
            if held:
                t0 = zero_factor.responses - pending_rows @ coefficients
                offset = offset - float(t0.sum()) / count
            # the ridge's pull on the intercept can leave the centered last
            # residual far from zero at yhat when the responses sit far from
            # zero, and the region's coefficients would then cancel: each row
            # with a slope is moved to where its centered last residual vanishes
            moving = slope != 0.0
            shift = -offset / _choose(moving, slope, inf)
            w0 = (w0 if w1.ndim == 1 else w0[:, None]) + shift * w1
            center = center + shift
            offset = _choose(moving, 0.0, offset)
            if held:
                t0 = (t0 if t1.ndim == 1 else t0[:, None]) + shift * t1
                crosses = _centered_crosses(*groups, np.array([w0, w1]), np.array([t0, t1]))
                if rows.ndim == 1:
                    crosses = crosses.tolist()
                forms = crosses[0][0], crosses[0][1], crosses[1][1]
            else:
                head0, head1 = w0[1:], w1[1:]
                forms = (
                    _column_dots(head0, head0),
                    _column_dots(head0, head1),
                    _column_dots(head1, head1),
                )
    if rows.ndim == 1:
        center, offset, slope = float(center), float(offset), float(slope)
    return MvaStep(n, center, offset, slope, *forms)


def _history_mva_step(history: History, rows: np.ndarray, ridge: float) -> MvaStep:
    """The MVA step after ``history`` at the design row ``rows`` (or a
    block of them) over its leading columns, read from the history's kept
    factors at ridge 0 and at ``ridge`` with the rows pending beside them
    (``History.pending_factor``).  The history's design block decides
    the rank (``_require_full_rank``), except where a ridge-0 fit
    interpolates and has no rank to decide; ``MvaPredictor.step`` and
    ``mva_score`` both take their step here."""
    count, cols = len(history), rows.shape[-1]
    # with ridge > 0 the energy takes R_0's pending rows as rows
    zero_factor = history.pending_factor(0.0, cols, corrected=ridge == 0.0)
    ridge_factor = zero_factor if ridge == 0.0 else history.pending_factor(ridge, cols)
    if ridge > 0.0 or count >= cols:
        _require_full_rank(history, ridge, cols)
    return _mva_step(ridge_factor, zero_factor, count, rows, ridge)


def mva_hull(step: MvaStep, t_values) -> tuple[np.ndarray, np.ndarray]:
    """Hulls of the studentized-centered-residual region at t thresholds.

    A candidate survives when

        sqrt((n-1)(n-2)/n) |e(u)| < t * sqrt(E(u) / (n-2)),

    e(u) the step's centered last residual and E(u) the earlier residuals'
    centered energy; squared, that is a quadratic inequality in u, whose
    hull the branch rules of ``quadratic_ends`` read in O(1) and which is
    moved by the step's center.  When every centered earlier residual is
    zero at every candidate the statistic is 0/0 and carries no evidence
    against any candidate, so the full line is returned rather than the
    empty set the raw algebra would give.

    ``t_values`` is a sequence of thresholds (one threshold counts as a
    sequence of one), and the step holds one new row or a block of them.
    Each (row, threshold) entry forms its coefficients from Python floats
    and takes the branch rules on its own, so a block's row reads the bits
    of its one-row step.  The lower and upper ends come as arrays, one
    column per threshold and, for a block step (one ``center`` per row),
    one row per row, with the empty set as (inf, -inf).
    """
    n = step.count
    scale = float((n - 1) * (n - 2))
    weights = [t * t * n for t in np.ravel(t_values).tolist()]
    numbers = (
        step.center, step.last_offset, step.last_slope,
        step.head_aa, step.head_ab, step.head_bb, step.interpolates,
    )
    block = isinstance(step.center, np.ndarray)
    if block:
        rows = zip(*(np.broadcast_to(v, step.center.shape).tolist() for v in numbers))
    else:
        rows = (numbers,)
    lower, upper = [], []
    for center, offset, slope, aa, ab, bb, full in rows:
        for weight in weights:
            if full:
                lower.append(-inf)
                upper.append(inf)
                continue
            lo, hi = quadratic_ends(
                scale * slope * slope - weight * bb,
                scale * offset * slope - weight * ab,
                scale * offset * offset - weight * aa,
            )
            lower.append(lo + center)
            upper.append(hi + center)
    shape = (-1, len(weights)) if block else -1
    return np.array(lower).reshape(shape), np.array(upper).reshape(shape)


@dataclass(frozen=True)
class MvaPredictor(_BlockPredictor):
    """Prediction intervals from the studentized last centered ridge residual.

    Valid whenever the noise is Gaussian, whatever the explanatory vectors
    are; informative from step 3 on with a positive ridge, and from step
    K + 3 on with ridge 0 (K the number of active features).  Residuals come
    from one ridge fit of all n rows, so the candidate response enters every
    residual and the survivor set is a quadratic region classified exactly
    (no search).

    A step costs O(K^2) from the factors the history keeps: the ridge fit
    of the n rows from the history's ridge factor by triangular solves, and
    the sum and centered energy of the earlier residuals from its ridge-0
    factor, which the history keeps beside the ridge one when ridge > 0
    (see ``_mva_step``).  No residual vector is formed.  The region is
    solved in the distance from the history's own prediction at the new
    row (with ridge > 0, from where the centered last residual vanishes),
    so its coefficients do not grow with the responses' distance from
    zero.  The rank rule is decided on the history's design block
    (``History.design_has_full_rank``), as for ``GaussPredictor`` and
    ``IidPredictor``: a history that only the new row would make full rank
    raises ``RankDeficiencyError``.

    With ridge 0 at n <= K + 1 the fit interpolates: every residual is zero
    whatever the candidate, so the statistic is 0/0 and the whole line is
    returned (p = 1), decided by that structure rather than by rounding
    residue or by the rank of too few rows.
    With ridge 0 at n = K + 2 the residual space is one-dimensional: every
    candidate's residual vector is a multiple of one direction, so the
    statistic does not depend on y (apart from the single candidate where it
    is 0/0).  The interval is then the empty set or the whole line, decided
    from that structure rather than from the sign of a discriminant that is
    exactly zero and only rounding makes positive.
    """

    ridge: float = 0.0
    schedule: FeatureSchedule | None = None

    def __post_init__(self):
        validate_ridge(self.ridge)

    def step(self, history: History, x_new) -> MvaStep | None:
        """The five numbers of the step, for one row or a block of them (m
        x K); None before step 3."""
        count = len(history)
        if count + 1 < 3:
            return None
        k = history.feature_count
        x = _new_row(x_new, k, block=True)
        cols = _active_features(self.schedule, count + 1, k) + 1
        return _history_mva_step(history, _design_rows(x, cols), float(self.ridge))

    def predict(self, step, levels) -> list[PredictionInterval]:
        return _intervals(*self._bounds(step, validate_levels(levels)))

    def _bounds(self, step, levels: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The hull at each level's t threshold (``mva_hull``): one column
        per level, and one row per new row of a block step; full lines for
        a step of None and for an interpolating one."""
        if step is None:
            return _full_bounds(levels)
        return mva_hull(step, two_sided_quantiles(step.count - 2, levels))

    def pvalue(self, step, response: float, tie_break: float = 1.0) -> float:
        if step is None or step.interpolates:
            # every centered residual is identically zero: no evidence either way
            return 1.0
        u = response - step.center
        energy = step.head_energy(u)
        if energy <= 0.0:
            return 1.0
        n = step.count
        statistic = abs(
            sqrt((n - 1) * (n - 2) / n) * (step.last_offset + u * step.last_slope)
        ) / sqrt(energy)
        return 2.0 * stdtr(n - 2, -statistic)

    def can_bound(self, n: int, feature_count: int, levels) -> bool:
        """Whether step n can give a bounded interval: n >= 3 with a positive
        ridge, and n >= active + 2 with ridge 0 (``active`` the features the
        schedule lets the fit see at n), where the output is the empty set or
        the whole line."""
        if self.ridge != 0.0:
            return n >= 3
        return n >= _active_features(self.schedule, n, feature_count) + 2


def mva_predict(
    history: History,
    x_new,
    levels,
    ridge: float = 0.0,
    schedule: FeatureSchedule | None = None,
) -> list[PredictionInterval]:
    """The intervals of ``MvaPredictor(ridge, schedule)`` at one step."""
    predictor = MvaPredictor(ridge, schedule)
    return predictor.predict(predictor.step(history, x_new), levels)


def mva_score(
    history: History,
    observation: Observation,
    ridge: float = 0.0,
    active_count: int | None = None,
) -> float:
    """Last centered ridge residual over the root of the centered energy.

    The score is signed: (e_n - mean of earlier residuals) divided by the
    root of the summed squared deviations of the earlier residuals, with
    the observation appended to the history.  ``active_count`` truncates
    the regression to the first features, mirroring a feature schedule.  It
    raises ``RankDeficiencyError`` when the history's design block fails
    the least-squares rank rule, and with ridge 0 ``DegenerateFitError`` at
    n <= active + 1, where the fit interpolates and every residual is zero.
    A centered spread at the least-squares cut-off relative to the past
    responses' own energy (an exactly linear history) is
    ``DegenerateFitError`` too, and a negative or non-finite ridge is
    ``ValueError``.

    The score is ``MvaPredictor``'s step (``_history_mva_step``) evaluated
    at the observation's response.
    """
    ridge = validate_ridge(ridge)
    k = history.feature_count
    x = _new_row(observation.explanatory, k)
    active = k if active_count is None else int(active_count)
    if not 0 <= active <= k:
        raise ValueError(f"active_count must lie in [0, {k}]")
    head = len(history)
    if head + 1 < 3:
        raise ValueError("need at least three observations in total")

    cols = active + 1
    step = _history_mva_step(history, _design_rows(x, cols), ridge)
    u = observation.response - step.center
    spread = sqrt(max(step.head_energy(u), 0.0))
    root = history.pending_factor(0.0, cols, corrected=False).response_norm()
    if spread <= _rank_tolerance(head, cols + 1) * root:
        # an interpolating fit's step has every number zero, so it lands here
        raise DegenerateFitError("earlier residuals have zero spread")
    return (step.last_offset + u * step.last_slope) / spread


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
    no search bound and no bisection.  ``samples`` must be a nonnegative
    integer; zero draws give full lines.
    """

    samples: int = 999
    seed: object = 0

    def __post_init__(self):
        samples = self.samples
        if isinstance(samples, bool) or not isinstance(samples, Integral) or samples < 0:
            raise ValueError(f"samples must be a nonnegative integer, got {samples!r}")


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

    def _offsets(self, sign: float) -> tuple[np.ndarray, np.ndarray]:
        """Per draw, the P and Q of ``sweep`` for the sign s: the draw's last
        residual minus s times the observed one is radius(u) * d - P - Q u."""
        const = self.draw_const + self.center * self.draw_lin
        observed = self.observed_const + self.center * self.observed_lin
        return sign * observed - const, sign * self.observed_lin - self.draw_lin

    def strange(self, u: np.ndarray) -> np.ndarray:
        """Whether each draw is at least as strange as the observed sequence at
        y = center + u; ``u`` is a scalar or has one row per draw.

        A draw's residual a is at least the observed b in magnitude exactly
        when (a - b)(a + b) >= 0.  Both factors are formed from the P, Q and
        lead coefficient that ``sweep`` solves, so the indicator flips at the
        sweep's roots rather than where rounding a and b apart tips them.
        """
        u = np.asarray(u, dtype=float)
        per_draw = (slice(None),) + (None,) * (u.ndim - 1)
        direction = self.draw_dir[per_draw]
        spread = direction * direction
        square = u * u
        along = np.sqrt(np.maximum(self.rss + self.weight * square, 0.0)) * direction
        sides = []
        for sign in (1.0, -1.0):
            p, q = (part[per_draw] for part in self._offsets(sign))
            slope = q * u
            # radius * d - Q u, formed as a quotient where the two terms share a
            # sign, so it does not cancel when they grow alike with |u|; the
            # quotient's numerator uses the lead coefficient the sweep solves
            lead = q * q - spread * self.weight
            apart = np.divide(spread * self.rss - lead * square, along + slope,
                              out=along - slope, where=along * slope > 0.0)
            sides.append(np.sign(apart - p))
        tied = self.ties[per_draw] & (self.reflected | (u * direction >= 0.0))
        return (sides[0] * sides[1] >= 0.0) | tied

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
        direction = self.draw_dir
        spread = direction * direction
        columns = [np.where(self.ties, 0.0, inf)]
        for sign in (1.0, -1.0):
            p, q = self._offsets(sign)
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
            roots[changes], np.where(after[changes], 1, -1), left, right
        )


@dataclass(frozen=True)
class IidGaussPredictor(_BlockPredictor):
    """Monte-Carlo prediction intervals under the Gaussian response model.

    Valid when the responses follow the Gaussian linear model and the
    explanatory vectors are exchangeable.  For each candidate response,
    appending it to the history fixes the sufficient summary (feature bag,
    response moments); the candidate's p-value is the chance that a fresh
    sequence drawn from the conditional law given that summary has a last
    ridge residual at least as large as the observed one.  The chance is
    estimated by the step's common draws: the bag orderings and sphere
    directions are drawn once per step and reused for every candidate, so
    each draw's score is an explicit affine function of the candidate plus a
    radius term.  ``step`` builds them in O(samples * n * K) GEMMs and
    O(samples * n) memory.

    The estimate is a step function of the candidate whose jumps are solved
    in closed form (``IidGaussStep.sweep``), so the reported interval is the
    exact hull of the candidates whose estimated p-value exceeds epsilon, in
    one O(samples log samples) sweep for all levels: no search bound, no
    bisection, and no assumption that the survivor set is an interval.  An
    unbounded end cell gives a ray.  The only approximation left is the
    Monte-Carlo noise of the estimate.  Before step K + 2, where the
    conditional law is degenerate, or with no samples, the step is None and
    the intervals are full lines.

    Rank is decided on the history's design block
    (``History.design_has_full_rank``), as for the other predictors: at
    ridge 0 over every column, which the conditional law needs, and at the
    model's ridge over the active columns of a fit that is not the full
    one.  A ridge-0 history that only the new row would make full rank
    raises ``RankDeficiencyError``.
    """

    ridge: float = 0.0
    schedule: FeatureSchedule | None = None
    mc: MonteCarloConfig = MonteCarloConfig()

    # each row's draws need the design in its own canonical order and its
    # own QR factors, so a batch takes one step per row
    block_rows = 1

    def __post_init__(self):
        validate_ridge(self.ridge)

    def step(self, history: History, x_new) -> IidGaussStep | None:
        """The step's draws, the observed last residual and the radius terms;
        None while the conditional law is degenerate (fewer than K + 2 total
        observations, or no samples requested).

        A draw permutes the rows, but the truncated fit and the fitted
        vectors do not change under row permutations, so no permuted copy of
        the design is formed: the fitted vectors' truncated residuals are
        computed once and read at each draw's last row, and the observed one
        at the new row.  A draw's direction is orthogonal to every design
        column, so its truncated fit is zero and its last residual is its own
        last entry.  The fits are orthogonal projections through QR factors
        of the design, so the design's conditioning is not squared.
        """
        ridge, schedule, mc = self.ridge, self.schedule, self.mc
        k = history.feature_count
        n = len(history) + 1
        if n < k + 2 or mc.samples < 1:
            return None
        x = _new_row(x_new, k)
        # the conditional law needs the whole design at full rank, whatever
        # the ridge, as ``sample_conditional`` does
        if not history.design_has_full_rank():
            raise RankDeficiencyError("feature bag gives a rank-deficient design")
        active = _active_features(schedule, n, k)
        reflected = ridge == 0.0 and active == k
        if not reflected:
            _require_full_rank(history, ridge, active + 1)

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

        # Fitted vectors of the fixed responses (new response 0) and of the new
        # row's unit vector, in canonical order.
        new_at = int(np.flatnonzero(canonical == n - 1)[0])
        fixed = np.append(history.responses, 0.0)[canonical]
        fixed_fit = basis @ (basis.T @ fixed)
        unit_fit = basis @ basis[new_at]

        rng = np.random.default_rng(mc.seed)
        orderings = random_orderings(rng, mc.samples, n)
        directions = complement_directions(rng, ordered, orderings, upper)

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
            trunc_basis = np.linalg.qr(stacked)[0][:n]
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

    def predict(self, step, levels) -> list[PredictionInterval]:
        return iidgauss_predict(step, levels)

    @staticmethod
    def _bounds(step, levels: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper ends at each level, one column per level: the
        exact hull of the candidates whose estimated p-value exceeds each
        level, from one sweep over the draws' crossing points
        (``IidGaussStep.sweep``) for all levels; full lines for a step of
        None."""
        if step is None:
            return _full_bounds(levels)
        lower, upper = sweep_hull(step.sweep(), step.draw_dir.size + 1, levels)
        return lower + step.center, upper + step.center

    def pvalue(self, step, response: float, tie_break: float = 1.0) -> float:
        return iidgauss_pvalue(step, response)

    def can_bound(self, n: int, feature_count: int, levels) -> bool:
        """Whether step n can give a bounded interval: n >= K + 2, where the
        conditional law first has a residual dimension.  The p-value is a
        Monte-Carlo estimate over that law, not a rank among n residuals, so
        it is not held above 1/n and the rule does not wait for step
        ceil(1 / epsilon)."""
        return n >= feature_count + 2


def iidgauss_predict(step: IidGaussStep | None, levels) -> list[PredictionInterval]:
    """The intervals of ``IidGaussPredictor`` read from one of its steps
    (``IidGaussPredictor._bounds``); a step of None gives full lines."""
    return _intervals(*IidGaussPredictor._bounds(step, validate_levels(levels)))


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


# ---------------------------------------------------------------------------
# Reference predictor that never commits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullLinePredictor:
    """Degenerate baseline that never commits to anything."""

    def step(self, history: History, x_new) -> None:
        return None

    def predict(self, step, levels) -> list[PredictionInterval]:
        return _intervals(*self._bounds(step, validate_levels(levels)))

    def _bounds(self, step, levels: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        return _full_bounds(levels)

    def pvalue(self, step, response: float, tie_break: float = 1.0) -> float:
        return 1.0
