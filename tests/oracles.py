"""Independent reference implementations used to fix expected test values.

Nothing here imports from the package's predictor internals: regions are
assembled set-by-set or by grid scanning, projections go through explicit
matrix solves, and quantiles come from closed forms or scipy.stats.  The
point is that a bookkeeping bug in the fast implementations cannot cancel
out here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, pi, sqrt, tan

import numpy as np
from scipy import stats
from scipy.linalg import cho_factor, cho_solve
from scipy.special import erfinv


# ---------------------------------------------------------------------------
# Projection and residual references
# ---------------------------------------------------------------------------


def projection_matrix(design: np.ndarray, ridge: float) -> np.ndarray:
    """The explicit residual projector I - U (U'U + aI)^-1 U'."""
    design = np.asarray(design, dtype=float)
    n, cols = design.shape
    gram = design.T @ design + ridge * np.eye(cols)
    return np.eye(n) - design @ np.linalg.solve(gram, design.T)


def residuals_direct(design, ridge, responses) -> np.ndarray:
    return projection_matrix(design, ridge) @ np.asarray(responses, dtype=float)


def affine_residuals(design, ridge, fixed_responses):
    """Offset and slope of each residual as a function of the last response."""
    n = design.shape[0]
    padded = np.zeros(n)
    padded[:-1] = np.asarray(fixed_responses, dtype=float)
    unit = np.zeros(n)
    unit[-1] = 1.0
    matrix = projection_matrix(design, ridge)
    return matrix @ padded, matrix @ unit


# ---------------------------------------------------------------------------
# Student t references
# ---------------------------------------------------------------------------


def cauchy_upper_quantile(delta: float) -> float:
    """Upper quantile of the one-degree-of-freedom law, in closed form."""
    return tan(pi * (0.5 - delta))


def normal_upper_quantile(delta: float) -> float:
    """Upper quantile of the standard normal law via the inverse error function."""
    return sqrt(2.0) * float(erfinv(1.0 - 2.0 * delta))


def t_cdf_reference(df: int, value: float) -> float:
    return float(stats.t.cdf(value, df))


def t_upper_quantile_reference(df: int, delta: float) -> float:
    return float(stats.t.ppf(1.0 - delta, df))


# ---------------------------------------------------------------------------
# Rank-region brute force: assemble each comparison set explicitly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSet:
    """One comparison set {y : |a_i + y b_i| >= |a_n + y b_n|}, in closed form.

    ``kind`` is one of "all", "none", "interval" (closed [lo, hi]),
    "rays" (two closed rays, complement of an open interval), "left" (one
    closed left ray ending at lo == hi), "right" (one closed right ray).
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0

    def contains(self, y: float) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "none":
            return False
        if self.kind == "interval":
            return self.lo <= y <= self.hi
        if self.kind == "rays":
            return y <= self.lo or y >= self.hi
        if self.kind == "left":
            return y <= self.lo
        return y >= self.hi

    def finite_points(self) -> list[float]:
        if self.kind in ("all", "none"):
            return []
        if self.kind in ("interval", "rays"):
            return [self.lo, self.hi]
        return [self.lo] if self.kind == "left" else [self.hi]


def comparison_sets(offset, slope) -> list[AffineSet]:
    """Solve every |e_i(y)| >= |e_n(y)| comparison as an explicit set."""
    offset = np.array(offset, dtype=float)
    slope = np.array(slope, dtype=float)
    flip = slope < 0
    offset[flip] = -offset[flip]
    slope[flip] = -slope[flip]
    a_n, b_n = float(offset[-1]), float(slope[-1])
    out = []
    for a_i, b_i in zip(offset[:-1].tolist(), slope[:-1].tolist()):
        if b_i != b_n:
            # (a_i - a_n + y(b_i - b_n)) (a_i + a_n + y(b_i + b_n)) >= 0,
            # leading coefficient b_i^2 - b_n^2.
            r1 = -(a_i - a_n) / (b_i - b_n)
            r2 = -(a_i + a_n) / (b_i + b_n)
            lo, hi = min(r1, r2), max(r1, r2)
            if b_i < b_n:
                out.append(AffineSet("interval", lo, hi))
            elif r1 == r2:
                out.append(AffineSet("all"))
            else:
                out.append(AffineSet("rays", lo, hi))
        elif a_i == a_n:
            out.append(AffineSet("all"))
        elif b_n != 0.0:
            crossing = -(a_i + a_n) / (2.0 * b_n)
            if a_i > a_n:
                out.append(AffineSet("right", hi=crossing))
            else:
                out.append(AffineSet("left", lo=crossing))
        elif abs(a_i) >= abs(a_n):
            out.append(AffineSet("all"))
        else:
            out.append(AffineSet("none"))
    return out


def rank_count(sets: list[AffineSet], y: float) -> int:
    """Number of residual magnitudes >= the last one at candidate y (incl. itself)."""
    return 1 + sum(s.contains(y) for s in sets)


def rank_region_hull(offset, slope, epsilon: float) -> tuple[float, float]:
    """Convex hull of {y : rank fraction > epsilon}, assembled set-by-set.

    Returns (lower, upper) with infinities for unbounded sides and
    (inf, -inf) for the empty region, matching the package encoding.
    """
    sets = comparison_sets(offset, slope)
    n = len(sets) + 1
    points = sorted({p for s in sets for p in s.finite_points()})

    def survives(y: float) -> bool:
        return rank_count(sets, y) / n > epsilon

    if not points:
        full = survives(0.0)
        return (-inf, inf) if full else (inf, -inf)

    span = max(points[-1] - points[0], 1.0)
    left_unbounded = survives(points[0] - span)
    right_unbounded = survives(points[-1] + span)
    surviving = [p for p in points if survives(p)]
    # A surviving open cell implies both its endpoints survive (every
    # comparison set is closed), so the hull is determined by the points.
    if not surviving:
        if left_unbounded or right_unbounded:
            # Region exists only beyond the critical points on one side,
            # impossible: counts are constant there and bounded by endpoint
            # counts.  Kept for completeness.
            return (-inf, inf)
        return (inf, -inf)
    lower = -inf if left_unbounded else surviving[0]
    upper = inf if right_unbounded else surviving[-1]
    return lower, upper


def sweep_loop(offset, slope):
    """Sorted crossing points, deltas and boundary counts, one comparison at a time.

    The scalar case analysis that the vectorized ``build_sweep`` must
    reproduce exactly: the same float expressions per case, the same
    sentinels, and the same (point, -delta) lexicographic tie order.
    Returns (points, deltas, left_count, right_count).
    """
    offset = np.array(offset, dtype=float)
    slope = np.array(slope, dtype=float)
    flip = slope < 0.0
    offset[flip] = -offset[flip]
    slope[flip] = -slope[flip]
    last_offset = float(offset[-1])
    last_slope = float(slope[-1])

    points: list[float] = []
    deltas: list[int] = []
    left = right = 0
    for a_i, b_i in zip(offset[:-1].tolist(), slope[:-1].tolist()):
        if b_i != last_slope:
            first = -(a_i - last_offset) / (b_i - last_slope)
            second = -(a_i + last_offset) / (b_i + last_slope)
            lo, hi = (first, second) if first <= second else (second, first)
            if b_i < last_slope:
                points += [lo, hi]
                deltas += [1, -1]
            elif first == second:
                left += 1
                right += 1
            else:
                points += [lo, hi]
                deltas += [-1, 1]
                left += 1
                right += 1
        elif a_i == last_offset:
            left += 1
            right += 1
        elif last_slope != 0.0:
            crossing = -(a_i + last_offset) / (2.0 * last_slope)
            points.append(crossing)
            if a_i > last_offset:
                deltas.append(1)
                right += 1
            else:
                deltas.append(-1)
                left += 1
        elif abs(a_i) >= abs(last_offset):
            left += 1
            right += 1

    all_points = np.array([-inf] + points + [inf])
    all_deltas = np.array([left + 1] + deltas + [-right - 1], dtype=np.int64)
    order = np.lexsort((-all_deltas, all_points))
    return all_points[order], all_deltas[order], left, right


# ---------------------------------------------------------------------------
# Monte-Carlo draws of the IID-Gauss predictor, in permuted row order
# ---------------------------------------------------------------------------


def complement_directions_gathered(rng, design, orderings, gram_factor) -> np.ndarray:
    """Unit complement directions computed on an explicit permuted copy of the design.

    Consumes ``rng`` exactly as the package's ``complement_directions`` (one
    block of normal draws per rejection round) but gathers
    ``design[orderings]``, a count x n x (K+1) tensor, and contracts it with
    einsum, so no scatter to the unpermuted row order is involved.
    """
    count, n = orderings.shape
    rows = design[orderings]
    out = np.empty((count, n))
    pending = np.arange(count)
    for _ in range(64):
        if pending.size == 0:
            return out
        draws = rng.standard_normal((pending.size, n))
        moments = np.einsum("mnk,mn->mk", rows[pending], draws)
        coef = cho_solve(gram_factor, moments.T).T
        resid = draws - np.einsum("mnk,mk->mn", rows[pending], coef)
        norms = np.linalg.norm(resid, axis=1)
        accepted = norms > 1e-12
        out[pending[accepted]] = resid[accepted] / norms[accepted, None]
        pending = pending[~accepted]
    raise RuntimeError("direction sampling failed to converge")


def complement_directions_masked(rng, design, orderings, gram_factor) -> np.ndarray:
    """The package's scatter-and-GEMM direction sampler, as it was before it
    worked in place: every round copies the accepted rows out by boolean
    masks.  The in-place form must reproduce it bit for bit."""
    count, n = orderings.shape
    out = np.empty((count, n))
    pending = np.arange(count)
    for _ in range(64):
        if pending.size == 0:
            return out
        draws = rng.standard_normal((pending.size, n))
        order = orderings[pending]
        scattered = np.empty_like(draws)
        np.put_along_axis(scattered, order, draws, axis=1)
        coef = cho_solve(gram_factor, (scattered @ design).T).T
        resid = np.take_along_axis(scattered - coef @ design.T, order, axis=1)
        norms = np.linalg.norm(resid, axis=1)
        accepted = norms > 1e-12
        out[pending[accepted]] = resid[accepted] / norms[accepted, None]
        pending = pending[~accepted]
    raise RuntimeError("direction sampling failed to converge")


def mc_bisection_boundary(step, epsilon, direction, scale, search_bound):
    """One endpoint of {y : step.pvalue(y) > epsilon}, searched outward from
    ``step.center``: doubling steps from ``scale`` until the p-value drops to
    epsilon or the distance passes ``search_bound`` (a ray), then 40
    bisections.  It finds the first crossing on each side, so it assumes the
    survivor set is an interval around the center."""
    center = step.center
    inside = center
    distance = scale
    while True:
        candidate = center + direction * distance
        if distance > search_bound:
            return direction * inf
        if step.pvalue(candidate) <= epsilon:
            outside = candidate
            break
        inside = candidate
        distance *= 2.0
    for _ in range(40):
        middle = 0.5 * (inside + outside)
        if step.pvalue(middle) > epsilon:
            inside = middle
        else:
            outside = middle
    return 0.5 * (inside + outside)


def mc_bisection_interval(step, epsilon, scale, search_bound):
    """(lower, upper) by bisection from the center; (inf, -inf) when the
    center itself has a p-value at or below epsilon."""
    if step.pvalue(step.center) <= epsilon:
        return inf, -inf
    return (
        mc_bisection_boundary(step, epsilon, -1.0, scale, search_bound),
        mc_bisection_boundary(step, epsilon, +1.0, scale, search_bound),
    )


def mc_draws_gathered(features, head_responses, ridge, active, samples, seed):
    """Each draw's last truncated residual as (constant, slope, direction) parts.

    ``features`` holds every row including the new one.  Follows the IID-Gauss
    predictor's random stream (canonical row order, orderings, then
    directions) and refits every permuted draw on its own gathered rows.
    Returns (draw_const, draw_lin, draw_dir), one entry per draw.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    design = np.column_stack([np.ones(n), features])
    factor = cho_factor(design.T @ design, lower=True)
    fixed_fit = design @ cho_solve(factor, design[:-1].T @ np.asarray(head_responses, float))
    unit_fit = design @ cho_solve(factor, design[-1])

    canonical = np.lexsort(design.T[::-1])
    rng = np.random.default_rng(seed)
    orderings = canonical[np.argsort(rng.random((samples, n)), axis=1)]
    directions = complement_directions_gathered(rng, design, orderings, factor)

    truncated = design[:, : active + 1]
    trunc_factor = cho_factor(
        truncated.T @ truncated + ridge * np.eye(active + 1), lower=True
    )
    rows = truncated[orderings]

    def last_residual(values):
        moments = np.einsum("mnk,mn->mk", rows, values)
        coef = cho_solve(trunc_factor, moments.T).T
        return values[:, -1] - np.einsum("mk,mk->m", rows[:, -1, :], coef)

    return (
        last_residual(fixed_fit[orderings]),
        last_residual(unit_fit[orderings]),
        last_residual(directions),
    )


def rank_pvalue_direct(design, ridge, responses) -> float:
    """Deterministic rank p-value by recomputing all residuals from scratch."""
    residual = residuals_direct(design, ridge, responses)
    magnitudes = np.abs(residual)
    return float(np.count_nonzero(magnitudes >= magnitudes[-1])) / magnitudes.size


# ---------------------------------------------------------------------------
# Centered-residual (quadratic-region) grid oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridHull:
    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return self.lower == inf and self.upper == -inf


def centered_inequality_member(offset, slope, count, t_value):
    """Membership test of the studentized-centered-residual region at y."""
    offset = np.asarray(offset, dtype=float)
    slope = np.asarray(slope, dtype=float)
    a = offset - offset[:-1].mean()
    b = slope - slope[:-1].mean()
    head_a, head_b = a[:-1], b[:-1]
    factor = (count - 1) * (count - 2)
    weight = t_value * t_value * count

    def member(y: float) -> bool:
        last = a[-1] + y * b[-1]
        head = head_a + y * head_b
        return factor * last * last < weight * float(head @ head)

    return member


def quadratic_region_grid_hull(
    offset, slope, count: int, t_value: float, refine: float = 1e-7
) -> GridHull:
    """Hull of the centered-residual region by dense scanning plus bisection.

    Scans a coarse grid over [-1e4, 1e4] and a fine grid over [-100, 100],
    anchored additionally at the zero of the last centered residual (always
    interior when the region is nonempty and the spread is positive there).
    Region edges are located by bisection to ``refine``; survival at a coarse
    grid end marks that side unbounded.
    """
    member = centered_inequality_member(offset, slope, count, t_value)
    coarse = np.linspace(-1e4, 1e4, 40001)
    fine = np.linspace(-100.0, 100.0, 200001)
    candidates = np.concatenate([coarse, fine])
    a = np.asarray(offset, dtype=float) - np.asarray(offset, dtype=float)[:-1].mean()
    b = np.asarray(slope, dtype=float) - np.asarray(slope, dtype=float)[:-1].mean()
    if b[-1] != 0.0:
        anchor = -a[-1] / b[-1]
        candidates = np.concatenate(
            [candidates, anchor + np.array([-1.0, -1e-3, -1e-6, 0.0, 1e-6, 1e-3, 1.0])]
        )
    candidates = np.unique(candidates)
    # bulk scan: summed squared head residuals evaluated directly, in chunks
    factor = (count - 1) * (count - 2)
    weight = t_value * t_value * count
    flags = np.empty(candidates.size, dtype=bool)
    head_a, head_b = a[:-1], b[:-1]
    for start in range(0, candidates.size, 20000):
        ys = candidates[start : start + 20000]
        last = a[-1] + ys * b[-1]
        heads = head_a[:, None] + head_b[:, None] * ys[None, :]
        energy = np.einsum("ij,ij->j", heads, heads)
        flags[start : start + 20000] = factor * last * last < weight * energy
    if not flags.any():
        return GridHull(inf, -inf)

    surviving = np.flatnonzero(flags)
    first, last = surviving[0], surviving[-1]

    def bisect(inside: float, outside: float) -> float:
        while abs(outside - inside) > refine:
            middle = 0.5 * (inside + outside)
            if member(middle):
                inside = middle
            else:
                outside = middle
        return 0.5 * (inside + outside)

    if candidates[first] <= coarse[0]:
        lower = -inf
    elif first == 0:
        lower = candidates[0]
    else:
        lower = bisect(candidates[first], candidates[first - 1])
    if candidates[last] >= coarse[-1]:
        upper = inf
    elif last == candidates.size - 1:
        upper = candidates[-1]
    else:
        upper = bisect(candidates[last], candidates[last + 1])
    return GridHull(lower, upper)


def hulls_match(mine_lower, mine_upper, ref_lower, ref_upper, atol=1e-5) -> bool:
    """Endpoint agreement up to ``atol``, treating sub-tolerance slivers
    and the empty encoding (inf, -inf) as indistinguishable.

    Near-tangent quadratics are the one honest ambiguity: exact arithmetic
    gives an empty region or a point, floats on either route may produce a
    sliver a few ulps wide, and no endpoint comparison at ``atol`` can tell
    the two apart.
    """

    mine_empty = mine_lower == inf and mine_upper == -inf
    ref_empty = ref_lower == inf and ref_upper == -inf
    if mine_empty or ref_empty:
        other_width = (ref_upper - ref_lower) if mine_empty else (mine_upper - mine_lower)
        if ref_empty and mine_empty:
            return True
        return other_width <= 2.0 * atol

    def side_matches(a, b):
        if np.isinf(a) or np.isinf(b):
            return a == b
        return abs(a - b) <= atol

    return side_matches(mine_lower, ref_lower) and side_matches(mine_upper, ref_upper)


def centered_score_direct(design, ridge, responses) -> float:
    """Centered-residual score recomputed from the raw data in one pass."""
    residual = residuals_direct(design, ridge, responses)
    head = residual[:-1]
    centered = head - head.mean()
    return float((residual[-1] - head.mean()) / sqrt(float(centered @ centered)))


def centered_pvalue_direct(design, ridge, responses) -> float:
    """Two-sided p-value of the studentized centered last residual."""
    n = design.shape[0]
    score = centered_score_direct(design, ridge, responses)
    statistic = sqrt((n - 1) * (n - 2) / n) * score
    return 2.0 * (1.0 - float(stats.t.cdf(abs(statistic), n - 2)))


# ---------------------------------------------------------------------------
# Studentized-pivot (classical) interval, recomputed independently
# ---------------------------------------------------------------------------


def pivot_interval(features, responses, x_new, epsilon: float) -> tuple[float, float]:
    """Classical prediction interval via pseudoinverse and explicit leverage."""
    features = np.asarray(features, dtype=float)
    responses = np.asarray(responses, dtype=float)
    rows = features.shape[0]
    design = np.column_stack([np.ones(rows), features])
    coefficients = np.linalg.pinv(design) @ responses
    fitted = design @ coefficients
    dof = rows - design.shape[1]
    sigma = sqrt(float((responses - fitted) @ (responses - fitted)) / dof)
    row = np.concatenate([[1.0], np.atleast_1d(np.asarray(x_new, dtype=float))])
    leverage = float(row @ np.linalg.inv(design.T @ design) @ row)
    center = float(coefficients @ row)
    half = t_upper_quantile_reference(dof, epsilon / 2.0) * sigma * sqrt(1.0 + leverage)
    return center - half, center + half


def pivot_interval_svd(features, responses, x_new, epsilon: float) -> tuple[float, float]:
    """Classical prediction interval from the SVD of the design, never its Gram.

    The coefficients come from an SVD least-squares solve and the leverage is
    ||S^-1 V' z||^2, so the design's conditioning enters once, not squared.
    """
    features = np.asarray(features, dtype=float)
    responses = np.asarray(responses, dtype=float)
    rows = features.shape[0]
    design = np.column_stack([np.ones(rows), features])
    coefficients, *_ = np.linalg.lstsq(design, responses, rcond=None)
    _, singular_values, right = np.linalg.svd(design, full_matrices=False)
    row = np.concatenate([[1.0], np.atleast_1d(np.asarray(x_new, dtype=float))])
    whitened = (right @ row) / singular_values
    leverage = float(whitened @ whitened)
    fitted = design @ coefficients
    dof = rows - design.shape[1]
    sigma = sqrt(float((responses - fitted) @ (responses - fitted)) / dof)
    center = float(coefficients @ row)
    half = t_upper_quantile_reference(dof, epsilon / 2.0) * sigma * sqrt(1.0 + leverage)
    return center - half, center + half


def pivot_score_direct(features, responses, x_new, y_new) -> float:
    """|y - yhat| / (sigma sqrt(1 + leverage)) recomputed from raw data."""
    features = np.asarray(features, dtype=float)
    responses = np.asarray(responses, dtype=float)
    rows = features.shape[0]
    design = np.column_stack([np.ones(rows), features])
    coefficients = np.linalg.pinv(design) @ responses
    fitted = design @ coefficients
    dof = rows - design.shape[1]
    sigma = sqrt(float((responses - fitted) @ (responses - fitted)) / dof)
    row = np.concatenate([[1.0], np.atleast_1d(np.asarray(x_new, dtype=float))])
    leverage = float(row @ np.linalg.inv(design.T @ design) @ row)
    center = float(coefficients @ row)
    return abs(y_new - center) / (sigma * sqrt(1.0 + leverage))


# ---------------------------------------------------------------------------
# Exact binomial band by direct CDF summation
# ---------------------------------------------------------------------------


def binomial_band_direct(count: int, probability: float, confidence: float = 0.99):
    """Central acceptance band computed by summing binomial probabilities."""
    tail = (1.0 - confidence) / 2.0
    masses = stats.binom.pmf(np.arange(count + 1), count, probability)
    cumulative = np.cumsum(masses)
    low = int(np.searchsorted(cumulative, tail))
    high = int(np.searchsorted(cumulative, 1.0 - tail))
    return low, high


def normal_interval_halfwidth(epsilon: float) -> float:
    """Half-width of the known-noise oracle interval, via erfinv."""
    return normal_upper_quantile(epsilon / 2.0)
