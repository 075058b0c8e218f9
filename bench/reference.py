"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``olreg``.  Residuals go through an explicit n-by-n
projection matrix, the rank region is assembled by counting residual
magnitudes at probe points, the centered-residual region by solving its
quadratic in the candidate response, the classical pivot interval through a
QR factorization, and the IID-Gauss p-value by the benchmark's own Monte
Carlo draws.  A bookkeeping error in the program's factorized and swept
routes cannot cancel out against these.
"""

from __future__ import annotations

from math import inf, sqrt

import numpy as np
from scipy import stats
from scipy.linalg import solve_triangular


def design(features: np.ndarray, active: int) -> np.ndarray:
    """Intercept column followed by the first ``active`` feature columns."""
    return np.column_stack([np.ones(features.shape[0]), features[:, :active]])


def projection(matrix: np.ndarray, ridge: float) -> np.ndarray:
    """The explicit residual map I - U (U'U + aI)^-1 U' of a ridge fit."""
    n, cols = matrix.shape
    gram = matrix.T @ matrix + ridge * np.eye(cols)
    return np.eye(n) - matrix @ np.linalg.solve(gram, matrix.T)


def affine_residuals(features, head_responses, ridge, active):
    """Residuals of (head_responses..., y) as offset + y * slope, all n rows."""
    residual_map = projection(design(features, active), ridge)
    return residual_map[:, :-1] @ head_responses, residual_map[:, -1].copy()


def auto_active(step: int, feature_count: int) -> int:
    """Active feature count of the CLI's ``auto`` schedule at step n."""
    return min(10, feature_count) if step < feature_count + 3 else feature_count


# ---------------------------------------------------------------------------
# IID: rank region by counting at probe points
# ---------------------------------------------------------------------------


def rank_hull(offset, slope, epsilon: float) -> tuple[float, float]:
    """Hull of {y : #{i : |e_i(y)| >= |e_n(y)|} / n > epsilon}.

    The count is constant between consecutive points where two residual
    magnitudes cross, so it is evaluated once inside every such cell and
    beyond both extreme points.  Every comparison set is closed, so the hull
    runs from the left end of the first surviving cell to the right end of
    the last one.
    """
    n = offset.size
    head_a, head_b = offset[:-1], slope[:-1]
    last_a, last_b = offset[-1], slope[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.concatenate(
            [-(head_a - last_a) / (head_b - last_b), -(head_a + last_a) / (head_b + last_b)]
        )
    points = np.unique(roots[np.isfinite(roots)])
    if points.size == 0:
        probes = np.array([0.0])
    else:
        span = max(points[-1] - points[0], 1.0)
        probes = np.concatenate(
            [[points[0] - span], 0.5 * (points[:-1] + points[1:]), [points[-1] + span]]
        )
    surviving = np.empty(probes.size, dtype=bool)
    for start in range(0, probes.size, 512):
        ys = probes[start : start + 512]
        magnitudes = np.abs(offset[:, None] + slope[:, None] * ys[None, :])
        counts = np.count_nonzero(magnitudes >= magnitudes[-1], axis=0)
        surviving[start : start + 512] = counts / n > epsilon
    cells = np.flatnonzero(surviving)
    if cells.size == 0:
        return inf, -inf
    if points.size == 0:
        return -inf, inf
    lower = -inf if cells[0] == 0 else points[cells[0] - 1]
    upper = inf if cells[-1] == points.size else points[cells[-1]]
    return float(lower), float(upper)


def rank_pvalue(offset, slope, response: float, tie_break: float) -> float:
    """Smoothed rank p-value of the realized response."""
    magnitudes = np.abs(offset + response * slope)
    last = magnitudes[-1]
    larger = np.count_nonzero(magnitudes[:-1] > last)
    equal = 1 + np.count_nonzero(magnitudes[:-1] == last)
    return (larger + tie_break * equal) / magnitudes.size


# ---------------------------------------------------------------------------
# MVA: studentized last centered residual, solved as a quadratic in y
# ---------------------------------------------------------------------------


def _centered(offset, slope):
    return offset - offset[:-1].mean(), slope - slope[:-1].mean()


def centered_hull(offset, slope, epsilon: float) -> tuple[float, float]:
    """Hull of {y : |T(y)| < t_{n-2}(epsilon / 2)}, T the statistic of ``centered_pvalue``.

    Squared, the condition reads q(y) = (n-1)(n-2) c_n(y)^2
    - t^2 n sum_{i<n} c_i(y)^2 < 0 with every c_i affine in y.
    """
    n = offset.size
    if n < 3:
        return -inf, inf
    a, b = _centered(offset, slope)
    if not a[:-1].any() and not b[:-1].any():
        return -inf, inf
    t = float(stats.t.isf(epsilon / 2.0, n - 2))
    scale, weight = (n - 1) * (n - 2), t * t * n
    lead = scale * b[-1] ** 2 - weight * float(b[:-1] @ b[:-1])
    half_linear = scale * a[-1] * b[-1] - weight * float(a[:-1] @ b[:-1])
    constant = scale * a[-1] ** 2 - weight * float(a[:-1] @ a[:-1])
    if lead < 0.0:
        return -inf, inf
    if lead == 0.0:
        if half_linear == 0.0:
            return (-inf, inf) if constant < 0.0 else (inf, -inf)
        root = -constant / (2.0 * half_linear)
        return (-inf, root) if half_linear > 0.0 else (root, inf)
    disc = half_linear * half_linear - lead * constant
    if disc <= 0.0:
        return inf, -inf
    # Stable pair of roots: one from the quadratic formula, one from Vieta.
    far = -(half_linear + np.copysign(sqrt(disc), half_linear))
    roots = sorted([far / lead, constant / far])
    return roots[0], roots[1]


def centered_pvalue(offset, slope, response: float) -> float:
    """Two-sided p-value of sqrt((n-1)(n-2)/n) (e_n - mean e_head) / spread.

    The spread is the root of sum_{i<n} (e_i - mean e_head)^2; a zero spread
    gives 1, as a 0/0 statistic carries no evidence.
    """
    n = offset.size
    if n < 3:
        return 1.0
    a, b = _centered(offset, slope)
    c = a + response * b
    spread = float(c[:-1] @ c[:-1])
    if spread == 0.0:
        return 1.0
    statistic = sqrt((n - 1) * (n - 2) / n) * float(c[-1]) / sqrt(spread)
    return float(2.0 * stats.t.sf(abs(statistic), n - 2))


# ---------------------------------------------------------------------------
# Gauss: classical studentized prediction pivot through QR
# ---------------------------------------------------------------------------


def _pivot_geometry(features, responses, x_new):
    matrix = design(features, features.shape[1])
    q, r = np.linalg.qr(matrix)
    coefficients = solve_triangular(r, q.T @ responses)
    residual = responses - matrix @ coefficients
    dof = matrix.shape[0] - matrix.shape[1]
    sigma = sqrt(float(residual @ residual) / dof)
    row = np.concatenate([[1.0], x_new])
    leverage_root = solve_triangular(r.T, row, lower=True)
    center = float(row @ coefficients)
    return center, sigma * sqrt(1.0 + float(leverage_root @ leverage_root)), dof


def pivot_interval(features, responses, x_new, epsilon: float) -> tuple[float, float]:
    """Two-sided t prediction interval; full line below K + 2 history rows."""
    if features.shape[0] < features.shape[1] + 2:
        return -inf, inf
    center, spread, dof = _pivot_geometry(features, responses, x_new)
    half = float(stats.t.isf(epsilon / 2.0, dof)) * spread
    return center - half, center + half


def pivot_pvalue(features, responses, x_new, response: float) -> float:
    if features.shape[0] < features.shape[1] + 2:
        return 1.0
    center, spread, dof = _pivot_geometry(features, responses, x_new)
    return float(2.0 * stats.t.sf(abs(response - center) / spread, dof))


# ---------------------------------------------------------------------------
# IID-Gauss: Monte-Carlo p-value from the conditional law given the summary
# ---------------------------------------------------------------------------


class ConditionalLaw:
    """Draws from the response law given its sufficient summary, for one step.

    Given the n rows (history plus the new explanatory vector), the ordering
    of the rows is uniform and the response vector is uniform on the sphere
    {fitted + r : r orthogonal to the design columns, |r| = |residual|}.
    Permuting the rows permutes the truncated ridge residual map the same
    way, so the last residual of a permuted sample is the residual, in the
    original row order, of whichever row the permutation puts last.
    """

    def __init__(self, features, ridge: float, active: int, draws: int, rng):
        n = features.shape[0]
        self._complement = projection(design(features, features.shape[1]), 0.0)
        self._residual_map = projection(design(features, active), ridge)
        gaussian = rng.standard_normal((n, draws))
        directions = self._complement @ gaussian
        directions /= np.linalg.norm(directions, axis=0)
        orderings = rng.permuted(np.tile(np.arange(n), (draws, 1)), axis=1)
        self._last = orderings[:, -1]
        self._direction_residuals = (self._residual_map @ directions)[
            self._last, np.arange(draws)
        ]
        self.draws = draws

    def exceedances(self, responses: np.ndarray) -> int:
        """Draws whose last residual magnitude is at least the observed one."""
        residual = self._complement @ responses
        radius = float(np.linalg.norm(residual))
        fitted_residuals = self._residual_map @ (responses - residual)
        target = abs(float(self._residual_map[-1] @ responses))
        scores = np.abs(fitted_residuals[self._last] + radius * self._direction_residuals)
        return int(np.count_nonzero(scores >= target))


def endpoint_band(epsilon: float, program_samples: int, draws: int, tail: float):
    """Range of exceedance counts consistent with a p-value of epsilon.

    The program's endpoint is where its own estimate from ``program_samples``
    draws crosses epsilon, so the true p-value there lies within 4.5 of that
    estimate's standard deviations (plus its +1 numerator) of epsilon.
    """
    slack = 4.5 * sqrt(epsilon * (1.0 - epsilon) / program_samples) + 1.0 / (
        program_samples + 1
    )
    low = int(stats.binom.ppf(tail, draws, max(epsilon - slack, 0.0)))
    high = int(stats.binom.isf(tail, draws, min(epsilon + slack, 1.0)))
    return low, high


# ---------------------------------------------------------------------------
# Ledger-level statistics
# ---------------------------------------------------------------------------


def binomial_upper(steps: int, epsilon: float, tail: float) -> int:
    """Largest error count not in the upper ``tail`` of Binomial(steps, epsilon)."""
    return int(stats.binom.isf(tail, steps, epsilon))


def running_medians(values: np.ndarray) -> np.ndarray:
    """Median of every prefix; an even count with an infinite middle is inf."""
    out = np.empty(values.size)
    for step in range(values.size):
        ordered = np.sort(values[: step + 1])
        half = (step + 1) // 2
        if (step + 1) % 2:
            out[step] = ordered[half]
        else:
            low, high = ordered[half - 1], ordered[half]
            out[step] = inf if inf in (low, high) else 0.5 * (low + high)
    return out


def ks_uniform_pvalue(values) -> float:
    return float(stats.kstest(np.asarray(values, dtype=float), "uniform").pvalue)
