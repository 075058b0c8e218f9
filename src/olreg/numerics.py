"""Linear-algebra and Student-t primitives shared by the interval predictors.

The residual projector applies ``e = y - U (U'U + aI)^{-1} U' y`` without ever
forming an n-by-n matrix: everything is routed through one Cholesky
factorization of the small normal matrix, so a projector application costs
O(n k) after an O(k^3 + n k^2) setup for k regressor columns.

Because candidate responses enter the augmented response vector linearly, the
residual vector of (y_1, ..., y_{n-1}, y) is an affine function of y.  The
``residual_decomposition`` helper materializes that affine map once per
prediction step; the predictors then scan candidate responses at O(1) per
residual component instead of re-solving.

The Gauss predictor needs no projector: its least-squares fit is read from
the upper-triangular factor R of [design | responses] that ``History`` keeps
(R'R equals the augmented Gram matrix, which is never formed).  New rows are
absorbed lazily by a triangular-pentagonal QR update, O(K^2) per row, so an
on-line step costs O(K^2) for the factor and its triangular solves plus one
O(nK) residual pass, and the design's conditioning is never squared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import stdtr, stdtrit

from .base import RankDeficiencyError

# Reciprocal condition number below which an unregularized normal matrix is
# treated as rank deficient rather than silently solved.
RCOND_FLOOR = 1e-12


class RidgeProjector:
    """Residual map of a ridge regression with a fixed design matrix.

    Parameters
    ----------
    design : array of shape (n_rows, n_cols)
        Regressor matrix, one row per observation (the leading column is
        normally the constant 1).
    ridge : float
        Nonnegative ridge coefficient ``a``.  With ``a = 0`` the design must
        have full column rank; with ``a > 0`` any design is accepted.

    Raises
    ------
    RankDeficiencyError
        If ``ridge == 0`` and the normal matrix has reciprocal condition
        number below ``RCOND_FLOOR``.
    """

    def __init__(self, design, ridge: float = 0.0):
        design = np.ascontiguousarray(design, dtype=float)
        if design.ndim != 2 or design.shape[0] < 1 or design.shape[1] < 1:
            raise ValueError("design must be a nonempty 2-d array")
        if not np.all(np.isfinite(design)):
            raise ValueError("design entries must be finite")
        ridge = float(ridge)
        if ridge < 0.0:
            raise ValueError("ridge must be nonnegative")
        gram = design.T @ design
        if ridge == 0.0:
            spectrum = np.linalg.svd(gram, compute_uv=False)
            if spectrum[0] == 0.0 or spectrum[-1] / spectrum[0] < RCOND_FLOOR:
                raise RankDeficiencyError(
                    "design is rank deficient; use a positive ridge coefficient"
                )
        else:
            gram = gram + ridge * np.eye(design.shape[1])
        try:
            self._factor = cho_factor(gram, lower=True)
        except np.linalg.LinAlgError as err:  # pragma: no cover - guarded above
            raise RankDeficiencyError("normal matrix is not positive definite") from err
        self.design = design
        self.ridge = ridge

    @property
    def row_count(self) -> int:
        return self.design.shape[0]

    def coefficients(self, responses: np.ndarray) -> np.ndarray:
        """Ridge coefficient estimate (U'U + aI)^{-1} U' y."""
        responses = np.asarray(responses, dtype=float)
        return cho_solve(self._factor, self.design.T @ responses)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Project ``values`` onto the residual space: values - U c(values)."""
        values = np.asarray(values, dtype=float)
        return values - self.design @ self.coefficients(values)

    def residuals(self, responses: np.ndarray) -> np.ndarray:
        responses = np.asarray(responses, dtype=float)
        if responses.shape != (self.row_count,):
            raise ValueError(
                f"expected {self.row_count} responses, got shape {responses.shape}"
            )
        return self.apply(responses)


@dataclass(frozen=True)
class ResidualDecomposition:
    """Residuals of (fixed responses..., y) as the affine map offset + y * slope."""

    offset: np.ndarray
    slope: np.ndarray

    def residuals_at(self, response: float) -> np.ndarray:
        return self.offset + response * self.slope


def residual_decomposition(
    projector: RidgeProjector, fixed_responses: np.ndarray
) -> ResidualDecomposition:
    """Split the residual map over the last response into offset and slope parts.

    ``fixed_responses`` are the first n-1 responses; the n-th is left
    symbolic.  ``offset`` is the projected response vector padded with a zero
    and ``slope`` the projected last unit vector, so that
    ``offset + y * slope`` equals ``projector.residuals`` of the completed
    response vector, exactly (same arithmetic, by linearity).
    """
    fixed_responses = np.asarray(fixed_responses, dtype=float)
    n = projector.row_count
    if fixed_responses.shape != (n - 1,):
        raise ValueError(
            f"expected {n - 1} fixed responses, got shape {fixed_responses.shape}"
        )
    padded = np.zeros(n)
    padded[:-1] = fixed_responses
    unit = np.zeros(n)
    unit[-1] = 1.0
    return ResidualDecomposition(projector.apply(padded), projector.apply(unit))


@dataclass(frozen=True)
class StudentT:
    """Student t distribution with a positive integer number of degrees of freedom."""

    degrees_of_freedom: int

    def __post_init__(self):
        df = self.degrees_of_freedom
        if int(df) != df or df < 1:
            raise ValueError("degrees_of_freedom must be a positive integer")
        object.__setattr__(self, "degrees_of_freedom", int(df))

    def cdf(self, value: float):
        return stdtr(self.degrees_of_freedom, value)

    def quantile(self, probability: float) -> float:
        if not 0.0 < probability < 1.0:
            raise ValueError("probability must lie strictly inside (0, 1)")
        return float(stdtrit(self.degrees_of_freedom, probability))

    def upper_quantile(self, tail: float) -> float:
        """The point t with 1 - cdf(t) = tail, for tail strictly inside (0, 1).

        Uses the distribution's symmetry; inverting 1 - tail directly loses
        the tail to double rounding once it drops below ~1e-10.
        """
        if not 0.0 < tail < 1.0:
            raise ValueError("tail must lie strictly inside (0, 1)")
        return -float(stdtrit(self.degrees_of_freedom, tail))


def ridge_residuals(projector: RidgeProjector, responses) -> np.ndarray:
    """Residual vector of the responses under the projector's ridge fit."""
    return projector.residuals(responses)


def t_quantile(dist: StudentT, delta: float) -> float:
    """The point exceeded with probability ``delta`` under ``dist``."""
    return dist.upper_quantile(delta)
