"""Linear-algebra and Student-t primitives shared by the interval predictors.

The residual projector applies ``e = y - U (U'U + aI)^{-1} U' y`` without
ever forming an n-by-n matrix or the Gram matrix U'U: it solves with
U'U + aI through one upper-triangular factor, so coefficients cost two
O(k^2) triangular solves and a residual vector one O(n k) product for k
regressor columns.  A projector built from a design alone QR-factors it
once, O(n k^2).  An on-line IID step instead starts from the triangular factor
that ``History`` keeps for the ridge coefficient, truncated to the
scheduled columns, and absorbs the one new row into a copy, O(k^2); the
step costs O(k^2 + n k) in all, and the design's conditioning is never
squared.  Its rank check reads the certificate and the Frobenius norm that
the history carries for that factor, so it forms no triangular inverse and
takes no O(k^2) norm either.

Because candidate responses enter the augmented response vector linearly, the
residual vector of (y_1, ..., y_{n-1}, y) is an affine function of y.  The
``residual_decomposition`` helper materializes that affine map once per
prediction step around a reference candidate y0 (the IID predictor uses
the mean of the past responses, so the map does not cancel when responses
sit far from zero); its sweep then scans candidate responses at O(1) per
residual component instead of re-solving.

The Gauss and MVA predictors need no projector.  Gauss reads its
least-squares fit from the ridge-0 factor of [design | responses] that
``History`` keeps, by two LAPACK triangular solves, and its residual scale
from that factor's last diagonal entry.  MVA reads its ridge fit of the
step from the kept ridge factor by the same solves, and the sum and the
centered energy of the earlier residuals from the kept ridge-0 factor,
which the history keeps beside the ridge one when the ridge is positive.
Both steps are O(k^2) with no pass over the rows and no residual vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np
from scipy.linalg import lapack
from scipy.special import stdtr, stdtrit

from .base import RankDeficiencyError, _passes_rank_rule, absorb_rows


class RidgeProjector:
    """Residual map of a ridge regression, applied through one triangular factor.

    The design U has n rows: the rows of ``design``, then ``new_row`` when
    it is given; v = (responses, reference) is a reference response vector.
    Solves with U'U + aI take two O(k^2) triangular solves; v is fitted
    through the factor's response column (the QR least-squares route, which
    does not square the design's conditioning) and any other vector as a
    correction to v's fit.

    Given alone, the design is QR-factored here, O(n k^2), and v is zero.
    With ``new_row``, ``factor`` is the triangle T of [design | responses]
    stacked on [sqrt(a) I | 0] (as ``History.triangular_factor`` returns
    it), and the row is absorbed into a copy of T, O(k^2).  The shapes of
    ``factor``, ``new_row`` and ``responses`` are checked against the
    design; the factor's entries are trusted to match it.

    Raises ``RankDeficiencyError`` when the factor of U'U + aI fails the
    rule sigma_min > eps * max(n, k) * sigma_max.  ``inverse_norm`` is an
    upper bound on the inverse's Frobenius norm for that factor, such as
    ``History.design_inverse_norm`` carries for ``factor``; when it settles
    the rule no inverse is formed.  ``design_norm``, when given, is the
    Frobenius norm of ``factor``'s design block (``History.design_norm``);
    the new row's squared norm is added to it for the step triangle, so the
    rule reads no norm off the triangle either.
    """

    def __init__(
        self,
        design,
        ridge: float = 0.0,
        *,
        new_row=None,
        factor=None,
        responses=None,
        reference: float = 0.0,
        inverse_norm: float | None = None,
        design_norm: float | None = None,
    ):
        ridge = float(ridge)
        if not (ridge >= 0.0 and isfinite(ridge)):
            raise ValueError("ridge must be nonnegative and finite")
        if new_row is None:
            design = np.asarray(design, dtype=float)
            if design.ndim != 2 or design.shape[0] < 1 or design.shape[1] < 1:
                raise ValueError("design must be a nonempty 2-d array")
            if not np.all(np.isfinite(design)):
                raise ValueError("design entries must be finite")
            design, new_row = design[:-1], design[-1]
            cols = design.shape[1]
            factor = np.zeros((cols + 1, cols + 1), order="F")
            np.fill_diagonal(factor[:cols, :cols], np.sqrt(ridge))
            if design.shape[0]:
                factor = absorb_rows(factor, np.column_stack([design, np.zeros(len(design))]))
            responses = np.zeros(design.shape[0])
            reference = 0.0
        else:
            if factor is None or responses is None:
                raise ValueError("new_row needs the factor and responses of the other rows")
            cols = design.shape[1]
            if np.shape(new_row) != (cols,) or np.shape(factor) != (cols + 1, cols + 1):
                raise ValueError(
                    f"new_row must have {cols} entries and factor shape {(cols + 1, cols + 1)}"
                )
            if np.shape(responses) != (design.shape[0],):
                raise ValueError(f"expected {design.shape[0]} responses for the design rows")
        rows = design.shape[0] + 1
        row = np.empty((1, cols + 1))
        row[0, :cols] = new_row
        row[0, cols] = reference
        triangle = absorb_rows(factor, row)
        frobenius = None
        if design_norm is not None:
            frobenius = sqrt(design_norm * design_norm + float(row[0, :cols] @ row[0, :cols]))
        if not _passes_rank_rule(
            triangle[:cols, :cols], rows, ridge, inverse_norm, frobenius
        ):
            raise RankDeficiencyError(
                "design is rank deficient; use a positive ridge coefficient"
                if ridge == 0.0
                else "ridge normal matrix is numerically singular"
            )
        self._head = design
        self._last = row[0, :cols]
        self._reference = np.append(responses, reference)
        self.ridge = ridge
        # T's leading columns of a Fortran-ordered (k+1)-square array are
        # contiguous, so LAPACK reads T as their top block without a copy.
        self._columns = triangle[:, :cols]
        self._reference_coefficients = self._back_solve(triangle[:cols, cols])

    @property
    def row_count(self) -> int:
        return self._head.shape[0] + 1

    @property
    def column_count(self) -> int:
        return self._last.size

    @property
    def last_row(self) -> np.ndarray:
        return self._last

    @property
    def reference(self) -> float:
        """The last entry of the reference response vector."""
        return float(self._reference[-1])

    def _back_solve(self, values: np.ndarray) -> np.ndarray:
        solution, _ = lapack.dtrtrs(self._columns, values)
        return solution

    def solve(self, moments: np.ndarray) -> np.ndarray:
        """(U'U + aI)^{-1} moments, by two triangular solves."""
        whitened, _ = lapack.dtrtrs(self._columns, moments, trans=1)
        return self._back_solve(whitened)

    def coefficients(self, responses: np.ndarray) -> np.ndarray:
        """Ridge coefficient estimate (U'U + aI)^{-1} U' y.

        Solved as a correction to the reference vector's fit.  When only the
        new row's response differs from the reference, as for a step's
        realized residuals, the O(nk) product with the other rows is skipped.
        """
        shift = np.asarray(responses, dtype=float) - self._reference
        if shift[:-1].any():
            moments = self._head.T @ shift[:-1] + shift[-1] * self._last
        elif shift[-1] != 0.0:
            moments = shift[-1] * self._last
        else:
            return self._reference_coefficients
        return self._reference_coefficients + self.solve(moments)

    def fitted(self, coefficients: np.ndarray) -> np.ndarray:
        """U @ coefficients, for a coefficient vector or a matrix of columns."""
        return np.concatenate(
            [self._head @ coefficients, (self._last @ coefficients)[None]]
        )

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Project ``values`` onto the residual space: values - U c(values)."""
        values = np.asarray(values, dtype=float)
        return values - self.fitted(self.coefficients(values))

    def residuals(self, responses: np.ndarray) -> np.ndarray:
        responses = np.asarray(responses, dtype=float)
        if responses.shape != (self.row_count,):
            raise ValueError(
                f"expected {self.row_count} responses, got shape {responses.shape}"
            )
        return self.apply(responses)


@dataclass(frozen=True)
class ResidualDecomposition:
    """Residuals of (fixed responses..., y) as offset + (y - reference) * slope."""

    offset: np.ndarray
    slope: np.ndarray
    reference: float = 0.0

    def residuals_at(self, response: float) -> np.ndarray:
        return self.offset + (response - self.reference) * self.slope


def residual_decomposition(
    projector: RidgeProjector, fixed_responses: np.ndarray
) -> ResidualDecomposition:
    """Split the residual map over the last response into offset and slope parts.

    ``fixed_responses`` are the first n-1 responses; the n-th is left
    symbolic.  ``offset`` is the residual vector with the projector's
    reference response in the last place and ``slope`` the projected last
    unit vector, so that ``offset + (y - reference) * slope`` equals
    ``projector.residuals`` of the completed response vector up to
    rounding.  Both come from one O(nk) product with the two coefficient
    vectors.
    """
    fixed_responses = np.asarray(fixed_responses, dtype=float)
    n = projector.row_count
    if fixed_responses.shape != (n - 1,):
        raise ValueError(
            f"expected {n - 1} fixed responses, got shape {fixed_responses.shape}"
        )
    completed = np.append(fixed_responses, projector.reference)
    coefficients = np.column_stack(
        [projector.coefficients(completed), projector.solve(projector.last_row)]
    )
    fitted = projector.fitted(coefficients)
    slope = -fitted[:, 1]
    slope[-1] += 1.0
    return ResidualDecomposition(completed - fitted[:, 0], slope, projector.reference)


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


def two_sided_quantiles(degrees_of_freedom: int, levels) -> list[float]:
    """For each level epsilon the point t with P(|T| > t) = epsilon, T
    Student t with ``degrees_of_freedom``: one elementwise ``stdtrit`` call
    for the whole ladder, each entry equal to
    ``StudentT(degrees_of_freedom).upper_quantile(epsilon / 2)``."""
    return (-stdtrit(degrees_of_freedom, np.multiply(levels, 0.5))).tolist()
