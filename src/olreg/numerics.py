"""Linear-algebra and Student-t primitives shared by the interval predictors.

The residual projector applies ``e = y - U (U'U + aI)^{-1} U' y`` without
ever forming an n-by-n matrix or the Gram matrix U'U: it solves through
upper-triangular factors, so coefficients cost O(k^2) triangular solves and
a residual vector one O(n k) product for k regressor columns.  A projector
built from a design alone QR-factors all but its last row once, O(n k^2).
An on-line IID step instead starts from the triangular factor that
``History`` keeps for the ridge coefficient, truncated to the scheduled
columns, and does not absorb the new row into it: three triangular solves
with the factor's design block give the history's fit and the new row's
leverage, and the row update of Gill, Golub, Murray & Saunders (1974) turns
them into the n residuals, with no step triangle.  The step costs
O(k^2 + n k) in all, and the design's conditioning is never squared.  Its
rank check reads the certificate and the Frobenius norm that the history
carries for that factor, so it forms no triangular inverse and takes no
O(k^2) norm either.  A batch IID step does the same for a block of m new
rows after one history: the three solves take the block as a many-column
right side, the history's own coefficients are solved once, and one GEMM
of the design rows with those coefficients and the m solved directions
gives every row's map; the on-line step is the block of one row.

Because candidate responses enter the augmented response vector linearly, the
residual vector of (y_1, ..., y_{n-1}, y) is an affine function of y.  The
``residual_decomposition`` helper materializes that affine map once per
prediction step around a reference candidate y0 (the IID predictor uses
the history's own prediction at the new row, so the map does not cancel
when responses sit far from zero, and the history's offsets are shared by
every row of a block); its sweep then scans candidate responses at O(1)
per residual component instead of re-solving, and the realized residuals
of the step are read off the same map in O(n).

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

from .base import RankDeficiencyError, _passes_rank_rule, _settles, absorb_rows


class RidgeProjector:
    """Residual maps of ridge regressions that share all rows but the last.

    The design U has n rows: the rows of ``design``, then a new row x_j.
    ``new_row`` is one row x (shape (k,)) or a block of m rows (shape
    (m, k)), each with the same design rows before it; a one-row projector
    is the one-row block.  v_j = (responses, reference_j) is a reference
    response vector.  A ``reference`` of None takes yhat_j below, the design
    rows' own prediction at x_j (their mean response where yhat is not read).
    ``factor`` is the triangle R of [design | responses] stacked on
    [sqrt(a) I | 0] (as ``History.triangular_factor`` returns it), with
    design block R_D and response column r.  No new row is absorbed into it.
    Three triangular solves, each with the block's m rows as a many-column
    right side, give G = R_D^-T X', h_j = ||g_j||^2, the design rows' own
    coefficients c_h = R_D^-1 r (once per block), their predictions
    yhat_j = x_j . c_h and Q = R_D^-1 G, O(k^2 m).  A response y of row j
    then has the coefficients c_h + q_j u / (1 + h_j) and the residuals
    [e - D q_j u / (1 + h_j); u / (1 + h_j)], where u = y - yhat_j and e are
    the design rows' own residuals (the row update of Gill, Golub, Murray &
    Saunders 1974), so no step triangle is formed.  ``residual_decomposition``
    reads those affine maps by one O(n k (m + 1)) product, and ``residuals``
    reads a one-row map in O(n) when only the new row's response differs
    from ``responses``.

    Given alone, the design's rows but the last are QR-factored here,
    O(n k^2), the last is the new row, and the responses and the reference
    are zero.  The shapes of ``factor``, ``new_row`` and ``responses`` are
    checked against the design; the factor's entries are trusted to match
    it.

    Raises ``RankDeficiencyError`` when a step triangle T_j, the factor of
    U_j'U_j + aI, fails the rule sigma_min > eps * max(n, k) * sigma_max.
    ``inverse_norm`` is an upper bound on ||R_D^-1||_F, such as
    ``History.design_inverse_norm`` carries for ``factor``, and so on
    ||T_j^-1||_F too; ``design_norm`` is ||R_D||_F (``History.design_norm``;
    taken from R_D when not given), and sqrt(design_norm^2 + ||x_j||^2) is
    ||T_j||_F.  The rule runs row by row: where that norm settles it by the
    sqrt(a) shortcut or with the certificate, it settles it for R_D as well,
    and T_j is not formed.  Otherwise T_j is formed and the full rule run on
    it; when R_D then fails the rule though the T_j pass (design rows that
    only a new row makes full rank), each row's map is read from its T_j.

    The general-vector methods ``solve``, ``coefficients``, ``fitted`` and
    ``apply`` fit any response vector of a one-row projector through T,
    formed on their first call, O(k^2): v through T's response column (the
    QR least-squares route, which does not square the design's
    conditioning) and any other vector as a correction to v's fit.
    """

    def __init__(
        self,
        design,
        ridge: float = 0.0,
        *,
        new_row=None,
        factor=None,
        responses=None,
        reference: float | None = 0.0,
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
            shape = np.shape(new_row)
            if (
                len(shape) not in (1, 2)
                or shape[-1] != cols
                or 0 in shape
                or np.shape(factor) != (cols + 1, cols + 1)
            ):
                raise ValueError(
                    f"new_row must have {cols} entries per row"
                    f" and factor shape {(cols + 1, cols + 1)}"
                )
            if np.shape(responses) != (design.shape[0],):
                raise ValueError(f"expected {design.shape[0]} responses for the design rows")
        rows = design.shape[0] + 1
        # A one-row projector keeps its row 1-d and its numbers scalar, so
        # that the on-line step pays no block overhead; ``_block`` views the
        # rows as a block either way.
        block = np.asarray(new_row, dtype=float)
        self._one_row = block.ndim == 1
        self._block = block.reshape(-1, cols)
        self._head = design
        self._responses = np.asarray(responses, dtype=float)
        self.ridge = ridge
        self._factor = factor
        self._triangles = {}
        self._decomposition = None
        leading_block = factor[:cols, :cols]
        if design_norm is None:
            design_norm = float(np.linalg.norm(leading_block))
        # The rule's bound grows with the norm, and no row's ||x_j||^2 exceeds
        # the block's sum of squares: when that sum settles the rule for the
        # step norm, every row's does, and the rows are not taken one by one.
        total = float(np.vdot(block, block))
        if _settles(sqrt(design_norm * design_norm + total), cols, rows, ridge, inverse_norm):
            unsettled = []
        else:
            step_norms = [sqrt(design_norm * design_norm + float(x @ x)) for x in self._block]
            unsettled = [
                j for j, norm in enumerate(step_norms)
                if not _settles(norm, cols, rows, ridge, inverse_norm)
            ]
        from_history = not unsettled or _passes_rank_rule(
            leading_block, rows - 1, ridge, inverse_norm, design_norm
        )
        own_reference = reference is None
        if from_history:
            # LAPACK reads R_D as the top block of R's leading columns, which
            # are contiguous in a Fortran-ordered R, so no copy of it is made
            leading = factor[:, :cols]
            whitened, _ = lapack.dtrtrs(leading, block.T, trans=1)
            own, _ = lapack.dtrtrs(leading, factor[:cols, cols])
            direction, _ = lapack.dtrtrs(leading, whitened)
            predictions = block @ own
            if own_reference:
                reference = predictions
        elif own_reference:
            reference = float(self._responses.mean()) if rows > 1 else 0.0
        if not (from_history and own_reference):
            reference = np.full(block.shape[:-1], float(reference))
        self._reference = reference
        for j in unsettled:
            columns, _ = self._step_triangle(j)
            if not _passes_rank_rule(columns[:cols], rows, ridge, inverse_norm, step_norms[j]):
                raise RankDeficiencyError(
                    "design is rank deficient; use a positive ridge coefficient"
                    if ridge == 0.0
                    else "ridge normal matrix is numerically singular"
                )
        # Each row's map, one column per row: (U_j'U_j + aI)^-1 x_j, the new
        # row's slope 1 / (1 + h_j), the coefficients of v_j (one shared
        # column where every v_j is fitted by the design rows' own c_h),
        # and the new row's residual at v_j.
        if from_history:
            shrink = 1.0 / (1.0 + (whitened * whitened).sum(axis=0))
            direction *= shrink
            if own_reference:
                coefficients, last_offset = own, 0.0 * shrink
            else:
                # c_h + (reference_j - yhat_j) q_j / (1 + h_j), row by row
                distance = reference - predictions
                coefficients = (own + (distance * direction).T).T
                last_offset = distance * shrink
        else:
            # each row's numbers from its own step triangle
            directions = [self._solve(j, x) for j, x in enumerate(self._block)]
            fits = [self._step_triangle(j)[1] for j in range(len(self._block))]
            direction = np.column_stack(directions).reshape(block.T.shape)
            coefficients = np.column_stack(fits).reshape(block.T.shape)
            shrink = 1.0 - np.array([x @ d for x, d in zip(self._block, directions)])
            last_offset = np.ravel(reference) - [x @ c for x, c in zip(self._block, fits)]
            shrink = shrink.reshape(block.shape[:-1])
            last_offset = last_offset.reshape(block.shape[:-1])
        self._coefficients = coefficients
        self._last_offset = last_offset
        self._direction = direction
        self._shrink = shrink

    @property
    def row_count(self) -> int:
        return self._head.shape[0] + 1

    @property
    def column_count(self) -> int:
        return self._block.shape[1]

    @property
    def reference(self) -> float | np.ndarray:
        """The last entry of the reference response vector; one per row of a block."""
        return float(self._reference) if self._one_row else self._reference

    def _new_row(self) -> np.ndarray:
        """The new row of a one-row projector.  The general-vector methods fit
        one response vector through one step triangle, so a block has no such
        fit; its maps come from ``residual_decomposition``."""
        if not self._one_row:
            raise ValueError("a block projector fits no single response vector")
        return self._block[0]

    def _step_triangle(self, row: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """T's leading columns and v's coefficients for one new row, T formed
        on first use.

        T's leading columns of a Fortran-ordered (k+1)-square array are
        contiguous, so LAPACK reads T as their top block without a copy.
        """
        triangle = self._triangles.get(row)
        if triangle is None:
            cols = self._block.shape[1]
            stacked = np.append(self._block[row], np.ravel(self._reference)[row])[None]
            factor = absorb_rows(self._factor, stacked)
            columns = factor[:, :cols]
            coefficients, _ = lapack.dtrtrs(columns, factor[:cols, cols])
            triangle = self._triangles[row] = (columns, coefficients)
        return triangle

    def _solve(self, row: int, moments: np.ndarray) -> np.ndarray:
        columns, _ = self._step_triangle(row)
        whitened, _ = lapack.dtrtrs(columns, moments, trans=1)
        solution, _ = lapack.dtrtrs(columns, whitened)
        return solution

    def solve(self, moments: np.ndarray) -> np.ndarray:
        """(U'U + aI)^{-1} moments, by two triangular solves with T."""
        self._new_row()
        return self._solve(0, moments)

    def coefficients(self, responses: np.ndarray) -> np.ndarray:
        """Ridge coefficient estimate (U'U + aI)^{-1} U' y, through T.

        Solved as a correction to the reference vector's fit.  When only the
        new row's response differs from the reference, as for a step's
        realized residuals, the O(nk) product with the other rows is skipped.
        """
        last = self._new_row()
        shift = np.asarray(responses, dtype=float) - np.append(self._responses, self._reference)
        _, reference_coefficients = self._step_triangle()
        if shift[:-1].any():
            moments = self._head.T @ shift[:-1] + shift[-1] * last
        elif shift[-1] != 0.0:
            moments = shift[-1] * last
        else:
            return reference_coefficients
        return reference_coefficients + self._solve(0, moments)

    def fitted(self, coefficients: np.ndarray) -> np.ndarray:
        """U @ coefficients, for a coefficient vector or a matrix of columns."""
        return np.concatenate(
            [self._head @ coefficients, (self._new_row() @ coefficients)[None]]
        )

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Project ``values`` onto the residual space: values - U c(values)."""
        values = np.asarray(values, dtype=float)
        return values - self.fitted(self.coefficients(values))

    def residuals(self, responses: np.ndarray) -> np.ndarray:
        """The residuals of ``responses``: an O(n) read of the decomposition
        of the design rows' own responses (``residual_decomposition``, which
        keeps it on the projector) when only the last response differs from
        theirs, and ``apply`` otherwise."""
        self._new_row()
        responses = np.asarray(responses, dtype=float)
        if responses.shape != (self.row_count,):
            raise ValueError(
                f"expected {self.row_count} responses, got shape {responses.shape}"
            )
        fixed = self._responses
        if np.array_equal(responses[:-1], fixed):
            decomposition = self._decomposition or residual_decomposition(self, fixed)
            return decomposition.residuals_at(responses[-1])
        return self.apply(responses)


@dataclass(frozen=True)
class ResidualDecomposition:
    """Residuals of (fixed responses..., y) as offset + (y - reference) * slope.

    One row's map has n-vectors and a float reference; a block's has one row
    of ``offset`` and ``slope`` (m x n) and one reference per new row.
    """

    offset: np.ndarray
    slope: np.ndarray
    reference: float | np.ndarray = 0.0

    def residuals_at(self, response: float) -> np.ndarray:
        return self.offset + (response - self.reference) * self.slope


def residual_decomposition(
    projector: RidgeProjector, fixed_responses: np.ndarray
) -> ResidualDecomposition:
    """Split each residual map over the last response into offset and slope parts.

    ``fixed_responses`` are the first n-1 responses; the n-th is left
    symbolic.  ``offset`` is the residual vector with the projector's
    reference response in the last place and ``slope`` the projected last
    unit vector, so that ``offset + (y - reference) * slope`` equals
    ``projector.residuals`` of the completed response vector up to
    rounding; a block projector gives one such row per new row.  All of
    them come from one GEMM of the design rows with the reference vectors'
    coefficients and the columns (U_j'U_j + aI)^-1 x_j, which the projector
    holds: n k (m + 1) for a block of m rows decomposed around their own
    predictions, whose coefficients are the design rows' own, so that the
    first n-1 offsets are shared.  The new rows' entries are the
    projector's own numbers.  Fixed responses other than the projector's
    move a one-row projector's coefficients by one more O(nk) product and a
    solve with the step triangle; the decomposition of the projector's own
    is kept on it for ``RidgeProjector.residuals``.
    """
    fixed_responses = np.asarray(fixed_responses, dtype=float)
    n = projector.row_count
    if fixed_responses.shape != (n - 1,):
        raise ValueError(
            f"expected {n - 1} fixed responses, got shape {fixed_responses.shape}"
        )
    coefficients, last_offset = projector._coefficients, projector._last_offset
    shift = fixed_responses - projector._responses
    own = not shift.any()
    if not own:
        moved = projector.solve(projector._head.T @ shift)
        coefficients = coefficients + moved
        last_offset = last_offset - float(projector._block[0] @ moved)
    fitted = projector._head @ np.column_stack([coefficients, projector._direction])
    count = len(projector._block)
    offset = np.empty(n if projector._one_row else (count, n))
    slope = np.empty_like(offset)
    # block views of one row's vectors, so that every write below fits both
    block_offset, block_slope = offset.reshape(count, n), slope.reshape(count, n)
    np.subtract(fixed_responses, fitted[:, :-count].T, out=block_offset[:, :-1])
    block_offset[:, -1] = last_offset
    np.negative(fitted[:, -count:].T, out=block_slope[:, :-1])
    block_slope[:, -1] = projector._shrink
    decomposition = ResidualDecomposition(offset, slope, projector.reference)
    if own:
        projector._decomposition = decomposition
    return decomposition


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
