"""Linear-algebra and Student-t primitives shared by the interval predictors.

The IID step's residual projector applies ``e = y - U (U'U + aI)^{-1} U' y``
without forming an n-by-n matrix or the Gram matrix U'U.  It starts from the
triangular factor that ``History`` keeps for the ridge coefficient,
truncated to the scheduled columns, with the rows pending beside it
(``History.pending_factor``), and does not absorb the new row into it:
three triangular solves with the factor's design block, corrected for the
pending rows, give the history's fit and the new row's leverage, and the
row update of Gill, Golub, Murray & Saunders (1974) turns them into the n
residuals, with no step triangle.  The step costs O(k^2 + n k) in all for
k regressor columns, and the design's conditioning is never squared.  A batch IID step does the
same for a block of m new rows after one history: the three solves take the
block as a many-column right side, the history's own coefficients are
solved once, and one GEMM of the design rows with those coefficients and
the m solved directions gives every row's map; the on-line step is the
block of one row.  The projector decides no rank: the predictor asks
``History.design_has_full_rank`` for the history's design block first.

Because candidate responses enter the augmented response vector linearly, the
residual vector of (y_1, ..., y_{n-1}, y) is an affine function of y.  The
``residual_decomposition`` helper materializes that affine map once per
prediction step around the history's own prediction at the new row, so the
map does not cancel when responses sit far from zero, and the history's
offsets are shared by every row of a block.  The map is kept on the
projector itself, as its ``offset`` and ``slope``: the step is the
projector, with no separate decomposition object.  The interval is then
read from the map at O(1) per residual component instead of re-solving,
and the realized residuals of the step are read off the same map in O(n).

The Gauss and MVA predictors need no projector.  Gauss reads its
least-squares fit from the ridge-0 factor of [design | responses] that
``History`` keeps, by two LAPACK triangular solves, and its residual scale
from that factor's last diagonal entry and the pending rows' recursive
residuals.  MVA reads its ridge fit of the step from the kept ridge factor
by the same solves, and the sum and the centered energy of the earlier
residuals from the kept ridge-0 factor, which the history keeps beside the
ridge one when the ridge is positive.
Both steps are O(k^2) per new row with no pass over the rows and no
residual vector, and take a block of new rows after one history as the
IID step does: the history's coefficients solved once, the block's rows
the many-column right side of the triangular solves, and, for a positive
ridge, one product of MVA's solved directions with the ridge-0 factor.
Every quantile of a ladder comes from one ``stdtrit`` call
(``two_sided_quantiles``).
"""

from __future__ import annotations

import numpy as np
from scipy.special import stdtrit

from .base import PendingFactor


class RidgeProjector:
    """Residual maps of the ridge regressions that add one new row to a history.

    The design U_j has n rows: the rows of ``design``, then a new row x_j.
    ``new_row`` is one row x (shape (k,)) or a block of m rows (shape
    (m, k)), each with the same design rows before it; a one-row projector
    is the one-row block.  ``factor`` is the ``PendingFactor`` of the
    design rows (``History.pending_factor``): the triangle R of [design |
    responses] stacked on [sqrt(a) I | 0], with design block R_D and
    response column r, and the rows pending beside it, whose solves are
    corrected for them; its design block must pass the rank rule
    (``History.design_has_full_rank``).  No new row is absorbed into it.
    Three triangular solves, each with the block's m rows as a many-column
    right side, give G = R_D^-T X', h_j = ||g_j||^2 (less the pending rows'
    part), the design rows' own coefficients c_h = R_D^-1 r (once per
    block), their predictions yhat_j = x_j . c_h, which are the
    ``reference`` responses, and Q = R_D^-1 G, O(k^2 m).  A response y of
    row j then has the coefficients c_h + q_j u / (1 + h_j) and the
    residuals [e - D q_j u / (1 + h_j); u / (1 + h_j)], where u = y - yhat_j
    and e are the design rows' own residuals (the row update of Gill,
    Golub, Murray & Saunders 1974), so no step triangle is formed.
    ``residual_decomposition`` reads those affine maps by one O(n k (m + 1))
    product and keeps them on the projector as ``offset`` and ``slope``,
    and ``residuals`` reads a one-row map at a response in O(n).

    The shapes of ``factor``, ``new_row`` and ``responses`` are checked
    against the design; the factor's entries are trusted to match it.
    """

    def __init__(self, design, new_row, factor: PendingFactor, responses):
        cols = design.shape[1]
        block = np.asarray(new_row, dtype=float)
        if (
            block.ndim not in (1, 2)
            or block.shape[-1] != cols
            or 0 in block.shape
            or factor.triangle.shape != (cols + 1, cols + 1)
        ):
            raise ValueError(
                f"new_row must have {cols} entries per row"
                f" and factor shape {(cols + 1, cols + 1)}"
            )
        if np.shape(responses) != (design.shape[0],):
            raise ValueError(f"expected {design.shape[0]} responses for the design rows")
        self._head = design
        self._responses = responses
        whitened, part = factor.whiten(block.T)
        own = factor.coefficients()
        direction = factor.solve(whitened, part)
        # Each row's map: the new row's slope 1 / (1 + h_j) and, one column
        # per row, (U_j'U_j + aI)^-1 x_j; every row's reference response is
        # fitted by the design rows' own c_h.  A one-row projector keeps its
        # reference a float, so that the on-line step pays no block overhead
        reference = block @ own
        self.reference = float(reference) if block.ndim == 1 else reference
        leverage = (whitened * whitened).sum(axis=0)
        if len(part):
            leverage = leverage - (part * part).sum(axis=0)
        self._shrink = 1.0 / (1.0 + leverage)
        direction *= self._shrink
        self._coefficients = own
        self._direction = direction

    @property
    def row_count(self) -> int:
        return self._head.shape[0] + 1

    def residuals(self, response: float) -> np.ndarray:
        """The n residuals of a one-row projector once the new row's response
        is ``response`` and the design rows keep their own: an O(n) read of
        the map that ``residual_decomposition`` keeps on it."""
        return self.offset + (response - self.reference) * self.slope


def residual_decomposition(projector: RidgeProjector) -> RidgeProjector:
    """Split each residual map over the last response into offset and slope
    parts, and keep them on the projector, which is returned.

    The design rows keep the projector's responses and the n-th is left
    symbolic.  ``offset`` is the residual vector with the projector's
    reference response, the design rows' own prediction, in the last place
    (where that residual is 0) and ``slope`` the projected last unit vector,
    so that ``offset + (y - reference) * slope`` are the residuals at y: two
    n-vectors for a one-row projector, and one row of each (m x n) per new
    row of a block.  All of them come from one GEMM of the design rows with
    the design rows' own coefficients and the columns (U_j'U_j + aI)^-1 x_j,
    which the projector holds: n k (m + 1) for a block of m rows, whose
    first n-1 offsets are shared.  The new rows' slopes are the projector's
    own numbers.
    """
    fitted = projector._head @ np.column_stack([projector._coefficients, projector._direction])
    shape = np.shape(projector.reference) + (projector.row_count,)
    offset, slope = np.empty((2,) + shape)
    offset[..., :-1] = projector._responses - fitted[:, 0]
    offset[..., -1] = 0.0
    slope[..., :-1] = -fitted[:, 1:].T
    slope[..., -1] = projector._shrink
    projector.offset, projector.slope = offset, slope
    return projector


def two_sided_quantiles(degrees_of_freedom: int, levels) -> np.ndarray:
    """For each level epsilon the point t with P(|T| > t) = epsilon, T
    Student t with ``degrees_of_freedom``: one elementwise ``stdtrit`` call
    for the whole ladder.  Each is the upper epsilon / 2 quantile, taken by
    symmetry as -stdtrit(dof, epsilon / 2): inverting 1 - epsilon / 2
    directly would lose the tail to double rounding once it drops below
    ~1e-10."""
    return -stdtrit(degrees_of_freedom, np.multiply(levels, 0.5))
