"""Shared types: observation streams, prediction intervals, feature schedules.

Conventions used across the package:

* an interval is a pair of extended reals (lower, upper); the whole line is
  ``(-inf, +inf)`` and the pair ``(+inf, -inf)`` encodes the empty set,
* significance levels always form a strictly decreasing ladder, so the
  interval at a larger level is contained in the interval at a smaller one,
* a feature schedule describes how many explanatory variables are visible
  to a predictor at each step of an on-line run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isinf, isnan, sqrt
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.linalg import lapack

# A rank certificate only settles the decision when the bound it gives on the
# condition number is this far below the cut-off, which leaves room for the
# rounding in the computed inverse.
CERTIFICATE_MARGIN = 1e-2

# A kept factor at least this many design columns wide leaves the rows
# appended since its last absorb pending beside it (``History.pending_factor``).
# Below it every row is absorbed when the factor is read: a lone-row update
# costs about 0.5 us per column (one BLAS thread), 5 us at 11 columns, less
# than the pending rows' bookkeeping.
WIDTH_FLOOR = 32
# Pending rows are folded into the kept factor by one update once this many
# have gathered ...
ABSORB_BLOCK = 16
# ... or once their summed leverage ||W||_F^2 against the kept triangle
# would pass this bound B.  A corrected read subtracts at most B / (1 + B)
# of what it corrects, so it loses at most a factor 1 + B to cancellation.
LEVERAGE_BOUND = 8.0

_EPS = float(np.finfo(float).eps)


class RankDeficiencyError(ValueError):
    """An unregularized fit required a full-rank design matrix and did not get one."""


class DegenerateFitError(ValueError):
    """A score is undefined because the fitted residual spread is exactly zero."""


class MatrixParseError(ValueError):
    """A matrix file could not be parsed; carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True, eq=False)
class Observation:
    """One (explanatory vector, response) pair.

    The explanatory part may be empty (zero features), in which case the
    regression model reduces to an intercept-only location model.
    """

    explanatory: np.ndarray
    response: float

    def __post_init__(self):
        x = np.asarray(self.explanatory, dtype=float).ravel()
        if x.size and not np.all(np.isfinite(x)):
            raise ValueError("explanatory components must be finite")
        y = float(self.response)
        if isnan(y) or isinf(y):
            raise ValueError("response must be finite")
        object.__setattr__(self, "explanatory", x)
        object.__setattr__(self, "response", y)

    @classmethod
    def _checked(cls, explanatory: np.ndarray, response: float) -> "Observation":
        """An observation of a 1-d float row and a float that the caller has
        checked already (``_checked_rows``); nothing is checked again."""
        observation = object.__new__(cls)
        object.__setattr__(observation, "explanatory", explanatory)
        object.__setattr__(observation, "response", response)
        return observation


def _checked_rows(features, responses) -> tuple[np.ndarray, np.ndarray]:
    """``features`` (n x K) and ``responses`` (n) as float arrays, checked
    once for the whole matrix with ``Observation``'s rule: the first row
    with a non-finite feature or response raises the ``ValueError`` that its
    ``Observation`` would, features first."""
    features = np.asarray(features, dtype=float)
    responses = np.asarray(responses, dtype=float).ravel()
    if features.ndim != 2:
        raise ValueError("features must be two-dimensional")
    if features.shape[0] != responses.size:
        raise ValueError("feature rows and responses must have equal count")
    finite_rows = np.isfinite(features).all(axis=1)
    finite_responses = np.isfinite(responses)
    if not (finite_rows.all() and finite_responses.all()):
        first = int(np.argmin(finite_rows & finite_responses))
        if not finite_rows[first]:
            raise ValueError("explanatory components must be finite")
        raise ValueError("response must be finite")
    return features, responses


class History:
    """Growing record of revealed observations with a cached design matrix.

    Design rows are (1, x_1, ..., x_K).  The matrix is kept in a doubling
    buffer so appending is amortized O(K) and ``design_matrix`` is a cheap
    view, which keeps a full on-line pass at O(sum_n n K^2).

    The history also owns, per ridge coefficient a that a predictor asks
    for, an upper-triangular factor R of the augmented matrix
    A = [design | responses] stacked on [sqrt(a) I | 0], so that
    R'R = [D'D + aI, D'y; y'D, y'y], over the leading design columns asked
    for (see ``triangular_factor``); a = 0 is the plain factor of
    [design | responses].  Rows are absorbed lazily: appending only records
    the row, and the rows appended since a factor was last read are folded
    into it by one triangular-pentagonal QR update (Gill, Golub, Murray &
    Saunders 1974).  A fixed history is therefore triangularized once, and
    predictors that never ask for a factor pay nothing.

    A lone-row update costs LAPACK's per-column overhead on top of its
    O(K^2) arithmetic, about 50 us at K = 100 against 3.5 us per row in a
    block of 16, so a factor at least ``WIDTH_FLOOR`` columns wide absorbs
    in blocks: the rows appended since its last absorb stay pending beside
    it, each whitened once against the kept triangle (w = R_D^-T d, one
    triangular solve) with its recursive residual e = y - w . R[:c, -1]
    (Brown, Durbin & Evans 1975), and the Cholesky factor L of I + W'W grows
    by one row.  ``pending_factor`` reads the factor with that correction
    (``PendingFactor``).  The pending rows are folded in by one update when
    ``ABSORB_BLOCK`` of them have gathered, or when their summed leverage
    ||W||_F^2 against the kept triangle would pass ``LEVERAGE_BOUND``,
    which caps the cancellation in any corrected read.  ``triangular_factor``
    folds them in first, so its triangle is exact for every caller.

    The rows and the ridge-0 factor are the sufficient summary of the
    linear-Gaussian models: the bag of rows, and R'R, whose last column
    holds sum y_i, sum y_i x_i and sum y_i^2.  The Gauss and MVA scores
    and the conditional sampler read them from the history; no other
    object keeps a copy.

    With each kept factor the history carries one rank certificate: the
    number ||R_D^-1||_F of the factor's whole design block R_D, taken from
    the last triangular inverse of that block that the rank rule
    (``design_has_full_rank``) formed.  Appending rows adds u u' to R_D'R_D
    for each row u, which never lowers the smallest singular value and
    never raises trace((R_D'R_D)^-1) = ||R_D^-1||_F^2; the inverse of a
    leading block of R_D is the leading block of R_D^-1.  So the carried
    number bounds ||T^-1||_F, and ||T||_F times it bounds kappa_2(T), for
    the current block, for any truncation of it to leading columns, and for
    any triangle that adds rows to either, pending rows included.  The
    converse fails, so the inverse of a leading block is never carried.
    One inverse thus settles the rank rule for every later step until the
    bound stops settling it; an on-line run forms a new inverse only then,
    not once per step.

    The other factor of that bound, ||R_D||_F, is carried too: the history
    keeps the column sums of squares s_j of its design rows, brought up to
    date in O(K) per appended row when a rank rule asks.  R'R = D'D + aI
    gives ||R_D||_F = sqrt(a c + sum_{j<c} s_j) for any leading c-block
    (``design_norm``), so no rank rule reads R for its norm, and one that
    the sqrt(a) shortcut settles touches no factor at all.
    """

    def __init__(self, feature_count: int):
        if feature_count < 0:
            raise ValueError("feature_count must be nonnegative")
        self._k = int(feature_count)
        self._design = np.empty((16, self._k + 1))
        self._responses = np.empty(16)
        self._n = 0
        self._factors: dict[float, _KeptFactor] = {}
        self._full_rank: dict[tuple[float, int], bool] = {}
        self._column_squares = np.zeros(self._k + 1)
        self._squared_rows = 0

    @classmethod
    def from_observations(cls, observations: Iterable[Observation]) -> "History":
        observations = list(observations)
        if not observations:
            raise ValueError("cannot infer the feature count from an empty sequence")
        k = observations[0].explanatory.size
        for obs in observations:
            if obs.explanatory.size != k:
                raise ValueError(f"expected {k} features, got {obs.explanatory.size}")
        return cls.from_arrays(
            np.vstack([obs.explanatory for obs in observations]),
            [obs.response for obs in observations],
        )

    @classmethod
    def from_arrays(cls, features, responses) -> "History":
        """A history of the rows of ``features`` (n x K) and their
        ``responses``, built with one copy into the design buffer.

        The checks are ``Observation``'s: the first row with a non-finite
        feature or response raises the ``ValueError`` that its
        ``Observation`` would, features first.
        """
        features, responses = _checked_rows(features, responses)
        n, k = features.shape
        history = cls(k)
        history._design = np.empty((max(n, 16), k + 1))
        history._design[:n, 0] = 1.0
        history._design[:n, 1:] = features
        history._responses = np.empty(max(n, 16))
        history._responses[:n] = responses
        history._n = n
        return history

    def append(self, observation: Observation) -> None:
        if observation.explanatory.size != self._k:
            raise ValueError(
                f"expected {self._k} features, got {observation.explanatory.size}"
            )
        if self._n == self._design.shape[0]:
            design = np.empty((2 * self._n, self._k + 1))
            design[: self._n] = self._design[: self._n]
            responses = np.empty(2 * self._n)
            responses[: self._n] = self._responses[: self._n]
            self._design, self._responses = design, responses
        self._design[self._n, 0] = 1.0
        self._design[self._n, 1:] = observation.explanatory
        self._responses[self._n] = observation.response
        self._n += 1
        self._full_rank.clear()

    def __len__(self) -> int:
        return self._n

    @property
    def feature_count(self) -> int:
        return self._k

    @property
    def design_matrix(self) -> np.ndarray:
        """All design rows so far, shape (n, K+1).  Treat as read-only."""
        return self._design[: self._n]

    @property
    def features(self) -> np.ndarray:
        """Explanatory rows without the leading ones column, shape (n, K)."""
        return self._design[: self._n, 1:]

    @property
    def responses(self) -> np.ndarray:
        return self._responses[: self._n]

    def triangular_factor(self, ridge: float = 0.0, columns: int | None = None) -> np.ndarray:
        """Upper triangle R of [first c design columns | responses], with ridge.

        R is (c+1) x (c+1) with R'R = A'A + diag(ridge I, 0), where
        A = [design[:, :c] | responses] and c = ``columns`` (default: all
        K+1).  Its leading c-block is the triangular factor of those design
        columns stacked on sqrt(ridge) I and its last column carries the
        responses, so ridge coefficients and leverages need only triangular
        solves.  Treat the result as read-only.

        The history keeps one factor per ridge, as wide as the widest c
        asked for so far: every row appended since the previous absorb,
        pending ones included, is absorbed first, a wider request refactors
        the whole history once, and a narrower one is served from the kept
        factor's leading c-block and R[:c, -1] (the leading block of a
        triangular factor is the factor of any leading set of columns), with
        the norm of the rest of that column as the last diagonal entry.  A
        feature schedule therefore pays for its narrow phase at the narrow
        width.
        """
        columns = self._k + 1 if columns is None else columns
        return _leading_factor(self._kept_factor(ridge, columns).triangle, columns)

    def pending_factor(
        self, ridge: float = 0.0, columns: int | None = None, corrected: bool = True
    ) -> "PendingFactor":
        """The factor of ``triangular_factor(ridge, columns)`` as a kept
        triangle and the rows pending beside it (``PendingFactor``).

        Where ``columns`` is the full width of a kept factor at least
        ``WIDTH_FLOOR`` wide, the rows appended since its last absorb stay
        pending until ``ABSORB_BLOCK`` of them have gathered; with
        ``corrected`` each is also whitened against the triangle, once, and
        they are absorbed early where their summed leverage would pass the
        bound (see the class docstring).  Otherwise every row is absorbed
        and nothing is pending.  The solves read from a corrected result are
        those of the exact factor of all the history's rows, up to rounding;
        an uncorrected one carries the pending rows alone, for a reader that
        takes them as rows.
        """
        columns = self._k + 1 if columns is None else columns
        entry = self._kept_factor(ridge, columns, hold=True, corrected=corrected)
        if entry.pending:
            return entry.read(self._design, self._responses)
        return PendingFactor(_leading_factor(entry.triangle, columns))

    def _kept_factor(
        self, ridge: float, columns: int, hold: bool = False, corrected: bool = True
    ) -> "_KeptFactor":
        """The factor kept for ``ridge``, at least ``columns`` design columns
        wide, with every appended row absorbed, or, where ``hold`` allows it
        and ``columns`` is its full width of at least ``WIDTH_FLOOR``, held
        pending beside it (``_KeptFactor.hold``); ``ridge`` must pass
        ``validate_ridge``."""
        ridge = validate_ridge(ridge)
        entry = self._factors.get(ridge)
        if entry is None or entry.width < columns:
            start = np.zeros((columns + 1, columns + 1), order="F")
            np.fill_diagonal(start[:-1, :-1], sqrt(ridge))
            entry = self._factors[ridge] = _KeptFactor(start)
        if hold and entry.width == columns >= WIDTH_FLOOR:
            entry.hold(self._design, self._responses, self._n, corrected)
        else:
            entry.absorb(self._design, self._responses, self._n)
        return entry

    def design_norm(self, ridge: float = 0.0, columns: int | None = None) -> float:
        """||R_D||_F of the leading ``columns``-block of ``ridge``'s factor
        (default: all K+1 columns), from the column sums of squares the
        history carries (see the class docstring): O(K) per row appended
        since the last call, no pass over R and no factor touched."""
        ridge = validate_ridge(ridge)
        columns = self._k + 1 if columns is None else columns
        if self._squared_rows < self._n:
            rows = self._design[self._squared_rows : self._n]
            self._column_squares += np.einsum("ij,ij->j", rows, rows)
            self._squared_rows = self._n
        return sqrt(ridge * columns + float(self._column_squares[:columns].sum()))

    def design_has_full_rank(self, ridge: float = 0.0, columns: int | None = None) -> bool:
        """Least-squares rank rule for the leading ``columns``-block of
        ``ridge``'s factor (default: all K+1 columns), over the history's n
        rows; each answer is cached until the next append.

        The block is rank deficient when sigma_min <= eps * max(n, columns) *
        sigma_max, the default cut-off of LAPACK's SVD least-squares solver.
        At ridge 0 its singular values are the design's, and fewer rows than
        columns fail at once.  Then, with ||R_D||_F from ``design_norm``, the
        sqrt(ridge) shortcut, or the certificate carried with a kept factor at
        least ``columns`` wide when it lies far below the cut-off, settles
        the rule without touching the factor (see the class docstring).
        Otherwise every row is absorbed and one triangular inverse of the
        block is taken; its norm becomes the certificate only when the block
        is the factor's full width, since a leading block's inverse does not
        bound the whole one's.  That norm settles the rule, or the block's
        singular values decide it.  Every predictor step, both scores and
        the conditional sampler decide their rank here.
        """
        ridge = validate_ridge(ridge)
        columns = self._k + 1 if columns is None else columns
        key = (ridge, columns)
        if key in self._full_rank:
            return self._full_rank[key]
        n = self._n
        tolerance = _rank_tolerance(n, columns)
        frobenius = self.design_norm(ridge, columns)
        entry = self._factors.get(ridge)
        # a wider factor starts without a certificate
        carried = None if entry is None or entry.width < columns else entry.inverse_norm
        if ridge == 0.0 and n < columns:
            passes = False
        elif sqrt(ridge) > tolerance * frobenius or (
            carried is not None and frobenius * carried * tolerance <= CERTIFICATE_MARGIN
        ):
            passes = True
        else:
            entry = self._kept_factor(ridge, columns)
            block = entry.triangle[:columns, :columns]
            inverse, info = lapack.dtrtri(block)
            # an exactly zero pivot: the block is singular
            inverse_norm = inf if info > 0 else float(np.linalg.norm(inverse))
            if columns == entry.width:
                entry.inverse_norm = inverse_norm
            passes = inverse_norm < inf
            if passes and frobenius * inverse_norm * tolerance > CERTIFICATE_MARGIN:
                # the bound does not settle it: the exact singular values do
                spectrum = np.linalg.svd(block, compute_uv=False)
                passes = bool(spectrum[-1] > tolerance * spectrum[0])
        self._full_rank[key] = passes
        return passes


@dataclass(eq=False)
class _KeptFactor:
    """A ridge factor the history keeps: ``absorbed`` rows are folded into
    ``triangle``, and ``inverse_norm`` is the rank certificate, ||R_D^-1||_F
    of its whole design block when a rank rule last inverted it (None until
    one does).

    The next ``pending`` rows wait beside the triangle, and the first
    ``whitened`` of them carry their correction: with W = R_D^-T D_P' their
    whitened design rows, e their recursive residuals and L the Cholesky
    factor of I + W'W, ``correction`` holds the rows of L^-1 W', ``scaled``
    the entries of L^-1 e (see ``PendingFactor``), and ``leverage`` is
    ||W||_F^2.  Both arrays are only ever written past the rows that a
    ``PendingFactor`` read shares, and an absorb drops them, so every read
    stays valid.
    """

    triangle: np.ndarray
    absorbed: int = 0
    inverse_norm: float | None = None
    pending: int = 0
    whitened: int = 0
    leverage: float = 0.0
    correction: np.ndarray | None = None
    scaled: np.ndarray | None = None

    @property
    def width(self) -> int:
        """The design columns of the factor."""
        return self.triangle.shape[0] - 1

    def absorb(self, design: np.ndarray, responses: np.ndarray, count: int) -> None:
        """Fold the rows from ``absorbed`` up to ``count``, pending ones
        included, into the triangle by one ``absorb_rows`` call."""
        if self.absorbed < count:
            width = self.width
            rows = np.empty((count - self.absorbed, width + 1), order="F")
            rows[:, :-1] = design[self.absorbed : count, :width]
            rows[:, -1] = responses[self.absorbed : count]
            self.triangle = absorb_rows(self.triangle, rows)
            self.absorbed = count
        if self.pending:
            self.pending = self.whitened = 0
            self.leverage = 0.0
            self.correction = self.scaled = None

    def hold(self, design: np.ndarray, responses: np.ndarray, count: int, corrected: bool) -> None:
        """Hold the rows up to ``count`` pending beside the triangle, with
        their correction where ``corrected`` asks for it, or absorb them
        all, the pending ones with them, where they would make more than
        ``ABSORB_BLOCK`` pending rows, where the triangle cannot whiten one,
        or where the summed leverage would pass ``LEVERAGE_BOUND``.  A new
        factor absorbs the rows it starts from."""
        if not self.absorbed or count - self.absorbed > ABSORB_BLOCK:
            return self.absorb(design, responses, count)
        self.pending = count - self.absorbed
        if not corrected:
            return
        triangle, width = self.triangle, self.width
        for index in range(self.absorbed + self.whitened, count):
            row, info = lapack.dtrtrs(triangle[:, :width], design[index, :width], trans=1)
            energy = float(row @ row)
            self.leverage += energy
            # a NaN or an infinite leverage fails the test too
            if info != 0 or not self.leverage <= LEVERAGE_BOUND:
                return self.absorb(design, responses, count)
            if self.correction is None:
                self.correction = np.empty((ABSORB_BLOCK, width))
                self.scaled = np.empty(ABSORB_BLOCK)
            # L grows by the row (l', d): l = L^-1 W'w = V w and d^2 = 1 +
            # |w|^2 - |l|^2, at least 1; V and s grow by (w - V'l) / d and
            # (e - l . s) / d, e = y - w . R[:c, -1] the recursive residual
            held = self.whitened
            residual = responses[index] - float(triangle[:width, width] @ row)
            if held:
                basis, scaled = self.correction[:held], self.scaled[:held]
                cross = basis @ row
                diagonal = sqrt(1.0 + energy - float(cross @ cross))
                row = row - cross @ basis
                residual -= float(cross @ scaled)
            else:
                diagonal = sqrt(1.0 + energy)
            self.correction[held] = row / diagonal
            self.scaled[held] = residual / diagonal
            self.whitened = held + 1

    def read(self, design: np.ndarray, responses: np.ndarray) -> "PendingFactor":
        """The triangle and its pending rows, as ``PendingFactor``, with
        their correction once every one of them carries it."""
        held = self.pending
        rows = slice(self.absorbed, self.absorbed + held)
        corrected = self.whitened == held
        return PendingFactor(
            self.triangle,
            design[rows, : self.width],
            responses[rows],
            self.correction[:held] if corrected else None,
            self.scaled[:held] if corrected else None,
        )


@dataclass(eq=False)
class PendingFactor:
    """The history's Gram matrix over c design columns as a triangle R of
    [design | responses] stacked on [sqrt(a) I | 0] over the absorbed rows
    (as ``History.triangular_factor`` returns it when nothing is pending),
    and p rows pending beside it.

    The pending rows D_P and their responses are ``rows`` and
    ``responses``.  With W = R_D^-T D_P' (c x p) their whitened rows, e =
    y_P - W'R[:c, -1] their recursive residuals against the triangle's own
    fit, and L the lower Cholesky factor of I + W'W, the Gram matrix of
    every row is R_D'(I + W W')R_D, so

        (D'D + aI)^-1 = R_D^-1 (I - W (I + W'W)^-1 W') R_D^-T.

    A corrected read carries ``correction`` = V = L^-1 W' (p x c) and
    ``scaled`` = s = L^-1 e, and the reads below apply the correction
    through them: O(c^2 + p c) per right side, no factor update.  With
    nothing pending each read is the plain triangular solve of the
    triangle, bit for bit.  The history keeps ||W||_F^2 at most
    ``LEVERAGE_BOUND`` B, so a subtracted term is at most B / (1 + B) of
    what it is taken from.  An uncorrected read (``correction`` None) has
    pending rows but no solves.  Treat a read as read-only.
    """

    triangle: np.ndarray
    rows: np.ndarray | None = None
    responses: np.ndarray | None = None
    correction: np.ndarray | None = None
    scaled: np.ndarray | None = None

    @property
    def pending(self) -> int:
        """The number p of pending rows."""
        return 0 if self.rows is None else len(self.rows)

    @property
    def columns(self) -> int:
        """The design columns c."""
        return self.triangle.shape[0] - 1

    def _corrections(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, s), for the solves of a read with pending rows."""
        if self.correction is None:
            raise ValueError("an uncorrected read of pending rows has no solves")
        return self.correction, self.scaled

    def coefficients(self) -> np.ndarray:
        """The ridge coefficients of every row: R_D^-1 (r + V's), r =
        R[:c, -1], one triangular solve plus O(p c) for the pending rows."""
        cols = self.columns
        right = self.triangle[:cols, cols]
        if self.pending:
            basis, scaled = self._corrections()
            right = right + scaled @ basis
        coefficients, _ = lapack.dtrtrs(self.triangle[:, :cols], right)
        return coefficients

    def whiten(self, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = R_D^-T ``right`` (a c-vector, or c x m) and its pending part
        Y = V G, empty with nothing pending.  The quadratic form of a right
        side z is z'(D'D + aI)^-1 z = |g|^2 - |y|^2, column by column;
        ``solve`` takes (G, Y) to (D'D + aI)^-1 z."""
        # LAPACK reads R_D as the top block of R's leading columns, which are
        # contiguous in a Fortran-ordered R, so no copy of it is made
        whitened, _ = lapack.dtrtrs(self.triangle[:, : self.columns], right, trans=1)
        if not self.pending:
            return whitened, whitened[:0]
        return whitened, self._corrections()[0] @ whitened

    def solve(self, whitened: np.ndarray, part: np.ndarray) -> np.ndarray:
        """(D'D + aI)^-1 z = R_D^-1 (G - V'Y) from the (G, Y) that
        ``whiten`` gave for z."""
        if self.pending:
            whitened = whitened - self._corrections()[0].T @ part
        solved, _ = lapack.dtrtrs(self.triangle[:, : self.columns], whitened)
        return solved

    def residual_norm(self) -> float:
        """The root of every row's residual energy at the ridge fit,
        sqrt(R[-1, -1]^2 + |s|^2): a sum of squares, so nothing cancels."""
        corner = abs(float(self.triangle[-1, -1]))
        if not self.pending:
            return corner
        scaled = self._corrections()[1]
        return sqrt(corner * corner + float(scaled @ scaled))

    def response_norm(self) -> float:
        """The root of every row's squared responses, ||R[:, -1]|| with the
        pending responses added."""
        column = self.triangle[:, -1]
        energy = float(column @ column)
        if self.pending:
            energy += float(self.responses @ self.responses)
        return sqrt(energy)


def absorb_rows(triangle: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Upper triangle T with T'T = triangle'triangle + rows'rows.

    One triangular-pentagonal Householder QR of the triangle stacked over
    the rows (LAPACK ``dtpqrt``), the inputs left unchanged.  It costs
    O(c^2) per row for c columns plus a per-column overhead per call that,
    for a lone row, outweighs the arithmetic (about 49 us for one row and
    3.5 us per row in a block of 16 at c = 102, one BLAS thread), which is
    why ``History`` absorbs wide factors a block at a time.
    """
    # block size 8 was faster than 16 or 32 at K = 100, both for one row
    # and for a 600-row batch
    factor, _, _, info = lapack.dtpqrt(0, min(triangle.shape[0], 8), triangle, rows)
    if info != 0:  # pragma: no cover - only raised for invalid arguments
        raise RuntimeError(f"LAPACK dtpqrt failed with info {info}")
    return factor


def _leading_factor(factor: np.ndarray, columns: int) -> np.ndarray:
    """The upper triangle of [first ``columns`` design columns | responses],
    read from the triangle R of [design | responses].

    The leading block of a triangular factor is the factor of any leading
    set of columns, so the result keeps R's leading ``columns``-block and
    R[:columns, -1], with the norm of the rest of that column as its last
    diagonal entry.  R itself is returned when it is that wide already.
    """
    if columns == factor.shape[0] - 1:
        return factor
    truncated = np.zeros((columns + 1, columns + 1), order="F")
    truncated[:columns, :columns] = factor[:columns, :columns]
    truncated[:columns, columns] = factor[:columns, -1]
    truncated[columns, columns] = np.linalg.norm(factor[columns:, -1])
    return truncated


def _rank_tolerance(rows: int, cols: int) -> float:
    return _EPS * max(rows, cols)


@dataclass(frozen=True)
class PredictionInterval:
    """A closed interval of candidate responses, possibly unbounded or empty.

    The empty set is encoded as (+inf, -inf); its length is defined to be 0.
    """

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if isnan(lo) or isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi and not (lo == inf and hi == -inf):
            raise ValueError(f"invalid endpoints ({lo!r}, {hi!r})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def full_line(cls) -> "PredictionInterval":
        return cls(-inf, inf)

    @classmethod
    def empty(cls) -> "PredictionInterval":
        return cls(inf, -inf)

    @property
    def is_empty(self) -> bool:
        return self.lower == inf and self.upper == -inf

    @property
    def is_bounded(self) -> bool:
        return self.is_empty or (not isinf(self.lower) and not isinf(self.upper))

    @property
    def length(self) -> float:
        if self.is_empty:
            return 0.0
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        if self.is_empty:
            return False
        return self.lower <= value <= self.upper


def validate_ridge(ridge) -> float:
    """A ridge coefficient as a float; ``ValueError`` unless it is
    nonnegative and finite.  Every predictor and score that takes a ridge
    checks it here, as does the history for each factor it keeps."""
    ridge = float(ridge)
    if not 0.0 <= ridge < inf:
        raise ValueError("ridge must be nonnegative and finite")
    return ridge


def validate_levels(levels) -> tuple[float, ...]:
    """Coerce a significance ladder to a validated tuple.

    Levels must lie strictly inside (0, 1) and be strictly decreasing, which
    makes the intervals returned for one call nested by construction.
    """
    if isinstance(levels, EpsilonLadder):
        return levels.levels
    out = tuple(float(e) for e in levels)
    if not out:
        raise ValueError("at least one significance level is required")
    for e in out:
        if isnan(e) or not 0.0 < e < 1.0:
            raise ValueError(f"significance level {e!r} outside (0, 1)")
    for a, b in zip(out, out[1:]):
        if not a > b:
            raise ValueError("significance levels must be strictly decreasing")
    return out


@dataclass(frozen=True)
class EpsilonLadder:
    """Strictly decreasing significance levels, largest (least confident) first."""

    levels: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", validate_levels(tuple(self.levels)))

    @classmethod
    def parse(cls, text: str) -> "EpsilonLadder":
        """Parse a comma-separated list; the levels are sorted decreasing first."""
        try:
            raw = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as err:
            raise ValueError(f"cannot parse significance levels {text!r}") from err
        if len(set(raw)) != len(raw):
            raise ValueError("duplicate significance levels")
        return cls(tuple(sorted(raw, reverse=True)))

    def __iter__(self) -> Iterator[float]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class FeatureSchedule:
    """Number of explanatory variables visible to the predictor at each step.

    Before ``switch_step`` only the first ``early_count`` features enter the
    regression; from that step on the first ``full_count`` do.  This mirrors
    a forecaster who distrusts a wide model until enough data has arrived.
    """

    early_count: int
    switch_step: int
    full_count: int

    def __post_init__(self):
        if self.early_count < 1 or self.full_count < 1 or self.switch_step < 1:
            raise ValueError("schedule counts and switch step must be positive")
        if self.early_count > self.full_count:
            raise ValueError("early_count must not exceed full_count")

    @classmethod
    def for_feature_count(cls, feature_count: int, early_count: int = 10) -> "FeatureSchedule":
        """Default schedule: min(early_count, K) features until step K+3, then all K."""
        if feature_count < 1:
            raise ValueError("feature_count must be positive")
        return cls(min(early_count, feature_count), feature_count + 3, feature_count)

    def active_features(self, step: int) -> int:
        return self.early_count if step < self.switch_step else self.full_count


Stream = Sequence[Observation]
