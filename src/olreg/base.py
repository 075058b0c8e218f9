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


class RankDeficiencyError(ValueError):
    """An unregularized fit required a full-rank design matrix and did not get one."""


class DegenerateFitError(ValueError):
    """A score is undefined because the fitted residual spread is exactly zero."""


class SummaryMismatchError(ValueError):
    """Summary components are mutually inconsistent (negative residual energy)."""


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
    [design | responses].  Rows are absorbed lazily:
    appending only records the row, and the rows appended since a factor
    was last asked for are folded into it by one triangular-pentagonal QR
    update (Gill, Golub, Murray & Saunders 1974), O(K^2) per absorbed row.
    A fixed history is therefore triangularized once, an on-line run pays
    O(K^2) per step, and predictors that never ask for a factor pay nothing.

    With each kept factor the history carries one rank certificate: the
    number ||R_D^-1||_F of the factor's design block R_D, taken from the
    last triangular inverse of that block (``design_inverse_norm``).
    Appending rows adds u u' to R_D'R_D for each row u, which never lowers
    the smallest singular value and never raises trace((R_D'R_D)^-1) =
    ||R_D^-1||_F^2; the inverse of a leading block of R_D is the leading
    block of R_D^-1.  So the carried number bounds ||T^-1||_F, and
    ||T||_F times it bounds kappa_2(T), for the current block, for any
    truncation of it to leading columns, and for any triangle that adds rows
    to either.  One inverse thus settles the rank rule for every later step
    until the bound stops settling it; an on-line run forms a new inverse
    only then, not once per step.
    """

    def __init__(self, feature_count: int):
        if feature_count < 0:
            raise ValueError("feature_count must be nonnegative")
        self._k = int(feature_count)
        self._design = np.empty((16, self._k + 1))
        self._responses = np.empty(16)
        self._n = 0
        self._factors: dict[float, _KeptFactor] = {}
        self._full_rank: bool | None = None

    @classmethod
    def from_observations(cls, observations: Iterable[Observation]) -> "History":
        observations = list(observations)
        if not observations:
            raise ValueError("cannot infer the feature count from an empty sequence")
        history = cls(observations[0].explanatory.size)
        for obs in observations:
            history.append(obs)
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
        self._full_rank = None

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
        asked for so far: rows appended since the previous call are absorbed
        first, a wider request refactors the whole history once, and a
        narrower one is served from the kept factor's leading c-block and
        R[:c, -1] (the leading block of a triangular factor is the factor of
        any leading set of columns), with the norm of the rest of that
        column as the last diagonal entry.  A feature schedule therefore
        pays for its narrow phase at the narrow width.
        """
        ridge = float(ridge)
        if not 0.0 <= ridge < inf:
            raise ValueError("ridge must be nonnegative and finite")
        columns = self._k + 1 if columns is None else columns
        return _leading_factor(self._kept_factor(ridge, columns).triangle, columns)

    def _kept_factor(self, ridge: float, columns: int) -> "_KeptFactor":
        """The factor kept for ``ridge``, at least ``columns`` design columns
        wide, with every appended row absorbed."""
        entry = self._factors.get(ridge)
        if entry is None or entry.triangle.shape[0] <= columns:
            start = np.zeros((columns + 1, columns + 1), order="F")
            np.fill_diagonal(start[:-1, :-1], sqrt(ridge))
            entry = self._factors[ridge] = _KeptFactor(start)
        if entry.absorbed < self._n:
            width = entry.triangle.shape[0] - 1
            rows = np.empty((self._n - entry.absorbed, width + 1), order="F")
            rows[:, :-1] = self._design[entry.absorbed : self._n, :width]
            rows[:, -1] = self._responses[entry.absorbed : self._n]
            entry.triangle = absorb_rows(entry.triangle, rows)
            entry.absorbed = self._n
        return entry

    def design_inverse_norm(self, ridge: float = 0.0) -> float | None:
        """The rank certificate kept with ``ridge``'s factor.

        ||R_D^-1||_F of the factor's design block as it was when last taken,
        which bounds ||T^-1||_F for the current block, for any truncation of
        it and for any step triangle built on either (see the class
        docstring).  It is taken again, by one triangular inverse of the
        current block, only when it no longer settles the rank rule for that
        block.  An exactly singular block gives inf; None means that the
        sqrt(ridge) shortcut settles the rule without it.
        """
        ridge = float(ridge)
        entry = self._factors.get(ridge)
        width = self._k + 1 if entry is None else entry.triangle.shape[0] - 1
        entry = self._kept_factor(ridge, width)
        block = entry.triangle[:width, :width]
        if _settles(block, self._n, ridge, entry.inverse_norm):
            return entry.inverse_norm
        if entry.inverse_norm is None or entry.certified_rows < self._n:
            inverse, info = lapack.dtrtri(block)
            entry.inverse_norm = inf if info > 0 else float(np.linalg.norm(inverse))
            entry.certified_rows = self._n
        return entry.inverse_norm

    def design_has_full_rank(self) -> bool:
        """Least-squares rank rule for the design, cached until the next append.

        The design is rank deficient when sigma_min <= eps * max(n, K+1) *
        sigma_max, the default cut-off of LAPACK's SVD least-squares solver.
        The singular values of the design are those of the leading block of
        ``triangular_factor``, so the rule is evaluated there, with the
        certificate of ``design_inverse_norm``: appended rows only raise the
        design's smallest singular value, so an on-line run settles the rule
        from the inverse it formed at an earlier step, and forms a new one
        only when ||R||_F times the carried norm no longer lies far below
        the cut-off.  A certificate that does not settle the rule is that
        fresh one, the block's own ||R^-1||_F, so the exact singular values
        decide without a second inverse of the same block.
        """
        if self._full_rank is None:
            cols = self._k + 1
            if self._n < cols:
                self._full_rank = False
            else:
                # the block first: a wider factor starts without a certificate
                block = self.triangular_factor()[:cols, :cols]
                inverse_norm = self.design_inverse_norm()
                self._full_rank = _settles(block, self._n, 0.0, inverse_norm) or (
                    inverse_norm < inf and _spectrum_passes(block, self._n)
                )
        return self._full_rank


@dataclass(eq=False)
class _KeptFactor:
    """A ridge factor the history keeps: ``absorbed`` rows are folded into
    ``triangle``, and ``inverse_norm`` is ||R_D^-1||_F of its design block
    after ``certified_rows`` rows (None until a rank rule asks for it)."""

    triangle: np.ndarray
    absorbed: int = 0
    inverse_norm: float | None = None
    certified_rows: int = 0


def absorb_rows(triangle: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Upper triangle T with T'T = triangle'triangle + rows'rows.

    One triangular-pentagonal Householder QR of the triangle stacked over
    the rows (LAPACK ``dtpqrt``), O(c^2) per row for c columns; the inputs
    are left unchanged.
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
    return np.finfo(float).eps * max(rows, cols)


def _settles(
    triangle: np.ndarray,
    rows: int,
    ridge: float,
    inverse_norm: float | None,
) -> bool:
    """Whether a cheap bound alone shows that the triangle passes the rank
    rule: the sqrt(ridge) shortcut, or the certificate ||R||_F * inverse_norm
    far below the cut-off (see ``_passes_rank_rule``).  No inverse is formed."""
    tolerance = _rank_tolerance(rows, triangle.shape[0])
    frobenius = float(np.linalg.norm(triangle))
    if ridge > 0.0 and sqrt(ridge) > tolerance * frobenius:
        return True
    return inverse_norm is not None and frobenius * inverse_norm * tolerance <= CERTIFICATE_MARGIN


def _passes_rank_rule(
    triangle: np.ndarray,
    rows: int,
    ridge: float = 0.0,
    inverse_norm: float | None = None,
) -> bool:
    """sigma_min > tolerance * sigma_max for a square upper triangle, with
    the least-squares cut-off tolerance = eps * max(rows, cols).

    ``ridge`` is the coefficient a when the triangle factors U'U + aI: its
    smallest singular value is then at least sqrt(a) and its largest at most
    the Frobenius norm, which settles the rule at once when sqrt(a) clears
    the tolerance times that norm.  Otherwise the rigorous bound
    kappa_2 <= ||R||_F ||R^-1||_F settles it when it is far below the
    cut-off.  ``inverse_norm``, when given, is an upper bound on
    ||R^-1||_F (``History.design_inverse_norm`` carries one across appended
    rows) and is tried before any inverse is formed; when it is absent or
    does not settle the rule, one triangular inverse of R gives the bound,
    and the exact singular values decide when that does not settle it
    either.  A carried bound is never below R's own ||R^-1||_F, so it
    settles the rule only where the triangle's own inverse would have.
    """
    if _settles(triangle, rows, ridge, inverse_norm):
        return True
    inverse, info = lapack.dtrtri(triangle)
    if info > 0:
        return False  # an exactly zero pivot: the triangle is singular
    if _settles(triangle, rows, 0.0, float(np.linalg.norm(inverse))):
        return True
    return _spectrum_passes(triangle, rows)


def _spectrum_passes(triangle: np.ndarray, rows: int) -> bool:
    """The rank rule decided by the triangle's exact singular values."""
    tolerance = _rank_tolerance(rows, triangle.shape[0])
    spectrum = np.linalg.svd(triangle, compute_uv=False)
    return bool(spectrum[-1] > tolerance * spectrum[0])


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
