"""Exact draws from the response law conditioned on its sufficient summary.

Under a linear-Gaussian response model whose explanatory vectors carry no
distributional assumptions, the summary

    (bag of explanatory vectors, sum y_i, sum y_i x_i, sum y_i^2)

determines the conditional distribution of the full ordered sample: the
ordering of the bag is uniform, and given the ordering the response vector is
uniform on the sphere

    { fitted + r : r orthogonal to the design columns, |r|^2 = residual energy }

where ``fitted`` is the least-squares reconstruction of the summed moments and
``residual energy = sum y_i^2 - fitted'fitted``.  The Gaussian density is
constant on that sphere (it depends on a response vector only through the
linear moments and the squared norm), which is what makes uniform sampling
exact rather than approximate.

Sampling therefore needs the design to have full column rank and the sphere to
have positive dimension, i.e. at least K + 2 observations for K features.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterable

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .base import Observation, RankDeficiencyError, SummaryMismatchError, _passes_rank_rule

# Directions whose projection onto the orthogonal complement is shorter than
# this are redrawn; normalizing them would amplify rounding noise.
_DIRECTION_FLOOR = 1e-12

# Tolerance for the consistency requirement square_sum >= fitted energy,
# relative to the scale of square_sum.
_ENERGY_SLACK = 1e-8


@dataclass(frozen=True, eq=False)
class IidGaussSummary:
    """Sufficient summary of an observation sequence for conditional sampling.

    ``features`` holds the bag of explanatory vectors, one row per
    observation; the row order carries no information.

    The summary keeps response moments by its public contract, so the
    sampler's residual radius is the difference square_sum - m'b of the
    response energy and the fitted energy (``_conditional_geometry``).  That
    difference cancels when the responses sit far from zero relative to
    their residual spread: at y'y near 1e15 it keeps only a few digits.
    """

    features: np.ndarray
    response_sum: float
    cross_sum: np.ndarray
    square_sum: float

    def __post_init__(self):
        features = np.atleast_2d(np.asarray(self.features, dtype=float))
        cross = np.asarray(self.cross_sum, dtype=float).ravel()
        if features.shape[1] != cross.size:
            raise ValueError("cross_sum length must match the feature count")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "cross_sum", cross)
        object.__setattr__(self, "response_sum", float(self.response_sum))
        object.__setattr__(self, "square_sum", float(self.square_sum))

    @classmethod
    def empty(cls, feature_count: int) -> "IidGaussSummary":
        return cls(
            np.empty((0, feature_count)),
            0.0,
            np.zeros(feature_count),
            0.0,
        )

    @classmethod
    def from_stream(cls, observations: Iterable[Observation]) -> "IidGaussSummary":
        observations = list(observations)
        if not observations:
            raise ValueError("cannot infer the feature count from an empty stream")
        summary = cls.empty(observations[0].explanatory.size)
        for obs in observations:
            summary = update_summary(summary, obs)
        return summary

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def design_matrix(self) -> np.ndarray:
        return np.column_stack([np.ones(self.count), self.features])

    def moment_vector(self) -> np.ndarray:
        """The summed design moments (sum y_i, sum y_i x_i)."""
        return np.concatenate([[self.response_sum], self.cross_sum])


def update_summary(summary: IidGaussSummary, observation: Observation) -> IidGaussSummary:
    """Fold one observation into the summary.  Pure; returns a new record."""
    if observation.explanatory.size != summary.feature_count:
        raise ValueError(
            f"expected {summary.feature_count} features, "
            f"got {observation.explanatory.size}"
        )
    y = observation.response
    return IidGaussSummary(
        np.vstack([summary.features, observation.explanatory]),
        summary.response_sum + y,
        summary.cross_sum + y * observation.explanatory,
        summary.square_sum + y * y,
    )


@dataclass(frozen=True, eq=False)
class ConditionalSample:
    """One ordered draw: a permutation of the feature bag with its responses."""

    features: np.ndarray
    responses: np.ndarray

    def summary(self) -> IidGaussSummary:
        """Recompute the summary of this sample (should match the source)."""
        return IidGaussSummary(
            self.features,
            float(self.responses.sum()),
            self.features.T @ self.responses,
            float(self.responses @ self.responses),
        )


def random_orderings(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """``count`` independent uniform permutations of range(size), one per row."""
    return np.argsort(rng.random((count, size)), axis=1)


def complement_directions(
    rng: np.random.Generator,
    design: np.ndarray,
    orderings: np.ndarray,
    gram_factor,
) -> np.ndarray:
    """Unit vectors orthogonal to the columns of each row-permuted design.

    Row m of the output is a uniform unit direction of the orthogonal
    complement of ``design[orderings[m]]``, listed in the order
    ``orderings[m]``.  ``gram_factor`` is a triangular factor of
    design'design in the ``(factor, lower)`` form of ``scipy.linalg.cho_solve``,
    for instance ``(R, False)`` with R from a QR factorization of the design;
    the matrix is invariant under row permutations.

    The stream: each round draws one block of standard normals, one row per
    pending direction, in the design's own row order.  A row is projected
    onto the complement of the design's columns and normalized; rows whose
    projection is shorter than the rejection floor are redrawn in the next
    round.  Row m is then read in the order ``orderings[m]``: a complement
    direction of the design, permuted, is one of the permuted design, and
    relabelling i.i.d. normals by an independent permutation leaves their
    law unchanged, so the output is uniform on the unit sphere of each
    permuted complement.

    The projection is two GEMMs against the orthonormal basis design R^-1,
    formed once per call by a triangular solve: O(count * n * K) time and
    O(count * n) memory, with no permuted copy of the design.
    """
    count, n = orderings.shape
    factor, lower = gram_factor
    # the orthonormal basis design R^-1, transposed: R'^-1 design', where R
    # is the factor, or its transpose when it is lower triangular
    basis_t = solve_triangular(factor, design.T, trans=0 if lower else 1, lower=lower)
    out = None
    pending = np.arange(count)
    for _ in range(64):
        draws = rng.standard_normal((pending.size, n))
        draws -= (draws @ basis_t.T) @ basis_t
        norms = np.linalg.norm(draws, axis=1)
        accepted = norms > _DIRECTION_FLOOR
        if out is None:
            if accepted.all():  # the usual case: no row to redraw
                draws /= norms[:, None]
                return np.take_along_axis(draws, orderings, axis=1)
            out = np.empty((count, n))
        kept = pending[accepted]
        out[kept] = np.take_along_axis(
            draws[accepted] / norms[accepted, None], orderings[kept], axis=1
        )
        pending = pending[~accepted]
        if pending.size == 0:
            return out
    raise RuntimeError("direction sampling failed to converge; is the complement trivial?")


def _conditional_geometry(summary: IidGaussSummary):
    """Shared setup: design, its triangular factor, fitted vector, residual radius.

    The factor is the R of a QR factorization of the design, passed as
    ``(R, False)`` wherever a Cholesky factor of design'design is expected:
    R'R is that matrix, and deciding rank on R does not square the design's
    conditioning.
    """
    n, k = summary.count, summary.feature_count
    if n < k + 2:
        raise ValueError(
            f"need at least {k + 2} observations for {k} features; got {n}"
        )
    design = summary.design_matrix()
    upper = np.linalg.qr(design, mode="r")
    if not _passes_rank_rule(upper, n):
        raise RankDeficiencyError("feature bag gives a rank-deficient design")
    factor = (upper, False)
    moments = summary.moment_vector()
    solution = cho_solve(factor, moments)
    energy = summary.square_sum - float(moments @ solution)
    if energy < -_ENERGY_SLACK * max(abs(summary.square_sum), 1.0):
        raise SummaryMismatchError(
            f"square_sum falls short of the fitted energy by {-energy!r}"
        )
    radius = sqrt(max(energy, 0.0))
    return design, factor, design @ solution, radius


def sample_conditional(
    summary: IidGaussSummary, count: int, seed
) -> list[ConditionalSample]:
    """Draw ``count`` exact samples from the conditional law of the summary.

    Determinism: the same (summary, count, seed) triple yields bitwise
    identical samples.  Each sample owns a private random stream derived
    from (seed, sample index), so any degree of parallel evaluation would
    reproduce the same output in index order.
    """
    if count < 1:
        raise ValueError("count must be positive")
    design, factor, fitted, radius = _conditional_geometry(summary)
    n = summary.count
    out: list[ConditionalSample] = []
    for index in range(count):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        )
        ordering = rng.permutation(n)
        direction = complement_directions(
            rng, design, ordering[None, :], factor
        )[0]
        out.append(
            ConditionalSample(
                summary.features[ordering],
                fitted[ordering] + radius * direction,
            )
        )
    return out
