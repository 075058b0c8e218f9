"""Exact draws from the response law conditioned on its sufficient summary.

Under a linear-Gaussian response model whose explanatory vectors carry no
distributional assumptions, the summary

    (bag of explanatory vectors, sum y_i, sum y_i x_i, sum y_i^2)

determines the conditional distribution of the full ordered sample: the
ordering of the bag is uniform, and given the ordering the response vector is
uniform on the sphere

    { fitted + r : r orthogonal to the design columns, |r| = residual norm }

where ``fitted`` is the least-squares fit of the responses on the design
[1 | x].  The Gaussian density is constant on that sphere (it depends on a
response vector only through the linear moments and the squared norm), which
is what makes uniform sampling exact rather than approximate.

A ``History`` is that summary: its rows are the bag, and the upper triangle
R of [1 | x | y] that it keeps (``History.triangular_factor``) carries the
moments, since R'R is their matrix.  The fit is a triangular solve on R's
design block and the residual norm is its last diagonal entry, so no energy
difference is taken and the sphere stays accurate when the responses sit far
from zero.

Sampling therefore needs the design to have full column rank and the sphere to
have positive dimension, i.e. at least K + 2 observations for K features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .base import History, RankDeficiencyError

# Directions whose projection onto the orthogonal complement is shorter than
# this are redrawn; normalizing them would amplify rounding noise.
_DIRECTION_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ConditionalSample:
    """One ordered draw: a permutation of the feature bag with its responses."""

    features: np.ndarray
    responses: np.ndarray


def random_orderings(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """``count`` independent uniform permutations of range(size), one per row."""
    return np.argsort(rng.random((count, size)), axis=1)


def complement_directions(
    rng: np.random.Generator,
    design: np.ndarray,
    orderings: np.ndarray,
    factor: np.ndarray,
) -> np.ndarray:
    """Unit vectors orthogonal to the columns of each row-permuted design.

    Row m of the output is a uniform unit direction of the orthogonal
    complement of ``design[orderings[m]]``, listed in the order
    ``orderings[m]``.  ``factor`` is an upper triangle R with R'R =
    design'design, for instance the R of a QR factorization of the design;
    that matrix is invariant under row permutations.

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
    # the orthonormal basis design R^-1, transposed: R'^-1 design'
    basis_t = solve_triangular(factor, design.T, trans=1)
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


def sample_conditional(history: History, count: int, seed) -> list[ConditionalSample]:
    """Draw ``count`` exact samples from the conditional law of the history's
    summary: its bag of rows and the moments its triangle carries.

    Determinism: the same (history, count, seed) triple yields bitwise
    identical samples.  Each sample owns a private random stream derived
    from (seed, sample index), so any degree of parallel evaluation would
    reproduce the same output in index order.

    Everything is read from the history's triangle R of [1 | x | y]: its
    design block R_D decides the rank (``History.design_has_full_rank``) and
    spans the complement, the fitted vector is D R_D^-1 R[:-1, -1] and the
    sphere's radius is |R[-1, -1]|.
    """
    if count < 1:
        raise ValueError("count must be positive")
    n, k = len(history), history.feature_count
    if n < k + 2:
        raise ValueError(
            f"need at least {k + 2} observations for {k} features; got {n}"
        )
    if not history.design_has_full_rank():
        raise RankDeficiencyError("feature bag gives a rank-deficient design")
    triangle = history.triangular_factor()
    factor = triangle[:-1, :-1]
    design, features = history.design_matrix, history.features
    fitted = design @ solve_triangular(factor, triangle[:-1, -1])
    radius = abs(float(triangle[-1, -1]))
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
                features[ordering],
                fitted[ordering] + radius * direction,
            )
        )
    return out
