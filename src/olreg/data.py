"""Synthetic data generation, matrix file I/O, and series emission.

The synthetic generator reproduces the benchmark regression setup used
throughout the package's experiments: a shared intercept, a handful of large
alternating-sign coefficients followed by unit ones, standard normal features
and standard normal noise.  File I/O is plain delimiter-separated decimal
text (comma or whitespace, optional header line), exact on round-trip at 17
significant digits, with "inf"/"-inf" as the infinity tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .base import MatrixParseError, Observation, _checked_rows
from .protocol import DEFAULT_SEED, OnlineLedger


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic regression stream.

    The coefficient vector alternates in sign starting positive, with the
    first ``leading_count`` entries scaled by ``leading_scale`` and the rest
    by ``trailing_scale``; responses are intercept + coefficients . features
    + noise_scale * standard normal noise.  Regeneration with the same seed
    is bitwise identical.
    """

    seed: int = DEFAULT_SEED
    observation_count: int = 600
    feature_count: int = 100
    intercept: float = 100.0
    leading_count: int = 10
    leading_scale: float = 10.0
    trailing_scale: float = 1.0
    noise_scale: float = 1.0

    def coefficients(self) -> np.ndarray:
        scales = np.full(self.feature_count, float(self.trailing_scale))
        scales[: min(self.leading_count, self.feature_count)] = self.leading_scale
        signs = np.where(np.arange(self.feature_count) % 2 == 0, 1.0, -1.0)
        return signs * scales


def gen_synthetic(config: SyntheticConfig) -> list[Observation]:
    """Generate the synthetic stream; same config, same bits.

    Draw order is fixed and documented: the full feature matrix first
    (row-major), then the noise vector, from one seeded generator.
    """
    rng = np.random.default_rng(config.seed)
    features = rng.standard_normal((config.observation_count, config.feature_count))
    noise = rng.standard_normal(config.observation_count)
    responses = (
        config.intercept + features @ config.coefficients() + config.noise_scale * noise
    )
    return [Observation(x, y) for x, y in zip(features, responses)]


def observations_to_arrays(observations) -> tuple[np.ndarray, np.ndarray]:
    """Stack a stream into a feature matrix and a response vector."""
    observations = list(observations)
    if not observations:
        return np.empty((0, 0)), np.empty(0)
    features = np.vstack([obs.explanatory for obs in observations])
    responses = np.array([obs.response for obs in observations])
    return features, responses


def observations_from_arrays(features, responses) -> list[Observation]:
    """Pair feature rows with responses into a stream.

    The whole matrix is checked once, by ``Observation``'s rule: the first
    row with a non-finite feature or response raises the ``ValueError``
    that its ``Observation`` would.  No row is checked again.
    """
    features, responses = _checked_rows(features, responses)
    return [Observation._checked(x, y) for x, y in zip(features, responses.tolist())]


def _is_numeric(tokens: list[str]) -> bool:
    try:
        for token in tokens:
            float(token)
    except ValueError:
        return False
    return True


def load_matrix(path) -> np.ndarray:
    """Read a rectangular numeric matrix from delimiter-separated text.

    Commas and whitespace both delimit; a first line that fails numeric
    parsing is taken to be a header and skipped; blank lines are ignored.
    Ragged rows and unparseable fields raise ``MatrixParseError`` with the
    offending 1-based line number.  A file with no data rows yields a 0x0
    matrix.  Every field is read as Python's ``float()`` reads it.

    The file is read once and split into lines on newlines, as iterating
    over it would.  Below the header, its commas become spaces and numpy's
    C reader (``np.loadtxt``, whitespace-delimited, no comment character)
    converts the lines: it splits on the whitespace ``str.split`` splits on
    and converts a field as ``float()`` does, or rejects it.  Whatever it
    rejects (ragged rows, bad fields, and tokens only ``float()`` takes,
    such as ``1_0`` or non-ASCII digits) is read again line by line with
    ``float()``, which reproduces those values or names the bad line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().replace(",", " ").split("\n")
    start = next((i for i, line in enumerate(lines) if line.split()), len(lines))
    if start < len(lines) and not _is_numeric(lines[start].split()):
        start += 1
    body = lines[start:]
    if not any(map(str.strip, body)):
        return np.empty((0, 0))
    try:
        return np.loadtxt(body, comments=None, ndmin=2)
    except ValueError:
        return _load_lines(lines)


def _load_lines(lines: list[str]) -> np.ndarray:
    """``load_matrix`` one line at a time, with commas already made spaces,
    converting each token with ``float()``: the fallback for what the C
    reader rejects."""
    rows: list[list[float]] = []
    saw_content = False
    for number, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        first_content = not saw_content
        saw_content = True
        try:
            values = [float(token) for token in tokens]
        except ValueError:
            if first_content:
                continue
            raise MatrixParseError("unparseable numeric field", number) from None
        if rows and len(values) != len(rows[0]):
            raise MatrixParseError(
                f"expected {len(rows[0])} fields, got {len(values)}", number
            )
        rows.append(values)
    if not rows:
        return np.empty((0, 0))
    return np.array(rows, dtype=float)


def save_matrix(matrix, path, header: list[str] | None = None) -> None:
    """Write a matrix as comma-separated decimal text, exact on round-trip.

    Values are printed with 17 significant digits (enough to reproduce any
    double exactly); infinities become "inf"/"-inf".
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    if matrix.ndim != 2:
        raise ValueError("matrix must be one- or two-dimensional")
    with open(path, "w", encoding="utf-8") as handle:
        if header is not None:
            handle.write(",".join(header) + "\n")
        for row in matrix:
            handle.write(",".join(f"{value:.17g}" for value in row) + "\n")


def emit_series(ledger: OnlineLedger, kind: str, path) -> None:
    """Write one plot-ready series per level: a step column plus level columns.

    ``cumulative_errors`` emits running error totals (integers);
    ``median_accuracy`` emits running medians of the interval lengths, with
    infinite medians spelled "inf".
    """
    if kind == "cumulative_errors":
        table = ledger.cumulative_errors()
    elif kind == "median_accuracy":
        table = ledger.median_lengths()
    else:
        raise ValueError(f"unknown series kind: {kind!r}")
    header = ["n"] + [f"level_{epsilon:g}" for epsilon in ledger.levels]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for step in range(ledger.step_count):
            cells = [str(step + 1)]
            for j in range(len(ledger.levels)):
                value = table[j, step]
                if kind == "cumulative_errors":
                    cells.append(str(int(value)))
                else:
                    cells.append("inf" if value == inf else f"{value:.17g}")
            handle.write(",".join(cells) + "\n")
