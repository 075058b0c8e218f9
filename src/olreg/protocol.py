"""On-line prediction protocol with validity diagnostics.

``run_online`` feeds a stream of observations to a predictor one at a time:
at each step the predictor sees the history and the new explanatory vector,
commits to one interval per significance level, and only then learns the
response.  The returned ledger records hits, misses and interval lengths per
level, plus the realized p-values when the run is smoothed.  The predictors
it drives are the classes of ``predictors``, each of which owns its step,
intervals, p-value and onset rule; they are importable from here too.

The diagnostics quantify what validity should look like on such a ledger:
error frequencies inside a central binomial band (``binomial_band``,
``validity_report``), independent-looking error bits (lag-one
autocorrelation), uniform-looking smoothed p-values (Kolmogorov-Smirnov),
and agreement with classical batch t-intervals on location-only data
(``fisher_verify``).
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import insort
from math import inf, sqrt
from typing import Protocol

import numpy as np

from .base import EpsilonLadder, History, PredictionInterval, Stream, validate_levels
from .numerics import two_sided_quantiles
# the predictor classes live in ``predictors``; ``run_online`` drives them
from .predictors import (
    FullLinePredictor,
    GaussPredictor,
    IidGaussPredictor,
    IidPredictor,
    MvaPredictor,
)

DEFAULT_SEED = 1729

class OnlinePredictor(Protocol):
    """What ``run_online`` needs from a predictor.

    ``step`` builds everything the predictor knows at one step from the
    history and the new explanatory vector, before the response is seen;
    ``predict`` reads the committed intervals from that step and ``pvalue``
    the realized p-value once the response arrives.  Both answers come from
    the same step, which is built once per observation.  The predictor
    classes in ``predictors`` implement it.
    """

    def step(self, history: History, x_new): ...

    def predict(self, step, levels) -> list[PredictionInterval]: ...

    def pvalue(self, step, response: float, tie_break: float) -> float: ...


@dataclass(frozen=True, eq=False)
class PValueTrace:
    """Realized p-values of a smoothed run with their tie-break draws."""

    pvalues: np.ndarray
    tie_breaks: np.ndarray

    def ks_uniform(self) -> tuple[float, float]:
        """Kolmogorov-Smirnov (statistic, p-value) against uniform on [0, 1]."""
        from scipy import stats  # slow to import, and only the diagnostics need it

        result = stats.kstest(self.pvalues, "uniform")
        return float(result.statistic), float(result.pvalue)


@dataclass(eq=False)
class OnlineLedger:
    """Everything a protocol run committed to, level by level and step by step.

    ``errors`` and ``lengths`` have one row per significance level (in ladder
    order) and one column per step; ``pvalues`` is present only for smoothed
    runs.  Interval lengths may be infinite; the empty interval contributes
    an error and length zero.
    """

    levels: tuple[float, ...]
    errors: np.ndarray
    lengths: np.ndarray
    smoothed: bool
    seed: int | None
    trace: PValueTrace | None = None

    @property
    def step_count(self) -> int:
        return self.errors.shape[1]

    def error_counts(self) -> np.ndarray:
        return self.errors.sum(axis=1)

    def cumulative_errors(self) -> np.ndarray:
        """Running error totals, one row per level."""
        return np.cumsum(self.errors, axis=1)

    def median_lengths(self) -> np.ndarray:
        """Running medians of the interval lengths, one row per level."""
        return np.vstack([_running_medians(row) for row in self.lengths])

    def to_dict(self) -> dict:
        def encode(value: float):
            return "inf" if value == inf else value

        payload = {
            "levels": list(self.levels),
            "smoothed": self.smoothed,
            "seed": self.seed,
            "errors": self.errors.astype(int).tolist(),
            "lengths": [[encode(v) for v in row] for row in self.lengths.tolist()],
        }
        if self.trace is not None:
            payload["pvalues"] = self.trace.pvalues.tolist()
            payload["tie_breaks"] = self.trace.tie_breaks.tolist()
        else:
            payload["pvalues"] = None
            payload["tie_breaks"] = None
        return payload

    @classmethod
    def from_dict(cls, payload) -> "OnlineLedger":
        """The ledger that ``to_dict`` wrote, checked first: a ``ValueError``
        names the problem where ``payload`` is not such a ledger.

        It needs a JSON object with ``levels`` (a valid ladder),
        ``smoothed``, ``errors`` and ``lengths``.  ``errors`` and ``lengths``
        need one row per level and the same number of steps, at least one;
        error bits are 0 or 1 and lengths nonnegative numbers or "inf".
        ``pvalues``, where present and not null, needs one entry per step.
        """
        if not isinstance(payload, dict):
            raise ValueError("a ledger must be a JSON object")
        missing = [key for key in ("levels", "smoothed", "errors", "lengths") if key not in payload]
        if missing:
            raise ValueError(f"ledger lacks {', '.join(missing)}")
        levels = validate_levels(_ledger_array(payload, "levels", 1))
        errors, lengths = (_ledger_array(payload, key, 2) for key in ("errors", "lengths"))
        steps = errors.shape[1]
        if steps == 0 or errors.shape != (len(levels), steps) or lengths.shape != errors.shape:
            raise ValueError(
                f"ledger errors and lengths must have one row per level ({len(levels)})"
                " and the same number of steps, at least one"
            )
        if not (np.isin(errors, (0.0, 1.0)).all() and (lengths >= 0.0).all()):
            raise ValueError("ledger errors must be bits, 0 or 1, and lengths nonnegative")
        trace = None
        if payload.get("pvalues") is not None:
            pvalues = _ledger_array(payload, "pvalues", 1)
            if len(pvalues) != steps:
                raise ValueError(f"ledger pvalues must have one entry per step ({steps})")
            tie_breaks = np.empty(0)
            if payload.get("tie_breaks") is not None:
                tie_breaks = _ledger_array(payload, "tie_breaks", 1)
            trace = PValueTrace(pvalues, tie_breaks)
        return cls(
            levels=levels,
            errors=errors.astype(np.uint8),
            lengths=lengths,
            smoothed=bool(payload["smoothed"]),
            seed=payload.get("seed"),
            trace=trace,
        )


def _ledger_array(payload: dict, key: str, ndim: int) -> np.ndarray:
    """A ledger entry as a float array of ``ndim`` dimensions; a
    ``ValueError`` names the entry where it is not one."""
    try:
        table = np.array(payload[key], dtype=float)
    except (TypeError, ValueError):
        table = None
    if table is None or table.ndim != ndim:
        raise ValueError(f"ledger {key} must be a rectangular {ndim}-d list of numbers")
    return table


def _check_nested(intervals: list[PredictionInterval]) -> None:
    # Levels decrease along the ladder, so each interval must sit inside the
    # next; the empty encoding (+inf, -inf) passes as a subset of anything.
    for tight, loose in zip(intervals, intervals[1:]):
        if tight.lower < loose.lower or tight.upper > loose.upper:
            raise RuntimeError(
                f"prediction intervals are not nested: {tight} vs {loose}"
            )


def run_online(
    predictor: OnlinePredictor,
    stream: Stream,
    levels,
    smoothed: bool = False,
    seed: int | None = None,
) -> OnlineLedger:
    """Drive one pass of the on-line protocol and collect its ledger.

    At every step the predictor builds one step from the history and the new
    explanatory vector, and commits to nested intervals read from it before
    seeing the response.  In the deterministic mode an error at a level
    means the response fell outside the committed closed interval.  In the
    smoothed mode the error indicator is derived from the realized p-value,
    read from the same step with a fresh uniform tie-break per step shared
    across levels, which makes the long-run error frequency exactly the
    significance level for a rank-based predictor; interval lengths are
    still those of the committed deterministic intervals.

    The levels are validated once, here; each step's ``predict`` gets them
    as an ``EpsilonLadder``, which it takes as validated.
    """
    ladder = EpsilonLadder(tuple(levels))
    levels = ladder.levels
    observations = list(stream)
    if not observations:
        raise ValueError("stream must contain at least one observation")
    resolved_seed = DEFAULT_SEED if seed is None else seed
    rng = np.random.default_rng(resolved_seed)

    level_count = len(levels)
    step_count = len(observations)
    errors = np.zeros((level_count, step_count), dtype=np.uint8)
    lengths = np.zeros((level_count, step_count), dtype=float)
    pvalues = np.zeros(step_count, dtype=float) if smoothed else None
    tie_breaks = np.zeros(step_count, dtype=float) if smoothed else None

    history = History(observations[0].explanatory.size)
    for index, observation in enumerate(observations):
        step = predictor.step(history, observation.explanatory)
        intervals = predictor.predict(step, ladder)
        if len(intervals) != level_count:
            raise RuntimeError("predictor returned the wrong number of intervals")
        _check_nested(intervals)
        for j, interval in enumerate(intervals):
            lengths[j, index] = interval.length
        if smoothed:
            tie_break = float(rng.random())
            p = predictor.pvalue(step, observation.response, tie_break)
            pvalues[index] = p
            tie_breaks[index] = tie_break
            for j, epsilon in enumerate(levels):
                errors[j, index] = 1 if p <= epsilon else 0
        else:
            for j, interval in enumerate(intervals):
                errors[j, index] = 0 if interval.contains(observation.response) else 1
        history.append(observation)

    return OnlineLedger(
        levels=levels,
        errors=errors,
        lengths=lengths,
        smoothed=smoothed,
        seed=resolved_seed,
        trace=PValueTrace(pvalues, tie_breaks) if pvalues is not None else None,
    )


def _middle(ordered: list[float], count: int) -> float:
    half = count // 2
    if count % 2 == 1:
        return ordered[half]
    low, high = ordered[half - 1], ordered[half]
    return inf if (low == inf or high == inf) else 0.5 * (low + high)


def median_accuracy(values) -> float:
    """Median of a length series, honouring infinite entries.

    The middle value for odd counts; for even counts the mean of the two
    middle values, or infinity when either of them is infinite (an interval
    ledger has a finite median only when a strict majority of the recorded
    lengths is finite).
    """
    series = sorted(np.asarray(values, dtype=float).ravel().tolist())
    if not series:
        raise ValueError("median of an empty sequence is undefined")
    return _middle(series, len(series))


def _running_medians(values: np.ndarray) -> np.ndarray:
    out = np.empty(values.size, dtype=float)
    ordered: list[float] = []
    for step, value in enumerate(values.tolist()):
        insort(ordered, value)
        out[step] = _middle(ordered, step + 1)
    return out


def fisher_verify(responses, batch_size: int, epsilon: float, mode: str = "isolated") -> np.ndarray:
    """Error bits of classical batch t-intervals on a location-only stream.

    The stream is cut into blocks of ``batch_size`` + 1 responses; in each
    block the last response is predicted by the two-sided t-interval
    mean +/- t * s * sqrt(1 + 1/l) at level ``epsilon``.  In the isolated
    mode the training set is the block's own first ``batch_size`` responses;
    in the cumulative mode it is every response before the test one.  A zero
    sample spread collapses the interval to the training mean.
    """
    y = np.asarray(responses, dtype=float).ravel()
    if batch_size < 2:
        raise ValueError("batch_size must be at least 2")
    if mode not in ("isolated", "cumulative"):
        raise ValueError(f"unknown mode: {mode!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    block = batch_size + 1
    count = y.size // block
    errors = np.zeros(count, dtype=np.uint8)
    for m in range(1, count + 1):
        test = y[m * block - 1]
        if mode == "isolated":
            train = y[(m - 1) * block : m * block - 1]
        else:
            train = y[: m * block - 1]
        size = train.size
        mean = float(train.mean())
        spread = float(train.std(ddof=1))
        if spread == 0.0:
            errors[m - 1] = 0 if test == mean else 1
            continue
        half = two_sided_quantiles(size - 1, (epsilon,))[0] * spread * sqrt((size + 1) / size)
        errors[m - 1] = 0 if abs(test - mean) <= half else 1
    return errors


def binomial_band(count: int, epsilon: float, confidence: float = 0.99) -> tuple[int, int]:
    """Central binomial acceptance band for the number of errors in a run."""
    if count < 1:
        raise ValueError("count must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    from scipy import stats  # slow to import, and only the diagnostics need it

    tail = (1.0 - confidence) / 2.0
    low = int(stats.binom.ppf(tail, count, epsilon))
    high = int(stats.binom.ppf(1.0 - tail, count, epsilon))
    return low, high


def _lag_one_autocorrelation(bits: np.ndarray) -> float | None:
    if bits.size < 2:
        return None
    series = bits.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        value = np.corrcoef(series[:-1], series[1:])[0, 1]
    return float(value) if np.isfinite(value) else None


def validity_report(
    ledger: OnlineLedger,
    trace: PValueTrace | None = None,
    confidence: float = 0.99,
) -> dict:
    """Summarize how well a ledger conforms to its promised error rates.

    Per level: the error count and frequency, the central binomial band the
    count should fall into, whether it does, whether the run was strictly
    conservative (count below the band), and the lag-one autocorrelation of
    the error bits (None when they never vary).  When a p-value trace is
    given (or stored in the ledger), the report adds the Kolmogorov-Smirnov
    statistic and p-value of the realized p-values against the uniform law.
    """
    steps = ledger.step_count
    report: dict = {"steps": steps, "smoothed": ledger.smoothed, "levels": []}
    for j, epsilon in enumerate(ledger.levels):
        bits = ledger.errors[j]
        count = int(bits.sum())
        low, high = binomial_band(steps, epsilon, confidence)
        report["levels"].append(
            {
                "epsilon": epsilon,
                "error_count": count,
                "error_frequency": count / steps,
                "band_low": low,
                "band_high": high,
                "within_band": low <= count <= high,
                "conservative": count < low,
                "lag1_autocorrelation": _lag_one_autocorrelation(bits),
            }
        )
    trace = trace if trace is not None else ledger.trace
    if trace is not None:
        statistic, pvalue = trace.ks_uniform()
        report["pvalue_ks_statistic"] = statistic
        report["pvalue_ks_pvalue"] = pvalue
    else:
        report["pvalue_ks_statistic"] = None
        report["pvalue_ks_pvalue"] = None
    return report
