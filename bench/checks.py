"""Checks of the program's output files against independent references.

Inputs and outputs are read back with numpy's own text parser, never with
``olreg.data``.  Every failed expectation is recorded as one line in
``Checker.problems``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf, isinf
from pathlib import Path

import numpy as np

import reference as ref
from workloads import MC_SAMPLES, ONLINE_RIDGE, PREDICT_LEVELS

# Upper-tail probability at which a statistical check fails on valid output.
# A run makes a few dozen such checks and the benchmark is run on many seeds,
# so a false alarm must be far rarer than one in a thousand runs.
TAIL = 1e-6
# Endpoint and length agreement, relative to the reference interval's width.
WIDTH_TOLERANCE = 1e-6
# Independent Monte-Carlo draws per IID-Gauss step checked.
MC_DRAWS = 4000


def read_matrix(path) -> np.ndarray:
    """Comma-separated numbers below one header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def interval_length(lower: float, upper: float) -> float:
    if lower > upper:
        return 0.0
    return upper - lower


@dataclass
class Checker:
    problems: list[str] = field(default_factory=list)
    checks: int = 0

    def expect(self, condition, message: str) -> bool:
        self.checks += 1
        if not condition:
            self.problems.append(message)
        return bool(condition)

    def close(self, mine: float, reference: float, width: float, what: str) -> bool:
        """Equal infinities, or finite values within a share of the width."""
        if isinf(mine) or isinf(reference):
            return self.expect(mine == reference, f"{what}: {mine!r} vs reference {reference!r}")
        scale = width if np.isfinite(width) and width > 0.0 else 1.0 + abs(reference)
        return self.expect(
            abs(mine - reference) <= WIDTH_TOLERANCE * scale,
            f"{what}: {mine!r} vs reference {reference!r} (width {width:.6g})",
        )


@dataclass(frozen=True)
class Stream:
    """An input file as the benchmark parsed it."""

    features: np.ndarray
    responses: np.ndarray | None

    @classmethod
    def load(cls, path, responses: bool) -> "Stream":
        matrix = read_matrix(path)
        if responses:
            return cls(matrix[:, :-1], matrix[:, -1])
        return cls(matrix, None)


def step_reference(model: str, data: Stream, step: int, epsilon: float):
    """The interval the on-line protocol should commit to at step n = ``step``."""
    features, responses = data.features, data.responses
    k = features.shape[1]
    if model == "gauss":
        return ref.pivot_interval(
            features[: step - 1], responses[: step - 1], features[step - 1], epsilon
        )
    if model == "iid" and step == 1 or model == "mva" and step < 3:
        return -inf, inf
    offset, slope = ref.affine_residuals(
        features[:step], responses[: step - 1], ONLINE_RIDGE, ref.auto_active(step, k)
    )
    if model == "iid":
        return ref.rank_hull(offset, slope, epsilon)
    return ref.centered_hull(offset, slope, epsilon)


def step_pvalue(model: str, data: Stream, step: int, tie_break: float) -> float:
    features, responses = data.features, data.responses
    k = features.shape[1]
    if model == "gauss":
        return ref.pivot_pvalue(
            features[: step - 1], responses[: step - 1], features[step - 1], responses[step - 1]
        )
    if model == "iid" and step == 1:
        return tie_break
    if model == "mva" and step < 3:
        return 1.0
    offset, slope = ref.affine_residuals(
        features[:step], responses[: step - 1], ONLINE_RIDGE, ref.auto_active(step, k)
    )
    if model == "iid":
        return ref.rank_pvalue(offset, slope, responses[step - 1], tie_break)
    return ref.centered_pvalue(offset, slope, responses[step - 1])


def sampled_steps(step_count: int, feature_count: int, extra: int, rng, tiny: bool):
    """Fixed steps around the schedule switch and the end, plus random ones."""
    if tiny:
        return list(range(1, step_count + 1))
    fixed = {2, feature_count + 2, feature_count + 3, step_count}
    fixed.update(int(s) for s in rng.integers(3, step_count + 1, size=extra))
    return sorted(s for s in fixed if 1 <= s <= step_count)


def check_bit(checker, bit: int, lower: float, upper: float, response: float, what: str):
    """The recorded error bit against the reference interval, away from its ends."""
    if lower > upper:
        return checker.expect(bit == 1, f"{what}: error bit {bit} but the interval is empty")
    width = upper - lower
    margin = 1e-9 * (width if np.isfinite(width) else 1.0 + abs(response))
    if abs(response - lower) <= margin or abs(response - upper) <= margin:
        return True
    inside = lower <= response <= upper
    return checker.expect(
        bit == (0 if inside else 1), f"{what}: error bit {bit}, response inside={inside}"
    )


def check_series(checker, ledger: dict, prefix: str, what: str):
    errors = np.asarray(ledger["errors"], dtype=int)
    lengths = np.array([[float(v) for v in row] for row in ledger["lengths"]])
    cumulative = read_matrix(f"{prefix}_cumulative_errors.csv")
    checker.expect(
        cumulative.shape == (errors.shape[1], errors.shape[0] + 1)
        and np.array_equal(cumulative[:, 1:].T, np.cumsum(errors, axis=1)),
        f"{what}: cumulative error series does not add up the ledger's error bits",
    )
    medians = read_matrix(f"{prefix}_median_accuracy.csv")
    expected = np.vstack([ref.running_medians(row) for row in lengths])
    checker.expect(
        medians.shape == cumulative.shape
        and np.allclose(medians[:, 1:].T, expected, rtol=1e-12, atol=0.0),
        f"{what}: median accuracy series differs from the running medians of the lengths",
    )


def check_report(checker, ledger: dict, report: dict, what: str):
    errors = np.asarray(ledger["errors"], dtype=int)
    checker.expect(report["steps"] == errors.shape[1], f"{what}: report step count")
    counts = [level["error_count"] for level in report["levels"]]
    checker.expect(
        counts == errors.sum(axis=1).tolist(), f"{what}: report error counts {counts}"
    )
    if ledger["smoothed"]:
        checker.expect(
            report["pvalue_ks_pvalue"] is not None, f"{what}: smoothed report lacks the KS test"
        )


def check_online(checker, model: str, data: Stream, prefix: str, smoothed: bool,
                 deterministic: dict | None, steps: list[int], rng, predict_step=None):
    """Ledger, series and report of one ``olreg online`` command.

    ``deterministic`` is the ledger of the deterministic run on the same data
    (for a smoothed run).  ``predict_step(step, levels)`` returns the
    endpoints an IID-Gauss run committed to at a step, which its checks need
    and the ledger does not record.
    """
    what = f"online {model}{' smoothed' if smoothed else ''}"
    ledger = read_json(f"{prefix}_ledger.json")
    levels = [float(e) for e in ledger["levels"]]
    errors = np.asarray(ledger["errors"], dtype=int)
    lengths = np.array([[float(v) for v in row] for row in ledger["lengths"]])
    step_count = data.features.shape[0]
    if not checker.expect(
        errors.shape == lengths.shape == (len(levels), step_count)
        and ledger["smoothed"] == smoothed,
        f"{what}: ledger shape {errors.shape} for {step_count} steps",
    ):
        return ledger
    check_series(checker, ledger, prefix, what)
    check_report(checker, ledger, read_json(f"{prefix}_report.json"), what)

    if smoothed:
        pvalues = np.asarray(ledger["pvalues"], dtype=float)
        ties = np.asarray(ledger["tie_breaks"], dtype=float)
        checker.expect(
            np.array_equal(errors, (pvalues[None, :] <= np.asarray(levels)[:, None]).astype(int)),
            f"{what}: error bits are not the p-values at or below each level",
        )
        checker.expect(
            np.array_equal(lengths, np.array(
                [[float(v) for v in row] for row in deterministic["lengths"]])),
            f"{what}: interval lengths differ from the deterministic run's",
        )
        if model == "iid":
            ks = ref.ks_uniform_pvalue(pvalues)
            checker.expect(
                ks >= TAIL, f"{what}: p-values fail the KS uniformity test (p = {ks:.3g})"
            )
        if model != "iidgauss":
            for step in steps:
                expected = step_pvalue(model, data, step, ties[step - 1])
                checker.expect(
                    abs(pvalues[step - 1] - expected) <= 1e-9,
                    f"{what} step {step}: p-value {pvalues[step - 1]!r} vs reference {expected!r}",
                )
        return ledger

    for j, epsilon in enumerate(levels):
        upper = ref.binomial_upper(step_count, epsilon, TAIL)
        checker.expect(
            errors[j].sum() <= upper,
            f"{what} level {epsilon}: {errors[j].sum()} errors exceed the binomial bound {upper}",
        )
    for step in steps:
        if model == "iidgauss":
            check_iidgauss_step(checker, data, step, levels, lengths[:, step - 1],
                                errors[:, step - 1], predict_step, rng, f"{what} step {step}")
            continue
        for j, epsilon in enumerate(levels):
            lower, upper = step_reference(model, data, step, epsilon)
            width = interval_length(lower, upper)
            checker.close(lengths[j, step - 1], width, width,
                          f"{what} step {step} level {epsilon} length")
            check_bit(checker, errors[j, step - 1], lower, upper, data.responses[step - 1],
                      f"{what} step {step} level {epsilon}")
    return ledger


def check_online_pair(checker, model: str, data: Stream, prefix, steps, rng, predict_step):
    """The deterministic and the smoothed ledger of one model on one stream."""
    deterministic = check_online(checker, model, data, f"{prefix}_det", False, None, steps,
                                 rng, predict_step)
    check_online(checker, model, data, f"{prefix}_smoothed", True, deterministic, steps, rng,
                 predict_step)


def check_iidgauss_endpoints(checker, features, head_responses, ridge, active, levels,
                             lower, upper, rng, what: str):
    """Independent Monte-Carlo p-value at each finite endpoint, against epsilon."""
    law = ref.ConditionalLaw(features, ridge, active, MC_DRAWS, rng)
    for epsilon, low, high in zip(levels, lower, upper):
        if low > high:
            continue
        for endpoint in (low, high):
            if isinf(endpoint):
                continue
            count = law.exceedances(np.append(head_responses, endpoint))
            band = ref.endpoint_band(epsilon, MC_SAMPLES, MC_DRAWS, TAIL)
            checker.expect(
                band[0] <= count <= band[1],
                f"{what} level {epsilon} endpoint {endpoint:.6g}: p-value estimate "
                f"{count}/{MC_DRAWS} outside the band {band} around epsilon",
            )


def check_iidgauss_step(checker, data: Stream, step: int, levels, lengths, bits,
                        predict_step, rng, what):
    """Endpoints of one on-line IID-Gauss step, recovered with ``olreg predict``."""
    lower, upper = predict_step(step, levels)
    for j, epsilon in enumerate(levels):
        checker.expect(
            interval_length(lower[j], upper[j]) == lengths[j],
            f"{what} level {epsilon}: ledger length {lengths[j]!r} but the step's interval "
            f"is [{lower[j]!r}, {upper[j]!r}]",
        )
        check_bit(checker, bits[j], lower[j], upper[j], data.responses[step - 1],
                  f"{what} level {epsilon}")
    k = data.features.shape[1]
    check_iidgauss_endpoints(
        checker, data.features[:step], data.responses[: step - 1], ONLINE_RIDGE,
        ref.auto_active(step, k), levels, lower, upper, rng, what,
    )


def check_predict(checker, model: str, train: Stream, test: Stream, prefix: str,
                  rows: list[int], rng, stdout: str):
    what = f"predict {model}"
    checker.expect(stdout.strip() == "code 0", f"{what}: printed {stdout.strip()!r}")
    lower = read_matrix(f"{prefix}_lower.csv")
    upper = read_matrix(f"{prefix}_upper.csv")
    shape = (test.features.shape[0], len(PREDICT_LEVELS))
    if not checker.expect(lower.shape == upper.shape == shape,
                          f"{what}: bound matrices {lower.shape}, {upper.shape}, expected {shape}"):
        return
    for j in range(len(PREDICT_LEVELS) - 1):
        tight_empty = lower[:, j] > upper[:, j]
        nested = tight_empty | ((lower[:, j + 1] <= lower[:, j]) & (upper[:, j + 1] >= upper[:, j]))
        checker.expect(nested.all(), f"{what}: intervals not nested across levels in rows "
                       f"{np.flatnonzero(~nested).tolist()[:5]}")
    k = train.features.shape[1]
    for row in rows:
        x_new = test.features[row]
        if model == "iidgauss":
            check_iidgauss_endpoints(
                checker, np.vstack([train.features, x_new]), train.responses, 0.0, k,
                PREDICT_LEVELS, lower[row], upper[row], rng, f"{what} row {row}",
            )
            continue
        if model != "gauss":
            offset, slope = ref.affine_residuals(
                np.vstack([train.features, x_new]), train.responses, 0.0, k
            )
            hull = ref.rank_hull if model == "iid" else ref.centered_hull
        for j, epsilon in enumerate(PREDICT_LEVELS):
            if model == "gauss":
                expected = ref.pivot_interval(train.features, train.responses, x_new, epsilon)
            else:
                expected = hull(offset, slope, epsilon)
            width = interval_length(*expected)
            for side, mine, theirs in (("lower", lower[row, j], expected[0]),
                                       ("upper", upper[row, j], expected[1])):
                checker.close(mine, theirs, width, f"{what} row {row} level {epsilon} {side}")


def sampled_rows(row_count: int, count: int, rng, tiny: bool) -> list[int]:
    if tiny:
        return list(range(row_count))
    return sorted(rng.choice(row_count, size=min(count, row_count), replace=False).tolist())


def copy_rows(source: Path, target: Path, rows: int, drop_last_column: bool = False,
              skip: int = 0):
    """Copy data lines verbatim (so values round-trip exactly) below the header."""
    lines = source.read_text(encoding="utf-8").splitlines()
    header, body = lines[0], lines[1 + skip : 1 + skip + rows]
    if drop_last_column:
        header = header.rsplit(",", 1)[0]
        body = [line.rsplit(",", 1)[0] for line in body]
    target.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
