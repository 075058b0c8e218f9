"""Command-line surface: data generation, batch prediction, on-line runs.

Four subcommands:

* ``gen`` writes a synthetic training file (features plus response column).
* ``predict`` reads a training file and a test file and writes per-level
  lower/upper bound matrices, one row per test point, in the batch style:
  every test point is predicted from the full training set as history.
* ``online`` replays a training file through the on-line protocol and writes
  the cumulative-error and median-length series plus a JSON ledger.
* ``report`` turns a saved ledger into validity diagnostics JSON.

Exit status: 0 on success.  ``predict`` exits with its termination code
(1 = the training and test files disagree on the number of explanatory
variables, in which case no bounds are written; 2 = too few training
observations for any requested level, in which case the bounds are written
as full lines).  File problems exit 10, rank-deficient designs exit 11, and
malformed flags exit 2 via the argument parser (same number as termination
code 2, but distinguishable by the absence of output files and by the usage
message on stderr).

Infinite bounds are written as "inf"/"-inf"; an empty prediction interval
appears as lower = inf, upper = -inf, the only case where lower > upper.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from math import inf

import numpy as np

from .base import (
    EpsilonLadder,
    FeatureSchedule,
    History,
    MatrixParseError,
    RankDeficiencyError,
    validate_levels,
    validate_ridge,
)
from .data import (
    SyntheticConfig,
    emit_series,
    gen_synthetic,
    load_matrix,
    observations_from_arrays,
    observations_to_arrays,
    save_matrix,
)
from .predictors import (
    FullLinePredictor,
    GaussPredictor,
    IidGaussPredictor,
    IidPredictor,
    MonteCarloConfig,
    MvaPredictor,
)
from .protocol import DEFAULT_SEED, OnlineLedger, run_online, validity_report

BATCH_MODELS = ("iid", "gauss", "mva", "iidgauss")
ONLINE_MODELS = BATCH_MODELS + ("full",)


@dataclass(frozen=True)
class BatchResult:
    """Per-level bound matrices plus the termination code of a batch call.

    ``lower`` and ``upper`` have one row per test point and one column per
    significance level in ladder (decreasing) order.  Codes: 0 normal;
    1 mismatched explanatory counts (bounds are empty 0x0 matrices);
    2 too few training observations for every requested level (bounds are
    full lines).
    """

    lower: np.ndarray
    upper: np.ndarray
    code: int


def _parse_schedule(text: str, feature_count: int) -> FeatureSchedule | None:
    """Resolve a schedule flag: "none", "auto", or "early:switch[:full]".
    With no features "auto" has nothing to stage and is "none"."""
    if text == "none" or (text == "auto" and feature_count == 0):
        return None
    if text == "auto":
        return FeatureSchedule.for_feature_count(feature_count)
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"schedule must be 'none', 'auto', or 'early:switch[:full]', got {text!r}"
        )
    try:
        numbers = [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"schedule components must be integers, got {text!r}") from None
    full = numbers[2] if len(numbers) == 3 else feature_count
    return FeatureSchedule(numbers[0], numbers[1], full)


def _make_predictor(model: str, ridge: float, schedule, mc: MonteCarloConfig):
    # gauss and full take no ridge, but an invalid one is a usage error for
    # every model
    validate_ridge(ridge)
    if model == "iid":
        return IidPredictor(ridge=ridge, schedule=schedule)
    if model == "gauss":
        return GaussPredictor()
    if model == "mva":
        return MvaPredictor(ridge=ridge, schedule=schedule)
    if model == "iidgauss":
        return IidGaussPredictor(ridge=ridge, schedule=schedule, mc=mc)
    if model == "full":
        return FullLinePredictor()
    raise ValueError(f"unknown model {model!r}")


def batch_predict(
    train_features,
    train_responses,
    test_features,
    levels,
    model: str = "iid",
    ridge: float = 0.0,
    schedule: FeatureSchedule | None = None,
    mc: MonteCarloConfig | None = None,
) -> BatchResult:
    """Predict each test point from the full training set as its history.

    Every test row is a prediction step after the same history, the whole
    training set, so n = N_train + 1 throughout, and no test row sees
    another.  Each model's ``predict_rows`` gives the bounds, one step per
    block of test rows: IID, Gauss and MVA take blocks of
    ``predictors.BLOCK_ROWS``, with the history's coefficients solved once
    and one many-column triangular solve, and IID-Gauss blocks of one row.
    Level columns follow the ladder (decreasing) order.  Code 2 is
    returned where the predictor's own onset rule (``can_bound``) says that
    no level can be bounded at that n: for IID with ridge 0, also while
    n <= active + 1, where the fit interpolates and every interval would be
    the whole line.
    """
    if model not in BATCH_MODELS:
        raise ValueError(f"unknown batch model {model!r}")
    levels = validate_levels(levels)
    train_features = np.asarray(train_features, dtype=float)
    test_features = np.asarray(test_features, dtype=float)
    if train_features.ndim != 2 or test_features.ndim != 2:
        raise ValueError("feature matrices must be two-dimensional")
    if train_features.shape[1] != test_features.shape[1] or train_features.shape[0] == 0:
        return BatchResult(np.empty((0, 0)), np.empty((0, 0)), 1)

    n, feature_count = train_features.shape[0] + 1, train_features.shape[1]
    predictor = _make_predictor(model, ridge, schedule, mc or MonteCarloConfig())
    if not predictor.can_bound(n, feature_count, levels):
        full = np.full((test_features.shape[0], len(levels)), inf)
        return BatchResult(-full, full, 2)
    history = History.from_arrays(train_features, train_responses)
    return BatchResult(*predictor.predict_rows(history, test_features, levels), 0)


def _split_train_matrix(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if matrix.ndim != 2 or matrix.shape[1] < 1 or matrix.shape[0] < 1:
        raise MatrixParseError("training file needs data rows with a response column", 1)
    return matrix[:, :-1], matrix[:, -1]


def cmd_gen(args) -> int:
    config = SyntheticConfig(
        seed=args.seed, observation_count=args.n, feature_count=args.k
    )
    header = [f"x{j + 1}" for j in range(args.k)] + ["y"]
    if args.n == 0:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
        return 0
    features, responses = observations_to_arrays(gen_synthetic(config))
    save_matrix(np.column_stack([features, responses]), args.out, header=header)
    return 0


def cmd_predict(args) -> int:
    levels = EpsilonLadder.parse(args.epsilons)
    train = load_matrix(args.train)
    test = load_matrix(args.test)
    features, responses = _split_train_matrix(train)
    if test.ndim != 2:
        raise MatrixParseError("test file must be a matrix", 1)
    if test.size == 0:
        test = test.reshape(0, features.shape[1])
    schedule = _parse_schedule(args.schedule, features.shape[1])
    result = batch_predict(
        features,
        responses,
        test,
        levels,
        model=args.model,
        ridge=args.ridge,
        schedule=schedule,
        mc=MonteCarloConfig(samples=args.mc_samples, seed=args.seed),
    )
    if result.code != 1:
        header = [f"level_{epsilon:g}" for epsilon in levels]
        save_matrix(result.lower, f"{args.out}_lower.csv", header=header)
        save_matrix(result.upper, f"{args.out}_upper.csv", header=header)
    print(f"code {result.code}")
    return result.code


def cmd_online(args) -> int:
    levels = EpsilonLadder.parse(args.epsilons)
    features, responses = _split_train_matrix(load_matrix(args.data))
    schedule = _parse_schedule(args.schedule, features.shape[1])
    predictor = _make_predictor(
        args.model,
        args.ridge,
        schedule,
        MonteCarloConfig(samples=args.mc_samples, seed=args.seed),
    )
    ledger = run_online(
        predictor,
        observations_from_arrays(features, responses),
        levels,
        smoothed=args.smoothed,
        seed=args.seed,
    )
    emit_series(ledger, "cumulative_errors", f"{args.out_prefix}_cumulative_errors.csv")
    emit_series(ledger, "median_accuracy", f"{args.out_prefix}_median_accuracy.csv")
    with open(f"{args.out_prefix}_ledger.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(ledger.to_dict()) + "\n")
    return 0


def cmd_report(args) -> int:
    with open(args.ledger, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        ledger = OnlineLedger.from_dict(payload)
    except ValueError as exc:
        # a malformed ledger is a file problem, not a usage error
        print(f"error: {args.ledger}: {exc}", file=sys.stderr)
        return 10
    report = validity_report(ledger)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olreg",
        description="Prediction intervals for on-line linear regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic training file")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--n", type=int, default=600, help="observation count")
    gen.add_argument("--k", type=int, default=100, help="feature count")
    gen.add_argument("--out", required=True, help="output file path")
    gen.set_defaults(func=cmd_gen)

    predict = sub.add_parser("predict", help="batch prediction from a training file")
    predict.add_argument("--model", choices=BATCH_MODELS, required=True)
    predict.add_argument("--train", required=True, help="training matrix, response last")
    predict.add_argument("--test", required=True, help="test feature matrix")
    predict.add_argument("--epsilons", default="0.05,0.01")
    predict.add_argument("--ridge", type=float, default=0.0)
    predict.add_argument("--schedule", default="none", help="none | auto | early:switch[:full]")
    predict.add_argument("--mc-samples", type=int, default=999)
    predict.add_argument("--seed", type=int, default=DEFAULT_SEED)
    predict.add_argument("--out", required=True, help="output path prefix")
    predict.set_defaults(func=cmd_predict)

    online = sub.add_parser("online", help="replay a file through the on-line protocol")
    online.add_argument("--model", choices=ONLINE_MODELS, required=True)
    online.add_argument("--data", required=True, help="data matrix, response last")
    online.add_argument("--epsilons", default="0.05,0.01,0.005")
    online.add_argument("--ridge", type=float, default=0.01)
    online.add_argument("--schedule", default="auto", help="none | auto | early:switch[:full]")
    online.add_argument("--mc-samples", type=int, default=999)
    online.add_argument("--smoothed", action="store_true")
    online.add_argument("--seed", type=int, default=DEFAULT_SEED)
    online.add_argument("--out-prefix", required=True)
    online.set_defaults(func=cmd_online)

    report = sub.add_parser("report", help="validity diagnostics from a saved ledger")
    report.add_argument("--ledger", required=True, help="ledger JSON path")
    report.add_argument("--out", required=True, help="report JSON path")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MatrixParseError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 10
    except RankDeficiencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 11
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
