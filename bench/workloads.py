"""Workload definitions: the input files each workload writes and the CLI
commands one round of it runs.

Every workload runs all four models, so that every end-to-end metric (one
per model and command kind) and every per-layer metric is measured on every
workload.  What differs is which commands carry the weight:

* ``paper-online``: the paper's experiment.  ``olreg online`` for iid, mva
  and gauss on the ``gen`` default stream (600 rows, K = 100, ``auto``
  schedule, ridge 0.01), deterministic and smoothed, each followed by
  ``olreg report``.  Every step rebuilds the Gram matrix and its factor, or
  a least-squares fit, from a growing history.
* ``batch-predict``: ``olreg predict`` for iid, mva and gauss at the predict
  defaults (ridge 0, no schedule) from a 600 x 100 training file for 200
  test rows.  The history is fixed, so each row repeats history-only work,
  including the ridge-0 rank check.
* ``iidgauss-mc``: ``olreg online --model iidgauss`` on a 120 x 5 stream,
  deterministic and smoothed, and ``olreg predict --model iidgauss`` from a
  300 x 100 training file for 3 rows.  Monte-Carlo conditioning dominates
  and memory peaks near 0.6 GB.

The remaining commands of each workload are small (a few test rows, a short
or narrow stream) and repeated within a round (``reps``), so that their
medians are steady.  Sizes scale down for the self-test, which runs every
command once per round.
"""

from __future__ import annotations

from dataclasses import dataclass

MODELS = ("iid", "mva", "gauss", "iidgauss")
PREDICT_LEVELS = (0.05, 0.01)
ONLINE_RIDGE = 0.01
MC_SAMPLES = 999


@dataclass(frozen=True)
class DataFile:
    """An input file: ``gen`` output (features plus response) or test features."""

    name: str
    rows: int
    features: int
    responses: bool = True


@dataclass(frozen=True)
class OnlineRun:
    """``olreg online`` deterministic and smoothed, each followed by ``report``."""

    model: str
    data: str
    reps: int = 1


@dataclass(frozen=True)
class PredictRun:
    model: str
    train: str
    test: str
    reps: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    files: tuple[DataFile, ...]
    online: tuple[OnlineRun, ...]
    predict: tuple[PredictRun, ...]
    # Checked with independent references: on-line steps per ledger (beyond
    # the fixed ones) and test rows per prediction file.
    sampled_steps: int = 4
    sampled_rows: int = 3


def _workloads(tiny: bool) -> dict[str, Workload]:
    def size(full: int, small: int) -> int:
        return small if tiny else full

    def reps(count: int) -> int:
        return 1 if tiny else count

    k_wide = size(100, 4)
    paper = DataFile("paper", size(600, 40), k_wide)
    query = DataFile("query", size(5, 3), k_wide, responses=False)
    narrow = DataFile("narrow", size(20, 16), size(3, 2))
    narrow_query = DataFile("narrow_query", size(10, 3), narrow.features, responses=False)
    short = DataFile("short", size(120, 24), k_wide)
    tests = DataFile("tests", size(200, 6), k_wide, responses=False)
    stream = DataFile("stream", size(120, 24), size(5, 2))
    long_stream = DataFile("long_stream", size(400, 24), size(5, 2))
    train300 = DataFile("train300", size(300, 30), k_wide)
    rows = DataFile("rows", 3, k_wide, responses=False)
    many_rows = DataFile("many_rows", size(30, 3), k_wide, responses=False)
    out = [
        Workload(
            "paper-online",
            (paper, query, narrow, narrow_query),
            (
                OnlineRun("iid", "paper"),
                OnlineRun("mva", "paper", reps(2)),
                OnlineRun("gauss", "paper"),
                OnlineRun("iidgauss", "narrow", reps(3)),
            ),
            (
                PredictRun("iid", "paper", "query", reps(3)),
                PredictRun("mva", "paper", "query", reps(3)),
                PredictRun("gauss", "paper", "query", reps(3)),
                PredictRun("iidgauss", "narrow", "narrow_query", reps(3)),
            ),
        ),
        Workload(
            "batch-predict",
            (paper, tests, short, narrow, narrow_query),
            (
                OnlineRun("iid", "short", reps(3)),
                OnlineRun("mva", "short", reps(3)),
                OnlineRun("gauss", "short", reps(3)),
                OnlineRun("iidgauss", "narrow", reps(4)),
            ),
            (
                PredictRun("iid", "paper", "tests"),
                PredictRun("mva", "paper", "tests"),
                PredictRun("gauss", "paper", "tests"),
                PredictRun("iidgauss", "narrow", "narrow_query", reps(6)),
            ),
        ),
        Workload(
            "iidgauss-mc",
            (stream, train300, rows, long_stream, many_rows),
            (
                OnlineRun("iid", "long_stream", reps(2)),
                OnlineRun("mva", "long_stream", reps(2)),
                OnlineRun("gauss", "long_stream", reps(2)),
                OnlineRun("iidgauss", "stream"),
            ),
            (
                PredictRun("iid", "train300", "many_rows", reps(2)),
                PredictRun("mva", "train300", "many_rows", reps(2)),
                PredictRun("gauss", "train300", "many_rows", reps(2)),
                PredictRun("iidgauss", "train300", "rows"),
            ),
            sampled_steps=2,
            sampled_rows=2,
        ),
    ]
    return {workload.name: workload for workload in out}


WORKLOADS = _workloads(tiny=False)
TINY_WORKLOADS = _workloads(tiny=True)


def online_metric(model: str, smoothed: bool) -> str:
    return f"online_{model}{'_smoothed' if smoothed else ''}_s"


def predict_metric(model: str) -> str:
    return f"predict_{model}_s"


TIMED_METRICS = tuple(
    name
    for model in MODELS
    for name in (online_metric(model, False), online_metric(model, True))
) + tuple(predict_metric(model) for model in MODELS)
