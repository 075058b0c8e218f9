"""Self-test of the benchmark on tiny inputs; finishes in seconds.

    python3 bench/selftest.py

Runs every workload at toy sizes, where every on-line step and every test
row is checked against the references, and requires all checks to pass.
A traced run of each workload must report every per-layer metric, each
above zero.
Then it corrupts kept outputs in three ways and requires the checks to catch
each: a rank-predictor interval shifted by a tenth of its width, a
Monte-Carlo interval shifted by a quarter of its width, and a dropped error
bit in a deterministic ledger.  The Monte-Carlo check can only see shifts
that move the p-value at an endpoint beyond the program's own sampling
noise (about 0.035 around epsilon = 0.05 with 999 samples), hence the larger
shift.  Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import run
from workloads import TINY_WORKLOADS

SEED = 5


def shift_interval(prefix, share: float) -> str:
    """Move the first bounded interval of a prediction file by a share of its width."""
    lower_path, upper_path = f"{prefix}_lower.csv", f"{prefix}_upper.csv"
    lower = np.loadtxt(lower_path, delimiter=",", skiprows=1, ndmin=2)
    upper = np.loadtxt(upper_path, delimiter=",", skiprows=1, ndmin=2)
    rows, levels = np.nonzero(np.isfinite(lower) & np.isfinite(upper) & (lower < upper))
    row, level = rows[0], levels[0]
    delta = share * (upper[row, level] - lower[row, level])
    lower[row, level] += delta
    upper[row, level] += delta
    header = open(lower_path, encoding="utf-8").readline().strip()
    for path, matrix in ((lower_path, lower), (upper_path, upper)):
        np.savetxt(path, matrix, delimiter=",", header=header, comments="", fmt="%.17g")
    return f"row {row} level"


def drop_error_bit(prefix) -> str:
    path = f"{prefix}_ledger.json"
    with open(path, encoding="utf-8") as handle:
        ledger = json.load(handle)
    errors = np.asarray(ledger["errors"])
    level, step = np.argwhere(errors == 1)[0]
    ledger["errors"][level][step] = 0
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle)
    return f"step {step + 1} level"


def checks_after(workload_name: str, work, corrupt) -> list[str]:
    """Run a tiny workload, corrupt one kept output, and re-run the checks."""
    shutil.rmtree(work, ignore_errors=True)
    record = run.measure(workload_name, SEED, 0.0, False, tiny=True, keep=work)
    if not record["correct"] or record["problems"]:
        return ["uncorrupted run failed: " + "; ".join(record["problems"][:3])]
    where = corrupt(work)
    workload = TINY_WORKLOADS[workload_name]
    stdouts = {f"predict {r.model} {r.train} {r.test}": "code 0\n" for r in workload.predict}
    checker = run.run_checks(run.Program(), workload, work / f"inputs{run.SETUP_REPEATS - 1}",
                             work, run.derive_seeds(workload, SEED), True, stdouts)
    caught = [problem for problem in checker.problems if where in problem]
    return [] if caught else [f"corruption at {where} not caught: {checker.problems[:3]}"]


def main() -> int:
    run.cap_blas_threads()
    run.import_program()
    import tracing

    failures = []
    for name in TINY_WORKLOADS:
        record = run.measure(name, SEED, 0.0, False, tiny=True)
        status = "ok" if record["correct"] and not record["failed"] else "FAILED"
        print(f"{name}: {status}, {record['attempted']} commands, {record['checks']} checks")
        if status != "ok":
            failures.append(f"{name}: {record['problems'][:3]}")
        metrics = run.measure(name, SEED, 0.0, True, tiny=True)["metrics"]
        missing = [m for m in tracing.PER_LAYER
                   if m != "trace.overhead_s" and not metrics.get(m, {}).get("value", 0) > 0]
        print(f"{name} traced: {len(metrics)} per-layer metrics, {len(missing)} missing or zero")
        if missing or set(metrics) != set(tracing.PER_LAYER):
            failures.append(f"{name} traced: missing or zero {missing}")
    work = run.OUT / "selftest"
    corruptions = (
        ("shifted rank interval", "batch-predict",
         lambda w: shift_interval(w / "predict_iid_paper_tests", 0.1)),
        ("shifted Monte-Carlo interval", "iidgauss-mc",
         lambda w: shift_interval(w / "predict_iidgauss_train300_rows", 0.25)),
        ("dropped error bit", "paper-online",
         lambda w: drop_error_bit(w / "online_mva_paper_det")),
    )
    try:
        for label, workload_name, corrupt in corruptions:
            missed = checks_after(workload_name, work, corrupt)
            print(f"{label}: {'caught' if not missed else 'MISSED'}")
            failures += missed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
