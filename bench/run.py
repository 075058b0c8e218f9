"""Benchmark of the olreg command line, run in-process through ``olreg.cli.main``.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload paper-online --seed 1 --seconds 40 --trace 0

One run writes its workload's input files from ``--seed`` (the set-up, timed
and repeated), then runs whole rounds of the workload's CLI commands until
``--seconds`` would be exceeded (at least one round), then checks every
output against independent references.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones: the mean wall time
of each command kind and model, the peak resident memory of the process and
the set-up time.  With ``--trace 1`` untraced and traced rounds alternate,
and the metrics are the per-layer ones, the traced round time and the
tracing overhead (traced minus untraced round time).  The full record goes
to ``bench/out/BENCH_<workload>.json`` (``BENCH_<workload>_trace.json`` and
``trace_<workload>.csv`` when traced).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    TIMED_METRICS,
    TINY_WORKLOADS,
    WORKLOADS,
    online_metric,
    predict_metric,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def cap_blas_threads():
    """Run BLAS and OpenMP on one thread.

    On the 2-CPU reference machine two OpenBLAS threads made the paper
    workload's Gauss run slower (3.2 s against 1.8 s) and every timing
    noisier, since any other process stalls one of the two threads.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"


def import_program():
    """Import ``olreg`` from this checkout's ``src`` and time the import."""
    source = ROOT / "src"
    if not (source / "olreg" / "cli.py").is_file():
        raise SystemExit(f"error: no olreg sources under {source}; run from a checkout")
    sys.path.insert(0, str(source))
    start = time.perf_counter()
    import olreg.cli

    elapsed = time.perf_counter() - start
    if Path(olreg.cli.__file__).resolve().parent != (source / "olreg").resolve():
        raise SystemExit(f"error: imported olreg from {olreg.cli.__file__}, not {source}")
    return elapsed


@dataclass
class Operation:
    """One CLI command; ``metric`` is None for the untimed ``report`` commands."""

    key: str
    metric: str | None
    argv: list[str]
    outputs: list[Path]


class Program:
    """The package entry point, called through its module attribute."""

    def __init__(self):
        import olreg.cli
        import olreg.data

        self.cli = olreg.cli
        self.data = olreg.data

    def run(self, argv) -> tuple[int, str]:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = self.cli.main([str(a) for a in argv])
        return code, buffer.getvalue()

    def write_inputs(self, workload, seeds, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        for spec in workload.files:
            path = directory / f"{spec.name}.csv"
            if spec.responses:
                code, _ = self.run(["gen", "--seed", seeds[spec.name], "--n", spec.rows,
                                    "--k", spec.features, "--out", path])
                if code != 0:
                    raise RuntimeError(f"olreg gen exited {code}")
            else:
                config = self.data.SyntheticConfig(
                    seed=seeds[spec.name], observation_count=spec.rows,
                    feature_count=spec.features)
                features, _ = self.data.observations_to_arrays(self.data.gen_synthetic(config))
                header = [f"x{j + 1}" for j in range(spec.features)]
                self.data.save_matrix(features, path, header=header)


def derive_seeds(workload, seed: int) -> dict:
    generator = random.Random(seed)
    seeds = {spec.name: generator.randrange(2**31) for spec in workload.files}
    seeds["cli"] = generator.randrange(2**31)
    seeds["checks"] = generator.randrange(2**31)
    return seeds


def build_round(workload, inputs: Path, work: Path, cli_seed: int) -> list[Operation]:
    """One round: every repeat of every command, spread evenly over the round.

    Machine speed drifts over seconds, so the repeats of a command are placed
    at evenly spaced positions among the other commands instead of back to
    back; a command's samples then span the whole round.
    """
    blocks = []
    for index, run in enumerate(workload.online):
        for rep in range(run.reps):
            block = []
            for smoothed in (False, True):
                prefix = work / f"online_{run.model}_{run.data}_{'smoothed' if smoothed else 'det'}"
                key = f"online {run.model} {run.data}{' smoothed' if smoothed else ''}"
                argv = ["online", "--model", run.model, "--data", inputs / f"{run.data}.csv",
                        "--seed", cli_seed, "--out-prefix", prefix]
                block.append(Operation(
                    key, online_metric(run.model, smoothed),
                    argv + (["--smoothed"] if smoothed else []),
                    [Path(f"{prefix}_{suffix}") for suffix in
                     ("cumulative_errors.csv", "median_accuracy.csv", "ledger.json")],
                ))
                report = Path(f"{prefix}_report.json")
                block.append(Operation(
                    f"{key} report", None,
                    ["report", "--ledger", f"{prefix}_ledger.json", "--out", report], [report]))
            blocks.append(((rep + 0.5) / run.reps, index, block))
    for index, run in enumerate(workload.predict, start=len(workload.online)):
        prefix = work / f"predict_{run.model}_{run.train}_{run.test}"
        for rep in range(run.reps):
            blocks.append(((rep + 0.5) / run.reps, index, [Operation(
                f"predict {run.model} {run.train} {run.test}", predict_metric(run.model),
                ["predict", "--model", run.model, "--train", inputs / f"{run.train}.csv",
                 "--test", inputs / f"{run.test}.csv", "--seed", cli_seed, "--out", prefix],
                [Path(f"{prefix}_lower.csv"), Path(f"{prefix}_upper.csv")],
            )]))
    return [op for _, _, block in sorted(blocks, key=lambda b: b[:2]) for op in block]


def digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(path.read_bytes())
    return sha.hexdigest()


class Runner:
    """Runs rounds of operations, timing each and remembering its output."""

    def __init__(self, program: Program, ops: list[Operation]):
        self.program = program
        self.ops = ops
        self.samples: dict[str, list[float]] = {}
        self.first_output: dict[str, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.round_seconds: list[float] = []

    def round(self):
        start = time.perf_counter()
        for op in self.ops:
            self.attempted += 1
            began = time.perf_counter()
            try:
                code, stdout = self.program.run(op.argv)
            except Exception:  # one failed command must not end the run
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            elapsed = time.perf_counter() - began
            if code != 0:
                print(f"error: {op.key} exited {code}", file=sys.stderr)
                self.failed += 1
                continue
            if op.metric is not None:
                self.samples.setdefault(op.metric, []).append(elapsed)
            output = (digest(op.outputs), stdout)
            if self.first_output.setdefault(op.key, output) != output:
                self.problems.append(f"{op.key}: output differs between repeats")
        self.round_seconds.append(time.perf_counter() - start)

    def run_for(self, seconds: float, started: float, tracer=None):
        """Whole rounds while the next one is expected to end within ``seconds``.

        With a tracer, rounds alternate between untraced and traced, starting
        untraced, so that both kinds see the same drift in machine speed; at
        least one traced round runs.  Returns the span range of each traced
        round.
        """
        marks = []
        while True:
            traced = tracer is not None and len(self.round_seconds) % 2 == 1
            if traced:
                tracer.install()
                first = tracer.mark()
            try:
                self.round()
            finally:
                if traced:
                    tracer.remove()
                    marks.append((first, tracer.mark()))
            elapsed = time.perf_counter() - started
            if elapsed + self.round_seconds[-1] > seconds and (tracer is None or marks):
                return marks


def run_checks(program: Program, workload, inputs: Path, work: Path, seeds, tiny: bool,
               stdouts: dict):
    import numpy as np

    import checks

    rng = np.random.default_rng(seeds["checks"])
    checker = checks.Checker()
    streams = {
        spec.name: checks.Stream.load(inputs / f"{spec.name}.csv", spec.responses)
        for spec in workload.files
    }
    scratch = work / "check"
    scratch.mkdir(exist_ok=True)

    def predict_step(data_name: str, step: int, levels):
        """The interval ``olreg online`` commits to at one step, via ``olreg predict``."""
        source = inputs / f"{data_name}.csv"
        checks.copy_rows(source, scratch / "train.csv", step - 1)
        checks.copy_rows(source, scratch / "test.csv", 1, drop_last_column=True, skip=step - 1)
        code, _ = program.run([
            "predict", "--model", "iidgauss", "--train", scratch / "train.csv",
            "--test", scratch / "test.csv", "--ridge", checks.ONLINE_RIDGE, "--schedule", "auto",
            "--epsilons", ",".join(str(e) for e in levels), "--seed", seeds["cli"],
            "--out", scratch / "step",
        ])
        if code != 0:
            raise RuntimeError(f"predict for step {step} exited {code}")
        lower = checks.read_matrix(scratch / "step_lower.csv")[0]
        upper = checks.read_matrix(scratch / "step_upper.csv")[0]
        return lower, upper

    def guarded(check, *args):
        try:
            check(*args)
        except Exception as exc:  # a missing or malformed output is a failed check
            checker.problems.append(f"{check.__name__}: {exc!r}")

    for run in workload.online:
        data = streams[run.data]
        k = data.features.shape[1]
        steps = checks.sampled_steps(data.features.shape[0], k, workload.sampled_steps, rng, tiny)
        if run.model == "iidgauss":
            # ``predict`` exits with termination code 2 below K + 3 rows.  Each
            # step costs a CLI call and an independent Monte-Carlo estimate, so
            # full-size runs check two: the last step and one random one.
            steps = [s for s in steps if s >= (k + 3 if tiny else k + 10)]
            steps = steps if tiny else steps[-2:]
        prefix = work / f"online_{run.model}_{run.data}"
        step_interval = functools.partial(predict_step, run.data)
        guarded(checks.check_online_pair, checker, run.model, data, prefix, steps, rng,
                step_interval)
    for run in workload.predict:
        test = streams[run.test]
        rows = checks.sampled_rows(test.features.shape[0], workload.sampled_rows, rng, tiny)
        key = f"predict {run.model} {run.train} {run.test}"
        guarded(checks.check_predict, checker, run.model, streams[run.train], test,
                work / f"predict_{run.model}_{run.train}_{run.test}", rows, rng,
                stdouts.get(key, ""))
    return checker


def measure(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            keep: Path | None = None) -> dict:
    """One benchmark run; returns the result record (the printed JSON plus details)."""
    started = time.perf_counter()
    import_seconds = import_program()
    workload = (TINY_WORKLOADS if tiny else WORKLOADS)[workload_name]
    program = Program()
    seeds = derive_seeds(workload, seed)
    OUT.mkdir(exist_ok=True)
    work = keep if keep is not None else OUT / f"work_{workload_name}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
        setup_times, setup_marks = [], []
        for repeat in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.install()
                mark = tracer.mark()
            began = time.perf_counter()
            program.write_inputs(workload, seeds, work / f"inputs{repeat}")
            setup_times.append(time.perf_counter() - began)
            if tracer is not None:
                tracer.remove()
                setup_marks.append((mark, tracer.mark()))
        inputs = work / f"inputs{SETUP_REPEATS - 1}"
        ops = build_round(workload, inputs, work, seeds["cli"])
        runner = Runner(program, ops)
        measure_start = time.perf_counter()
        round_marks = runner.run_for(seconds, measure_start, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = time.perf_counter() - measure_start

        stdouts = {key: output[1] for key, output in runner.first_output.items()}
        checker = run_checks(program, workload, inputs, work, seeds, tiny, stdouts)
        problems = runner.problems + checker.problems

        if tracer is None:
            metrics = {
                name: {"value": statistics.fmean(runner.samples[name]), "unit": "s"}
                for name in TIMED_METRICS if name in runner.samples
            }
            metrics["peak_mb"] = {"value": peak_mb, "unit": "MB"}
            metrics["setup_s"] = {
                "value": import_seconds + statistics.median(setup_times), "unit": "s"}
        else:
            values = tracing.layer_metrics(
                [tracer.summarize(*marks) for marks in round_marks],
                [tracer.summarize(*marks) for marks in setup_marks],
                runner.round_seconds[1::2], runner.round_seconds[::2],
            )
            metrics = {name: {"value": value, "unit": tracing.unit(name)}
                       for name, value in values.items()}
            tracer.write(OUT / f"trace_{workload_name}.csv")

        result = {
            "correct": not problems and runner.failed < runner.attempted,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        record = dict(result)
        record.update({
            "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
            "rounds": len(runner.round_seconds), "round_seconds": runner.round_seconds,
            "measured_seconds": measured, "samples": runner.samples,
            "import_seconds": import_seconds, "setup_write_seconds": setup_times,
            "checks": checker.checks, "problems": problems,
            "wall_seconds": time.perf_counter() - started,
            "environment": environment(),
        })
        return record
    finally:
        if keep is None:
            shutil.rmtree(work, ignore_errors=True)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cap_blas_threads()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    suffix = "_trace" if args.trace else ""
    with open(OUT / f"BENCH_{args.workload}{suffix}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
