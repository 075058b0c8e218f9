#!/usr/bin/env python3
"""Run the same ``olreg`` commands from two source trees and compare the files.

Usage:

    python scripts/same_outputs.py PARENT_TREE [CHILD_TREE] [--tiny] [--work DIR]

``CHILD_TREE`` defaults to the checkout this script sits in.  Each tree runs
every command in its own fresh Python process, with ``PYTHONPATH`` set to
that tree's ``src`` alone, through ``olreg.cli.main``; the LAPACK routines
the history's factors call (``dtrtri``, ``dtpqrt``, ``dtrtrs``) are counted
per command.  The inputs are written once, by the parent tree's ``olreg
gen``, so both trees read the same bytes:

* the ``gen`` default (600 x 100), 120 x 5, 400 x 5 and 30 x 4 files;
* a 200 x 40 file, wide enough (``WIDTH_FLOOR`` design columns) that a
  ridge-0 history keeps rows pending beside its factor;
* a 300 x 100 training file with 200 test rows of another seed;
* a 60 x 50 training file with 40 test rows of another seed, on which some
  IID row blocks mix rows that read order statistics with rows that need
  the crossing sweep;
* a ridge-0 history with x2 = x1, whose test rows alone would add the
  missing rank (every model exits 11 on it).

The commands are ``olreg online`` for every model, deterministic and
``--smoothed``, on the first four files at the defaults, on the 400 x 5,
30 x 4 and 200 x 40 files at ``--ridge 0 --schedule none``, and on the
120 x 5 file at ``--ridge 0 --schedule 1:60``; and ``olreg predict`` for
every model from the training file, at the predict defaults (ridge 0, no
schedule) and at ``--ridge 0.01 --schedule auto``, from the 60 x 50
training file at those two settings and at ``--ridge 0 --schedule
1:1000``, and from the collinear history.  The two ``--ridge 0`` schedules
reach a ridge-0 fit on fewer features than the design has, which IID-Gauss
reads apart from its full fit.  ``--tiny`` shrinks every ``gen`` file but
the 30 x 4 one, for a quick check such as in CI; its 24 x 16 training file
with 12 test rows still has a row block that mixes both routes, its 48 x 32
file still keeps ridge-0 rows pending, and both ``--ridge 0`` schedules
still truncate its 24 x 2 and 24 x 16 files.

Per command the report gives both exit codes, whether every file written
is byte-identical, and both trees' LAPACK call counts.  Where a ledger
differs it adds the changed error bits, the largest move of an interval
length relative to the parent's length (the ledger keeps widths, not
ends) and the largest move of a smoothed p-value; where a predict bound
file differs, the largest move of an end relative to the parent's width.
The exit status is 0 when every command exits alike and writes identical
files, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COUNTED = ("dtrtri", "dtpqrt", "dtrtrs")
ONLINE_MODELS = ("iid", "mva", "gauss", "iidgauss", "full")
PREDICT_MODELS = ("iid", "mva", "gauss", "iidgauss")


RIDGE0 = ("-ridge0-none", ["--ridge", "0", "--schedule", "none"])
AUTO = ("-ridge0.01-auto", ["--ridge", "0.01", "--schedule", "auto"])
# ridge-0 fits on the leading features only, up to step 60 or throughout
EARLY = ("-ridge0-early", ["--ridge", "0", "--schedule", "1:60"])
LEADING = ("-ridge0-leading", ["--ridge", "0", "--schedule", "1:1000"])


def input_files(tiny: bool) -> dict[str, tuple[int, int, int]]:
    """name -> (rows, features, seed) of each ``gen`` file; ``query`` and
    ``wide_query`` keep only their features, as test rows for ``train`` and
    ``wide``."""
    sizes = {
        "paper": (600, 100, 0), "short": (120, 5, 0), "long": (400, 5, 0),
        "narrow": (30, 4, 0), "broad": (200, 40, 0),
        "train": (300, 100, 0), "query": (200, 100, 1),
        "wide": (60, 50, 0), "wide_query": (40, 50, 1),
    }
    if tiny:
        sizes.update(paper=(40, 4, 0), short=(24, 2, 0), long=(30, 2, 0),
                     broad=(48, 32, 0), train=(30, 4, 0), query=(6, 4, 1),
                     wide=(24, 16, 0), wide_query=(12, 16, 1))
    return sizes


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command; each writes files that start with its
    name in the output directory, written below as ``{out}``."""
    out = []
    runs = [(data, ("", [])) for data in ("paper", "short", "long", "narrow")]
    # the 200 x 40 file keeps ridge-0 rows pending beside the factor
    runs += [("long", RIDGE0), ("narrow", RIDGE0), ("broad", RIDGE0), ("short", EARLY)]
    for data, (label, extra) in runs:
        for model in ONLINE_MODELS:
            for smoothed in (False, True):
                name = f"online-{model}-{data}{label}{'-smoothed' if smoothed else ''}"
                argv = ["online", "--model", model, "--data", f"{{in}}/{data}.csv", *extra]
                argv += ["--smoothed"] if smoothed else []
                out.append((name, argv + ["--out-prefix", f"{{out}}/{name}"]))
    predictions = [("train", "query", ("", [])), ("train", "query", AUTO)]
    # IID blocks in which some rows read order statistics and others sweep
    predictions += [("wide", "wide_query", ("", [])), ("wide", "wide_query", AUTO),
                    ("wide", "wide_query", LEADING)]
    # x2 = x1 in the history, whose test rows alone would add the rank: exit 11
    predictions.append(("collinear", "collinear_query", ("", [])))
    for train, test, (label, extra) in predictions:
        for model in PREDICT_MODELS:
            name = f"predict-{model}-{train}{label}"
            argv = ["predict", "--model", model, "--train", f"{{in}}/{train}.csv",
                    "--test", f"{{in}}/{test}.csv", *extra, "--out", f"{{out}}/{name}"]
            out.append((name, argv))
    return out


def run_child(inputs: str, outputs: str) -> None:
    """Run every command in this process and print, as one JSON object, each
    command's exit code and LAPACK call counts."""
    import olreg.cli
    from scipy.linalg import lapack

    calls = dict.fromkeys(COUNTED, 0)
    for routine in COUNTED:
        original = getattr(lapack, routine)

        def counted(*args, _routine=routine, _original=original, **kwargs):
            calls[_routine] += 1
            return _original(*args, **kwargs)

        setattr(lapack, routine, counted)
    results = {"module": olreg.cli.__file__}
    for name, argv in commands():
        calls.update(dict.fromkeys(COUNTED, 0))
        argv = [arg.format(**{"in": inputs, "out": outputs}) for arg in argv]
        try:
            # ``predict`` prints its code and failing commands their error;
            # stdout carries only the results, and the exit code is reported
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = olreg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        results[name] = {"code": code, "calls": dict(calls)}
    print(json.dumps(results))


def tree_env(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def make_inputs(tree: Path, inputs: Path, tiny: bool) -> None:
    for name, (rows, features, seed) in input_files(tiny).items():
        path = inputs / f"{name}.csv"
        subprocess.run(
            [sys.executable, "-m", "olreg", "gen", "--n", str(rows), "--k", str(features),
             "--seed", str(seed), "--out", str(path)],
            env=tree_env(tree), check=True,
        )
        if name.endswith("query"):
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines),
                            encoding="utf-8")
    rng = np.random.default_rng(0)
    x = rng.normal(size=20)
    np.savetxt(inputs / "collinear.csv", np.column_stack([x, x, x + rng.normal(size=20)]),
               delimiter=",", header="x1,x2,y", comments="")
    np.savetxt(inputs / "collinear_query.csv", rng.normal(size=(15, 2)),
               delimiter=",", header="x1,x2", comments="")


def run_tree(tree: Path, inputs: Path, outputs: Path) -> dict:
    outputs.mkdir()
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(inputs), str(outputs)],
        env=tree_env(tree), check=True, stdout=subprocess.PIPE, text=True,
    )
    results = json.loads(done.stdout)
    if not Path(results["module"]).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"{tree} ran olreg from {results['module']}")
    return results


def relative_move(old: float, new: float, width: float) -> float:
    """|new - old| / width, or inf where an end or the width is not a
    positive finite number."""
    if old == new:
        return 0.0
    finite = math.isfinite(old) and math.isfinite(new) and math.isfinite(width)
    return abs(new - old) / width if finite and width > 0.0 else math.inf


def ledger_change(old: Path, new: Path) -> str:
    a, b = (json.loads(path.read_text(encoding="utf-8")) for path in (old, new))
    bits = sum(
        x != y for row_a, row_b in zip(a["errors"], b["errors"]) for x, y in zip(row_a, row_b)
    )
    move = max(
        relative_move(float(x), float(y), float(x))
        for row_a, row_b in zip(a["lengths"], b["lengths"])
        for x, y in zip(row_a, row_b)
    )
    pvalues = [abs(x - y) for x, y in zip(a["pvalues"] or [], b["pvalues"] or [])]
    return (f"{bits} error bits changed, largest length move {move:.3g} of the width, "
            f"largest p-value move {max(pvalues, default=0.0):.3g}")


def bounds_change(old: Path, new: Path) -> str:
    def read(prefix: Path, side: str) -> list[list[float]]:
        lines = Path(f"{prefix}_{side}.csv").read_text(encoding="utf-8").splitlines()[1:]
        return [[float(v) for v in line.split(",")] for line in lines]

    lower, upper = read(old, "lower"), read(old, "upper")
    move = max(
        relative_move(x, y, upper[r][j] - lower[r][j])
        for side, ends in (("lower", lower), ("upper", upper))
        for r, (row_old, row_new) in enumerate(zip(ends, read(new, side)))
        for j, (x, y) in enumerate(zip(row_old, row_new))
    )
    return f"largest end move {move:.3g} of the width"


def compare(name: str, old_dir: Path, new_dir: Path) -> tuple[bool, str]:
    files = sorted({path.name for d in (old_dir, new_dir) for path in d.glob(f"{name}_*")})
    changed = [
        file for file in files
        if not ((old_dir / file).exists() and (new_dir / file).exists()
                and (old_dir / file).read_bytes() == (new_dir / file).read_bytes())
    ]
    if not changed:
        return True, f"{len(files)} files identical"
    notes = [f"differ: {', '.join(changed)}"]
    try:
        ledger = f"{name}_ledger.json"
        if ledger in changed:
            notes.append(ledger_change(old_dir / ledger, new_dir / ledger))
        if any(file.endswith(("_lower.csv", "_upper.csv")) for file in changed):
            notes.append(bounds_change(old_dir / name, new_dir / name))
    except (OSError, ValueError, KeyError) as exc:
        notes.append(f"not compared: {exc}")
    return False, "; ".join(notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("child", type=Path, nargs="?", default=Path(__file__).resolve().parents[1],
                        help="the changed source tree (default: this checkout)")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for a quick check")
    parser.add_argument("--work", type=Path,
                        help="directory for inputs and outputs (default: a new temporary one)")
    args = parser.parse_args(argv)
    parent, child = args.parent.resolve(), args.child.resolve()
    work = args.work or Path(tempfile.mkdtemp(prefix="same_outputs_"))
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    make_inputs(parent, inputs, args.tiny)
    old = run_tree(parent, inputs, work / "parent")
    new = run_tree(child, inputs, work / "child")
    same = 0
    for name, _ in commands():
        identical, note = compare(name, work / "parent", work / "child")
        identical &= old[name]["code"] == new[name]["code"]
        same += identical
        counts = " ".join(
            f"{routine} {old[name]['calls'][routine]}/{new[name]['calls'][routine]}"
            for routine in COUNTED
        )
        print(f"{name:38s} exit {old[name]['code']}/{new[name]['code']}  {counts}  {note}")
    total = len(commands())
    print(f"{same} of {total} commands exit alike and write identical files ({work})")
    return 0 if same == total else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_child(*sys.argv[2:4])
    else:
        sys.exit(main())
