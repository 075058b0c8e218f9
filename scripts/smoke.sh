#!/usr/bin/env bash
# Command smoke run: python -m olreg on the paper defaults (online and
# predict), ridge-0 runs, and the usage and rank-deficiency exit codes.
#
# Usage, from anywhere in a checkout:
#
#     scripts/smoke.sh [OUTPUT_DIR]
#
# Files go to OUTPUT_DIR (default: a new temporary directory).  Any failing
# command, an unexpected exit code, or a RuntimeWarning (such as a module
# imported twice) fails the run.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"
olreg() { python -W error::RuntimeWarning -m olreg "$@"; }

olreg gen --out "$out/paper.csv"
olreg online --model gauss --smoothed --data "$out/paper.csv" --out-prefix "$out/paper"
olreg online --model mva --smoothed --data "$out/paper.csv" --out-prefix "$out/paper_mva"
olreg online --model iid --smoothed --data "$out/paper.csv" --out-prefix "$out/paper_iid"
# ridge-0 runs whose first steps have no more rows than columns abstain
olreg gen --n 30 --k 4 --out "$out/narrow.csv"
for model in iid mva; do
  olreg online --model "$model" --ridge 0 --data "$out/narrow.csv" --out-prefix "$out/narrow_$model"
done
olreg online --model iidgauss --smoothed --data "$out/narrow.csv" --out-prefix "$out/narrow_iidgauss"
# ridge-0 IID-Gauss on a schedule decides one ridge's rank at two widths:
# the whole design for the conditional law, the leading block for the fit
olreg online --model iidgauss --ridge 0 --schedule 2:8 --smoothed --data "$out/narrow.csv" \
  --out-prefix "$out/narrow_iidgauss_r0"
olreg online --model full --data "$out/narrow.csv" --out-prefix "$out/narrow_full"
# a negative ridge is a usage error (exit 2) for every model, also for
# gauss, which ignores a valid one
head -n 6 "$out/narrow.csv" | cut -d, -f1-4 > "$out/narrow_test.csv"
for model in iid mva iidgauss gauss; do
  status=0
  olreg predict --model "$model" --ridge -1 --train "$out/narrow.csv" \
    --test "$out/narrow_test.csv" --out "$out/negative_$model" || status=$?
  test "$status" -eq 2
done
# a ridge-0 history with x2 = x1, whose test rows alone would add the
# missing rank: every model decides rank on the history and exits 11
python -c "import numpy as np; r = np.random.default_rng(0); x = r.normal(size=20); \
np.savetxt('$out/collinear.csv', np.column_stack([x, x, x + r.normal(size=20)]), delimiter=',', header='x1,x2,y', comments=''); \
np.savetxt('$out/collinear_test.csv', r.normal(size=(15, 2)), delimiter=',', header='x1,x2', comments='')"
for model in iid mva gauss iidgauss; do
  status=0
  olreg predict --model "$model" --ridge 0 --train "$out/collinear.csv" \
    --test "$out/collinear_test.csv" --out "$out/collinear_$model" || status=$?
  test "$status" -eq 11
done
olreg report --ledger "$out/paper_ledger.json" --out "$out/paper_report.json"
# batch prediction of the first 20 rows, which runs each model's onset rule
head -n 21 "$out/paper.csv" | cut -d, -f1-100 > "$out/paper_test.csv"
for model in iid gauss mva iidgauss; do
  olreg predict --model "$model" --train "$out/paper.csv" --test "$out/paper_test.csv" \
    --out "$out/predict_$model"
done
# batch prediction of 100 rows, several row blocks with a positive ridge
# and the auto schedule
head -n 101 "$out/paper.csv" | cut -d, -f1-100 > "$out/paper_test100.csv"
for model in iid gauss mva; do
  olreg predict --model "$model" --ridge 0.01 --schedule auto --train "$out/paper.csv" \
    --test "$out/paper_test100.csv" --out "$out/predict_${model}_blocks"
done
echo "smoke run passed; files in $out"
