"""Output drift between two output trees: how far the parameters moved, and
whether anything the outputs decide changed. It is the check for a change
whose bits may differ (a different summation order) but whose decisions may
not.

    python3 tools/golden_hashes.py 5 --keep tree_parent    # at the parent
    python3 tools/golden_hashes.py 5 --keep tree_change    # at the change
    python3 tools/output_drift.py tree_parent tree_change

A run is a directory holding summary.csv; runs are matched by their path
under each tree. Per run, one line gives the largest relative difference of
the psi_seed*.bin checkpoints (per parameter block, max |a - b| over max |a|,
so entries near zero do not inflate it) and says whether these are equal:
the per-step gate_open, query_used and aux_targets lists of metrics.jsonl,
the rows of epochs.csv (seed, epoch, train and validation accuracy), and the
mean_acc and std_acc of summary.csv. The exit status is 1 when a run is
missing from either tree, anything but psi differs, or psi moved by more than
PSI_TOL (1e-9); else 0.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from metatext.model import read_checkpoint  # noqa: E402

STEP_FIELDS = ("gate_open", "query_used", "aux_targets")
PSI_TOL = 1e-9  # largest relative psi difference that passes


def run_dirs(tree) -> set:
    """Paths, relative to tree, of every directory that holds a summary.csv."""
    return {os.path.relpath(os.path.dirname(p), tree)
            for p in glob.glob(os.path.join(tree, "**", "summary.csv"), recursive=True)}


def psi_drift(dir_a, dir_b) -> float:
    """Largest relative difference over the checkpoints' parameter blocks."""
    worst = 0.0
    for path in sorted(glob.glob(os.path.join(dir_a, "psi_seed*.bin"))):
        _, a, _ = read_checkpoint(path)
        _, b, _ = read_checkpoint(os.path.join(dir_b, os.path.basename(path)))
        if a.layout() != b.layout():
            return float("inf")
        for name, offset, length, _ in a.layout().blocks:
            x, y = a.flat[offset:offset + length], b.flat[offset:offset + length]
            scale = np.abs(x).max()
            diff = np.abs(x - y).max()
            worst = max(worst, diff / scale if scale > 0 else (0.0 if diff == 0 else np.inf))
    return float(worst)


def step_fields(run_dir) -> dict:
    with open(os.path.join(run_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        steps = [json.loads(line) for line in fh]
    return {field: [(s["seed"], s["step"], s[field]) for s in steps] for field in STEP_FIELDS}


def csv_rows(path, columns) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return [tuple(row[c] for c in columns) for row in csv.DictReader(fh)]


def compare(dir_a, dir_b) -> tuple[float, dict]:
    """(psi drift, {what: equal}) for one run."""
    steps_a, steps_b = step_fields(dir_a), step_fields(dir_b)
    equal = {field: steps_a[field] == steps_b[field] for field in STEP_FIELDS}
    epoch_columns = ("seed", "epoch", "train_acc", "val_acc")
    equal["epochs"] = (csv_rows(os.path.join(dir_a, "epochs.csv"), epoch_columns)
                       == csv_rows(os.path.join(dir_b, "epochs.csv"), epoch_columns))
    summary_columns = ("mean_acc", "std_acc")
    equal["summary"] = (csv_rows(os.path.join(dir_a, "summary.csv"), summary_columns)
                        == csv_rows(os.path.join(dir_b, "summary.csv"), summary_columns))
    return psi_drift(dir_a, dir_b), equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", help="reference output tree")
    parser.add_argument("dir_b", help="output tree to compare with it")
    args = parser.parse_args(argv)
    runs_a, runs_b = run_dirs(args.dir_a), run_dirs(args.dir_b)
    ok = runs_a == runs_b and bool(runs_a)
    for run in sorted(runs_a ^ runs_b):
        print(f"{run}  only in {args.dir_a if run in runs_a else args.dir_b}")
    worst = 0.0
    for run in sorted(runs_a & runs_b):
        drift, equal = compare(os.path.join(args.dir_a, run), os.path.join(args.dir_b, run))
        worst = max(worst, drift)
        ok = ok and all(equal.values()) and drift <= PSI_TOL
        flags = " ".join(f"{what}={'same' if same else 'DIFFERS'}" for what, same in equal.items())
        print(f"{run}  psi_rel={drift:.3g}  {flags}")
    print(f"{len(runs_a & runs_b)} runs compared; largest psi_rel {worst:.3g} "
          f"(tolerance {PSI_TOL:g}); {'ok' if ok else 'DRIFT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
