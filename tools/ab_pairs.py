"""Paired A/B runs of the benchmark: a base revision against this checkout.

    python3 tools/ab_pairs.py --base HEAD~1 --workload sweep_k1 --seed 97 --pairs 10

REV is checked out with `git worktree` under .bench_work/ (no network is
needed) and removed afterwards. Each pair runs `bench/run.py --workload W
--seed S --seconds 50 --trace 0` once in the base checkout and once in
this one, each in its own process, alternating which goes first (ABBA), so
that drift on a shared host falls on both sides. For every end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles, how many pairs
the change won and the gap between the medians, both in the metric's better
direction, and the base's interquartile range. A gain counts under the
nine-in-ten rule when the change wins at least nine pairs in ten and the
median gap exceeds the base's IQR; the last column says whether that holds.
A run that fails, or whose checks do not pass, stops the whole comparison
with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 50  # bench/run.py --seconds of every run, the benchmark's convention


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(checkout, workload, seed) -> dict:
    """The metrics of one bench/run.py process in checkout, as {name: value}."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{' '.join(cmd)} failed in {checkout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(base: list, change: list, better: str) -> tuple:
    """(base quartiles, change quartiles, pairs won, median gap, rule met);
    the gap is the change's median gain over the base's, positive when the
    change is better."""
    q_base = statistics.quantiles(base, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    gap = sign * (q_base[1] - q_change[1])
    met = won >= 0.9 * len(base) and gap > q_base[2] - q_base[0]
    return q_base, q_change, won, gap, met


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (at least 2)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    base_dir = os.path.join(ROOT, ".bench_work", f"ab-base-{rev[:12]}")
    if os.path.exists(base_dir):
        git("worktree", "remove", "--force", base_dir)
    git("worktree", "add", "--detach", base_dir, rev)
    runs = {"base": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                checkout = base_dir if side == "base" else ROOT
                runs[side].append(bench(checkout, args.workload, args.seed))
            print(f"pair {i + 1}: run_s base {runs['base'][-1]['run_s']:.4f}  "
                  f"change {runs['change'][-1]['run_s']:.4f}", flush=True)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        git("worktree", "remove", "--force", base_dir)
        shutil.rmtree(base_dir, ignore_errors=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, base {rev[:12]}")
    print(f"{'metric':<18} {'base q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'won':>6} {'gap':>10} {'IQR':>10}  nine-in-ten")
    for name, direction in better.items():
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        q_base, q_change, won, gap, met = summary(base, change, direction)
        print(f"{name:<18} {'/'.join(f'{q:.4g}' for q in q_base):>30} "
              f"{'/'.join(f'{q:.4g}' for q in q_change):>30} "
              f"{f'{won}/{args.pairs}':>6} {gap:>10.4g} {q_base[2] - q_base[0]:>10.4g}  "
              f"{'met' if met else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
