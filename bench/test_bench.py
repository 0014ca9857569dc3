"""Self-test of the benchmark at its tiny size.

    python3 -m pytest bench -q

Every workload, also those BENCHMARK.json does not list, runs once per mode
with --tiny; each must be correct and emit exactly the metrics BENCHMARK.json
names, with their units.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from checks import learning_problems
from workloads import WORKLOADS, make_inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, run, *args], capture_output=True, text=True,
                          timeout=300, cwd=cwd)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, kind):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_all_prints_a_table_with_failed_frac():
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "0.5", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    table = [line.split() for line in proc.stdout.splitlines()]
    for name in WORKLOADS:
        rows = {row[1]: row[2] for row in table if len(row) == 4 and row[0] == name}
        for metric in [m["name"] for m in SPEC["end_to_end"]] + ["failed_frac"]:
            assert metric in rows, (name, metric)
        assert float(rows["failed_frac"]) == 0.0


def test_workload_seed_decides_the_corpus(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from metatext.harness import gen_synthetic, write_split_file

    for name, workload in WORKLOADS.items():
        corpora = {}
        for label, seed in (("a", 1), ("b", 1), ("c", 7)):
            work = tmp_path / f"{name}-{label}"
            work.mkdir()
            corpus, _ = make_inputs(gen_synthetic, write_split_file, workload, seed,
                                    str(work), tiny=False)
            corpora[label] = (work / os.path.basename(corpus)).read_bytes()
        assert corpora["a"] == corpora["b"], name
        assert corpora["a"] != corpora["c"], name


def test_learning_check_needs_a_falling_support_loss(tmp_path):
    def write(curve):
        with open(tmp_path / "metrics.jsonl", "w", encoding="utf-8") as fh:
            for loss in curve:
                fh.write(json.dumps({"seed": 3, "support_loss": [loss, loss]}) + "\n")

    write([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.4])
    assert learning_problems(str(tmp_path), 0.7) == []
    # FOMAML can fall fast and then oscillate; it has still learned.
    write([1.21, 0.57, 0.22, 0.09, 0.08, 0.41, 0.48, 0.13,
           0.52, 0.26, 0.52, 0.74, 0.43, 0.65, 0.32, 0.22])
    assert learning_problems(str(tmp_path), 0.7) == []
    write([1.0, 1.1, 0.9, 1.0, 1.0, 0.9, 1.1, 0.95])   # psi never improves
    problems = learning_problems(str(tmp_path), 0.7)
    assert len(problems) == 1 and problems[0].startswith("seed 3:")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, run=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
