"""metatext benchmark: end-to-end and per-layer costs of training runs.

    python3 bench/run.py --workload sweep_k1 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

A workload (see workloads.py) is a synthetic corpus generated from --seed plus
`run_training` calls, one per method and training seed, each with an output
directory as `metatext train` makes them. One pass makes every call once.
Passes repeat until --seconds have been measured and the workload's fixed
number of timed passes is done, and every pass must write the same bytes as
the first. Each call is one operation: it fails when it raises or when its
outputs fail the checks in checks.py.

--trace 0 prints the end-to-end metrics: set-up time (median of set-ups in
fresh processes), run time (each call's fastest time over the timed passes,
summed over a pass), support-set gradient steps per second of that run time,
peak RSS and mean test accuracy. --trace 1 alternates untraced passes with
passes in which spans.py records every call of metatext's public functions,
and prints per-layer calls, self time and call durations; traced outputs must
equal untraced ones and the call counts must match the config.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The run uses one process (plus short set-up
probes) with BLAS and OpenMP pinned to one thread, writes only under
.bench_work/ of the checkout, and exits 2 if the checkout has no src/metatext.
With --workload all, each workload runs in its own process and a table of all
metrics is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1
# BLAS and OpenMP read these when numpy loads; set-up probes inherit them.
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402

from checks import (adapt_steps, check_outputs, expected_calls, file_hashes,  # noqa: E402
                    gate_stats)
from spans import P50_TRACED, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, config_fields, make_inputs, training_seeds  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TINY_PASSES = 2         # timed passes at the self-test size
MIN_TRACED = 2          # a traced run needs this many passes of each kind
HARD_LIMIT_S = 140.0    # no pass starts that would end later than this into the loop
SETUP_PROBES = 15
CHANCE = 0.2            # 5-way
LEARN_RATIO = 0.7       # see checks.learning_problems

END_TO_END = {"setup_s": "s", "run_s": "s", "adapt_steps_per_s": "1/s",
              "peak_rss_mb": "MB", "test_acc": "fraction"}


def per_layer_units() -> dict:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in P50_TRACED:
        units[f"{name}.call_us_p50"] = "us"
    units.update({"meta.gate_open_frac": "fraction",
                  "model.aux_targets_per_episode": "count",
                  "trace.overhead_frac": "fraction",
                  "trace.covered_frac": "fraction"})
    return units


@dataclass
class Operation:
    method: str
    seed: int
    config: object        # metatext ExperimentConfig
    out_dir: str


@dataclass
class OpResult:
    seconds: float
    run: object = None    # metatext RunResult, None when run_training raised
    problems: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    spans: tuple = (0, 0)  # span index range of this call in a traced pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: small corpus, one short epoch")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_pass(ops, harness, check, tracer=None):
    """Run every operation once and check its outputs with
    check(config, run, out_dir).

    run_training is looked up on the harness module at call time, so that the
    tracer's wrapper is the one called in traced passes."""
    results = []
    for op in ops:
        shutil.rmtree(op.out_dir, ignore_errors=True)
        mark = tracer.mark() if tracer is not None else 0
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                run = harness.run_training(op.config, op.out_dir)
            except Exception as exc:  # one failed operation must not end the run
                run, error = None, f"run_training raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if run is None:
            results.append(OpResult(seconds, problems=[error]))
            continue
        res = OpResult(seconds, run)
        try:
            res.problems = check(op.config, run, op.out_dir)
            res.hashes = file_hashes(op.out_dir)
        except (OSError, ValueError, KeyError) as exc:
            res.problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        if tracer is not None:
            res.spans = (mark, tracer.mark())
        results.append(res)
    return results


def git_revision() -> tuple[str, bool | None]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev, status = (subprocess.run(["git", "-C", ROOT, "--no-optional-locks", *cmd],
                                      env=env, capture_output=True, text=True, timeout=30,
                                      check=True)
                       for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain"]))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return rev.stdout.strip(), bool(status.stdout.strip())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(args, ops) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = None
    rev, dirty = git_revision()
    return {
        "workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "numpy": np.__version__, "blas": blas, "python": sys.version,
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": rev, "git_dirty": dirty,
        "configs": [op.config.to_dict() for op in ops],
    }


def setup_seconds(config_path, count) -> list:
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, probe, SRC, config_path], capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def best_pass(op_times) -> float:
    """Fastest time of each run_training call over the given passes, summed
    over the calls of a pass. On a shared host, co-tenants can slow a core by
    tens of percent for seconds at a time; the fastest of several passes stays
    steady where a median follows the share of slow periods in the run. The
    caller passes a fixed number of passes, so that a slower and a faster
    commit take their minimum over samples of the same size."""
    return sum(min(column) for column in zip(*op_times))


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import metatext
    from metatext import harness
    from metatext.model import load_params

    if os.path.dirname(os.path.abspath(metatext.__file__)) != os.path.join(SRC, "metatext"):
        print(f"error: imported metatext from {metatext.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # The learning check needs a full-size run's meta-steps.
    check = functools.partial(
        check_outputs, load_params=load_params,
        chance=CHANCE if workload.chance_check else None,
        learn_ratio=LEARN_RATIO if workload.learning_check and not args.tiny else None)
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        corpus_path, split_path = make_inputs(harness.gen_synthetic, harness.write_split_file,
                                              workload, args.seed, work_dir, args.tiny)
        ops = [Operation(m, seed, harness.ExperimentConfig.from_dict(config_fields(
                   workload, m, seed, corpus_path, split_path, args.tiny)),
                         os.path.join(work_dir, f"{m}-seed{seed}"))
               for seed in training_seeds(workload, args.seed, args.tiny)
               for m in workload.methods]
        print("manifest " + json.dumps(manifest(args, ops), sort_keys=True))
        setup_config = os.path.join(work_dir, "setup_config.json")
        with open(setup_config, "w", encoding="utf-8") as fh:
            json.dump(ops[0].config.to_dict(), fh)
        setup = []

        attempted = failed = 0
        reference = {}          # operation index -> output hashes of the first pass
        reference_calls = {}    # operation index -> call counts of the first traced pass
        op_times = {False: [], True: []}   # per pass, seconds of each run_training call
        traced_spans = []
        first_pass = None
        kinds = (False, True) if args.trace else (False,)
        timed = TINY_PASSES if args.tiny else workload.timed_passes
        minimum = MIN_TRACED if args.trace else timed
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        for number in itertools.count(1):
            # Untraced and traced passes alternate in the order U T T U U T ...,
            # so that a host getting slower or faster over the run favours neither.
            pair, slot = divmod(number - 1, len(kinds))
            traced = kinds[slot if pair % 2 == 0 else -1 - slot]
            done = op_times[traced]
            if done:
                finish = time.perf_counter() + statistics.median(map(sum, done)) - start
                enough = all(len(op_times[k]) >= minimum for k in kinds)
                if (enough and finish > args.seconds) or finish > HARD_LIMIT_S:
                    break
            results = run_pass(ops, harness, check, tracer if traced else None)
            if not args.trace and len(setup) < SETUP_PROBES:
                # Set-ups are spread over the timed passes, so that one slow
                # spell of a shared host cannot set their median.
                setup += setup_seconds(setup_config, -(-SETUP_PROBES // timed))
            done.append([r.seconds for r in results])
            spans = tracer.take() if traced else None
            if traced:
                traced_spans.append(spans)
            first_pass = first_pass or results
            for index, (op, res) in enumerate(zip(ops, results)):
                if res.run is not None and not res.problems:
                    if reference.setdefault(index, res.hashes) != res.hashes:
                        res.problems.append("outputs differ from the first pass"
                                            + (" (traced pass)" if traced else ""))
                if traced and res.run is not None:
                    calls = spans.calls(*res.spans)
                    for name, want in expected_calls(op.config, res.run).items():
                        if calls[name] != want:
                            res.problems.append(f"{name} called {calls[name]} times, "
                                                f"expected {want}")
                    if reference_calls.setdefault(index, calls) != calls:
                        res.problems.append("call counts differ between traced passes")
                attempted += 1
                failed += bool(res.problems)
                for problem in res.problems:
                    print(f"FAIL workload={args.workload} method={op.method} "
                          f"seed={op.seed} pass={number}: {problem}")
            print(f"pass {number} {'traced' if traced else 'untraced'} "
                  f"{sum(r.seconds for r in results):.4f} s: "
                  + " ".join(f"{r.seconds:.3f}" for r in results))

        if args.trace:
            metrics = layer_metrics(ops, op_times, traced_spans, reference_calls,
                                    harness.AMGS_FAMILY)
        else:
            passes = op_times[False][:timed]
            if len(passes) < timed:
                print(f"{args.workload} warning: {len(passes)} of {timed} timed passes "
                      f"fit in {HARD_LIMIT_S:.0f} s")
            metrics = end_to_end_metrics(ops, first_pass, passes, setup)
            print(f"{args.workload} setup_s median of {len(setup)} set-ups: "
                  + " ".join(f"{t:.5f}" for t in setup))
            print(f"{args.workload} run_s fastest of the first {len(passes)} passes per call; "
                  f"their median {statistics.median(map(sum, passes)):.4f} s")
        for name, metric in metrics.items():
            print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
        print(f"{args.workload} failed_frac {failed / attempted:.6g} fraction "
              f"({failed} of {attempted} operations)")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def end_to_end_metrics(ops, first_pass, op_times, setup) -> dict:
    run_s = best_pass(op_times)
    runs = [(op, r.run) for op, r in zip(ops, first_pass) if r.run is not None]
    accs = [s.test_accuracy for _, run in runs for s in run.seed_results]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "adapt_steps_per_s": sum(adapt_steps(op.config, run) for op, run in runs) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_acc": float(np.mean(accs)) if accs else 0.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(ops, op_times, traced_spans, reference_calls, amgs_family) -> dict:
    units = per_layer_units()
    values = {}
    self_s = [spans.self_seconds() for spans in traced_spans]
    for name in TRACED:
        values[f"{name}.calls"] = sum(calls[name] for calls in reference_calls.values())
        values[f"{name}.self_s"] = statistics.median(s[name] for s in self_s)
    for name in P50_TRACED:
        durations = np.concatenate([spans.durations_of(name) for spans in traced_spans])
        values[f"{name}.call_us_p50"] = float(np.median(durations)) * 1e6 if durations.size else 0.0
    # Only the gated methods have a gate and draw masked-token targets.
    stats = [gate_stats(op.out_dir) for op in ops if op.method in amgs_family]
    joined, gated, targets, episodes = (sum(column) for column in zip(*stats))
    values["meta.gate_open_frac"] = joined / gated if gated else 0.0
    values["model.aux_targets_per_episode"] = targets / episodes if episodes else 0.0
    values["trace.overhead_frac"] = best_pass(op_times[True]) / best_pass(op_times[False]) - 1
    # Share of run_training's time spent inside the traced functions it calls;
    # the rest is protocol loop, file writes and untraced helpers.
    run_training = sum(spans.inclusive_seconds("harness.run_training") for spans in traced_spans)
    values["trace.covered_frac"] = 1 - sum(s["harness.run_training"] for s in self_s) / run_training
    for name in ("meta.meta_test", "episodes.sample_episode"):
        share = sum(spans.inclusive_seconds(name) for spans in traced_spans) / run_training
        print(f"{name} takes {share:.4f} of run_training's time, its callees included")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    print(f"{'workload':<14} {'metric':<40} {'value':>14} unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<40} {m['value']:>14.6g} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:<14} {'failed_frac':<40} {frac:>14.6g} fraction")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "metatext", "__init__.py")):
        print(f"error: no metatext package under {SRC}; run from a metatext checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
