"""Checks on one run_training call's outputs, and the call counts a traced
call must show, derived from its config and the epochs each seed ran."""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os

import numpy as np

STEP_FUNCTION = {"fomaml": "meta.fomaml_step", "reptile": "meta.reptile_step"}


def meta_steps(config, seed_result) -> int:
    return config.episodes_per_epoch_train * seed_result.epochs_run


def eval_episodes(config, seed_result) -> int:
    return 2 * config.episodes_per_epoch_val * seed_result.epochs_run + config.test_episodes


def adapt_steps(config, run) -> int:
    """Support-set gradient steps: inner steps of every training episode plus
    fine-tune steps of every evaluation episode."""
    total = 0
    for r in run.seed_results:
        total += config.inner_steps * meta_steps(config, r) * config.meta_batch_size
        total += config.effective_fine_tune_steps() * eval_episodes(config, r)
    return total


def expected_calls(config, run) -> dict:
    """Calls of the counted functions that one run_training call makes."""
    step_fn = STEP_FUNCTION.get(config.method, "meta.meta_step")
    fine_tune_steps = config.effective_fine_tune_steps()
    calls = dict.fromkeys(("meta.meta_step", "meta.fomaml_step", "meta.reptile_step",
                           "meta.meta_test", "meta.fine_tune", "model.total_loss",
                           "model.grad_total", "model.grad_primary"), 0)
    for r in run.seed_results:
        episodes = meta_steps(config, r) * config.meta_batch_size
        evals = eval_episodes(config, r)
        calls[step_fn] += meta_steps(config, r)
        calls["meta.meta_test"] += evals
        calls["meta.fine_tune"] += evals
        # One loss and one gradient per inner step and per fine-tune step;
        # fine_tune returns at once when it has no steps to take.
        losses = episodes * config.inner_steps + (evals * fine_tune_steps if fine_tune_steps else 0)
        calls["model.total_loss"] += losses
        calls["model.grad_total"] += losses
        # One query gradient per training episode, except in Reptile.
        if config.method != "reptile":
            calls["model.grad_primary"] += episodes
    return calls


def file_hashes(out_dir) -> dict:
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def check_outputs(config, run, out_dir, load_params, chance: float | None,
                  learn_ratio: float | None) -> list:
    """Problems found in one run's output directory; empty when it is sound.
    chance and learn_ratio, when given, turn on the accuracy and the
    learning check."""
    problems = []
    seeds = [r.seed for r in run.seed_results]

    with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1 or rows[0]["method"] != config.method:
        problems.append(f"summary.csv holds {len(rows)} rows, expected one for {config.method}")
    elif float(rows[0]["mean_acc"]) != run.mean_accuracy:
        problems.append("summary.csv mean_acc differs from the returned result")

    with open(os.path.join(out_dir, "epochs.csv"), encoding="utf-8", newline="") as fh:
        rows = [(float(row["train_acc"]), float(row["val_acc"])) for row in csv.DictReader(fh)]
    expected_rows = sum(r.epochs_run for r in run.seed_results)
    if len(rows) != expected_rows:
        problems.append(f"epochs.csv has {len(rows)} rows, expected {expected_rows}")

    with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    expected_lines = sum(meta_steps(config, r) for r in run.seed_results)
    if len(lines) != expected_lines:
        problems.append(f"metrics.jsonl has {len(lines)} lines, expected one per meta-step "
                        f"({expected_lines})")

    found = sorted(os.path.basename(p) for p in glob.glob(os.path.join(out_dir, "psi_seed*.bin")))
    if found != sorted(f"psi_seed{s}.bin" for s in seeds):
        problems.append(f"checkpoints {found} do not match seeds {seeds}")
    for name in found:
        if not np.all(np.isfinite(load_params(os.path.join(out_dir, name)).to_flat())):
            problems.append(f"{name} holds non-finite values")

    if chance is not None:
        for r in run.seed_results:
            if not r.test_accuracy > chance:
                problems.append(f"seed {r.seed}: test accuracy {r.test_accuracy:.4f} "
                                f"is not above chance {chance:.2f}")
    if learn_ratio is not None:
        problems += learning_problems(out_dir, learn_ratio)
    return problems


def support_losses(out_dir) -> dict:
    """Per seed, from metrics.jsonl: the mean support-set loss after the inner
    loop at each meta-step. Every method records it."""
    curves = {}
    with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            step = json.loads(line)
            curves.setdefault(step["seed"], []).append(float(np.mean(step["support_loss"])))
    return curves


def learning_problems(out_dir, ratio: float) -> list:
    """Meta-training must make the inner loop fit faster: for each seed, the
    mean adapted support loss over the last quarter of its meta-steps must be
    at most `ratio` times that of the first meta-step, which adapts from the
    initial psi. A meta-update that is dropped or reversed fails this;
    rounding changes do not."""
    problems = []
    for seed, curve in support_losses(out_dir).items():
        start, end = curve[0], np.mean(curve[-max(1, len(curve) // 4):])
        if not end <= ratio * start:
            problems.append(f"seed {seed}: adapted support loss went from {start:.4f} to "
                            f"{end:.4f} over {len(curve)} meta-steps, above {ratio} x the start")
    return problems


def gate_stats(out_dir) -> tuple[int, int, int, int]:
    """From a gated method's metrics.jsonl: (query gradients that joined the
    meta-gradient, query gradients gated, masked-token targets, episodes)."""
    joined = gated = targets = episodes = 0
    with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            step = json.loads(line)
            for gate, used, n_targets in zip(step["gate_open"], step["query_used"],
                                             step["aux_targets"]):
                episodes += 1
                targets += n_targets
                if gate is not None:
                    gated += 1
                    joined += bool(used)
    return joined, gated, targets, episodes
