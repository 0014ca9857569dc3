"""The arithmetic of tools/ab_pairs.py's nine-in-ten rule and its two
checkout directories, and the exit status of tools/output_drift.py on a tiny
run_training tree."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess

import numpy as np
import pytest

from metatext.harness import ExperimentConfig, gen_synthetic, run_training, write_split_file
from metatext.model import ModelParams, read_checkpoint, save_params

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _load("ab_pairs")
output_drift = _load("output_drift")


def test_summary_counts_pairs_won_in_the_better_direction():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    change = [b - 0.5 for b in base]
    q_base, q_change, won, gap, met = ab_pairs.summary(base, change, "lower")
    assert won == 10 and gap == pytest.approx(0.5) and met
    assert q_base[1] == pytest.approx(1.2) and q_change[1] == pytest.approx(0.7)
    # The same numbers read as a higher-is-better metric: every pair lost.
    _, _, won, gap, met = ab_pairs.summary(base, change, "higher")
    assert won == 0 and gap == pytest.approx(-0.5) and not met


def test_summary_needs_nine_wins_and_a_gap_beyond_the_iqr():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    # Nine of ten pairs won, but the median gap (0.05) is inside the IQR.
    change = [b - 0.05 for b in base[:9]] + [1.5]
    _, _, won, gap, met = ab_pairs.summary(base, change, "lower")
    assert won == 9 and gap < 0.2 and not met
    # A gap beyond the IQR with only eight pairs won.
    change = [b - 0.5 for b in base[:8]] + [2.0, 2.0]
    _, _, won, _, met = ab_pairs.summary(base, change, "lower")
    assert won == 8 and not met


def test_both_sides_run_from_paths_of_equal_length(tmp_path):
    base, change = ab_pairs.work_dirs(str(tmp_path), "0123456789abcdef")
    assert len(base) == len(change) and base != change
    assert os.path.dirname(base) == os.path.dirname(change) == str(tmp_path / ".bench_work")


def test_the_change_side_copies_untracked_sources_but_not_the_work_dirs(tmp_path):
    root = tmp_path / "checkout"
    files = {"src/pkg/old.py": "tracked", "src/pkg/new.py": "untracked", ".gitignore": "*.log\n",
             "run.log": "ignored", ".bench_work/ab-base-0123/src/pkg/old.py": "base side"}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    subprocess.run(["git", "add", "src/pkg/old.py", ".gitignore"], cwd=root, check=True)
    ab_pairs.copy_checkout(str(root), str(tmp_path / "copy"))
    copied = sorted(str(p.relative_to(tmp_path / "copy"))
                    for p in (tmp_path / "copy").rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/pkg/new.py", "src/pkg/old.py"]
    assert (tmp_path / "copy" / "src/pkg/new.py").read_text() == "untracked"


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """An output tree holding one amgs run, as tools/golden_hashes.py --keep
    lays it out."""
    root = tmp_path_factory.mktemp("drift")
    names = gen_synthetic(root / "corpus.jsonl", num_classes=9, docs_per_class=6,
                          tokens_per_class=5, overlap=0.5, doc_len_range=(4, 8), seed=0)
    write_split_file(root / "split.json", names, 3, 3, 3)
    config = ExperimentConfig(n_way=3, k_shot=1, query_per_class=2, inner_steps=2,
                              d_emb=8, d_h=8, max_len=16, episodes_per_epoch_train=4,
                              episodes_per_epoch_val=2, test_episodes=2, max_epochs=1,
                              seeds=(1,), corpus_path=str(root / "corpus.jsonl"),
                              split_path=str(root / "split.json"))
    run_training(config, root / "tree" / "tiny" / "amgs-1")
    return root / "tree"


def _drift(tree, tmp_path, capsys, edit=None):
    """output_drift's exit status and report for tree against a copy of it,
    with edit(run directory of the copy) applied first."""
    copy = tmp_path / "copy"
    shutil.copytree(tree, copy)
    if edit is not None:
        edit(copy / "tiny" / "amgs-1")
    status = output_drift.main([str(tree), str(copy)])
    return status, capsys.readouterr().out


def test_output_drift_passes_an_identical_tree(tree, tmp_path, capsys):
    status, out = _drift(tree, tmp_path, capsys)
    assert status == 0 and "1 runs compared" in out and "psi_rel=0 " in out


def test_output_drift_fails_on_a_flipped_gate(tree, tmp_path, capsys):
    def flip(run):
        path = run / "metrics.jsonl"
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lines[1]["gate_open"][0] = not lines[1]["gate_open"][0]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    status, out = _drift(tree, tmp_path, capsys, flip)
    assert status == 1 and "gate_open=DIFFERS" in out and "query_used=same" in out


@pytest.mark.parametrize("scale,status", [(1e-12, 0), (1e-6, 1)])
def test_output_drift_bounds_psi_movement(tree, tmp_path, capsys, scale, status):
    # One entry of C moved by scale times the block's largest magnitude:
    # inside PSI_TOL passes, beyond it fails.
    def move(run):
        path = run / "psi_seed1.bin"
        _, psi, _ = read_checkpoint(path)
        flat = psi.flat.copy()
        block = psi.layout().slices["C"]
        flat[block.start] += scale * np.abs(flat[block]).max()
        save_params(path, ModelParams.from_flat(flat, psi.layout()))
    got, out = _drift(tree, tmp_path, capsys, move)
    assert got == status
    assert ("; ok" in out) == (status == 0)


def test_output_drift_fails_on_a_missing_run(tree, tmp_path, capsys):
    status, out = _drift(tree, tmp_path, capsys, shutil.rmtree)
    assert status == 1 and "tiny/amgs-1  only in" in out
