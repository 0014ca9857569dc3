import json

import numpy as np
import pytest

from metatext import harness
from metatext.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["gen-corpus", "--out", str(root / "corpus.jsonl"),
               "--classes", "12", "--docs-per-class", "10",
               "--tokens-per-class", "5", "--overlap", "0.5", "--seed", "0",
               "--split-out", str(root / "split.json"),
               "--split-counts", "6", "3", "3"])
    assert rc == 0
    config = {
        "method": "amgs", "n_way": 3, "k_shot": 1, "query_per_class": 2,
        "inner_steps": 2, "inner_lr": 0.5, "meta_lr": 0.05,
        "d_emb": 8, "d_h": 8, "max_len": 16,
        "episodes_per_epoch_train": 4, "episodes_per_epoch_val": 4,
        "test_episodes": 6, "patience": 2, "max_epochs": 2, "seeds": [1],
        "corpus_path": str(root / "corpus.jsonl"),
        "split_path": str(root / "split.json"),
    }
    (root / "config.json").write_text(json.dumps(config))
    return root


@pytest.fixture(scope="module")
def checkpoint(workspace):
    """The checkpoint test_train_command writes, trained here when an export
    test runs without it."""
    path = workspace / "run" / "psi_seed1.bin"
    if not path.exists():
        assert main(["train", "--config", str(workspace / "config.json"),
                     "--out", str(workspace / "run")]) == 0
    return path


def test_gen_corpus_writes_files(workspace):
    assert (workspace / "corpus.jsonl").exists()
    split = json.loads((workspace / "split.json").read_text())
    assert len(split["train"]) == 6 and len(split["test"]) == 3


def test_gen_corpus_rejects_negative_split_counts(tmp_path, capsys):
    rc = main(["gen-corpus", "--out", str(tmp_path / "corpus.jsonl"),
               "--classes", "8", "--docs-per-class", "2",
               "--tokens-per-class", "3", "--overlap", "0.5",
               "--split-out", str(tmp_path / "split.json"),
               "--split-counts", "5", "-1", "3"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert not (tmp_path / "split.json").exists()
    assert not (tmp_path / "corpus.jsonl").exists()


def test_gen_corpus_rejects_split_counts_over_the_class_count(tmp_path, capsys, monkeypatch):
    """Split counts that add up to more than --classes fail before the corpus
    is written, so neither file is left behind."""
    monkeypatch.chdir(tmp_path)
    rc = main(["gen-corpus", "--out", "corpus.jsonl", "--classes", "3",
               "--docs-per-class", "2", "--tokens-per-class", "3", "--overlap", "0.5",
               "--split-out", "split.json", "--split-counts", "2", "1", "1"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--split-out", "split.json"],
                                   ["--split-counts", "1", "1", "1"]])
def test_gen_corpus_rejects_unpaired_split_flags(tmp_path, capsys, monkeypatch, flags):
    """--split-out and --split-counts come together or not at all; either one
    alone fails before the corpus is written."""
    monkeypatch.chdir(tmp_path)
    rc = main(["gen-corpus", "--out", "corpus.jsonl", "--classes", "3",
               "--docs-per-class", "2", "--tokens-per-class", "3", "--overlap", "0.5", *flags])
    assert rc == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_train_command(workspace, capsys):
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--out", str(workspace / "run")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean_acc=" in out
    assert (workspace / "run" / "summary.csv").exists()
    assert (workspace / "run" / "psi_seed1.bin").exists()


def test_train_set_override_and_seed_append(workspace, capsys):
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--set", "method=fomaml", "--seed", "9",
               "--out", str(workspace / "run_fomaml")])
    assert rc == 0
    summary = (workspace / "run_fomaml" / "summary.csv").read_text()
    assert "fomaml" in summary
    assert summary.splitlines()[1].endswith("1;9")


def test_train_rejects_repeated_seed(workspace, capsys):
    rc = main(["train", "--config", str(workspace / "config.json"), "--seed", "1",
               "--out", str(workspace / "run_repeated")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError" and "seed 1" in payload["message"]
    assert not (workspace / "run_repeated").exists()


def test_train_rejects_bad_set_value(workspace, capsys):
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--set", "method=nope"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err[-1])
    assert payload["error"] == "ConfigError"


@pytest.mark.parametrize("config_text,extra", [
    (None, ["--set", "seeds=3", "--seed", "4"]), ("[1, 2]", []),
    (None, ["--set", "use_mtp_test=no"])])
def test_train_rejects_bad_config_input(workspace, capsys, config_text, extra):
    # seeds=3 with --seed raised TypeError, a JSON list as the config raised
    # AttributeError, and use_mtp_test=no trained with the masked-token term on.
    config = workspace / "config.json"
    if config_text is not None:
        config = workspace / "list_config.json"
        config.write_text(config_text)
    rc = main(["train", "--config", str(config), *extra, "--out", str(workspace / "run_bad")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigError"
    assert not (workspace / "run_bad").exists()


def test_train_missing_corpus_exits_nonzero(workspace, capsys):
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--set", "corpus_path=/nonexistent/corpus.jsonl"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    json.loads(err)  # machine readable


def test_export_embeddings_command(workspace, checkpoint, capsys):
    rc = main(["export-embeddings", "--config", str(workspace / "config.json"),
               "--checkpoint", str(checkpoint),
               "--part", "test", "--episode-seed", "3",
               "--out", str(workspace / "emb.csv")])
    assert rc == 0
    lines = (workspace / "emb.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 2


def test_export_embeddings_rejects_other_vocabulary(workspace, checkpoint, capsys):
    # min_freq=10 keeps 33 of the 68 tokens the checkpoint was trained on and
    # renumbers them, so every token id would pick another token's embedding.
    rc = main(["export-embeddings", "--config", str(workspace / "config.json"),
               "--set", "min_freq=10", "--checkpoint", str(checkpoint),
               "--out", str(workspace / "emb_other_vocab.csv")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ValueError"
    assert "vocab_size=68" in payload["message"] and "33 tokens" in payload["message"]
    assert not (workspace / "emb_other_vocab.csv").exists()


def test_ablate_command_with_grid_file(workspace, capsys):
    grid = workspace / "grid.json"
    grid.write_text(json.dumps({"aux_weight": [0.001, 0.0]}))
    rc = main(["ablate", "--config", str(workspace / "config.json"),
               "--grid", str(grid),
               "--set", "test_episodes=4", "--set", "max_epochs=1",
               "--out", str(workspace / "ablation")])
    assert rc == 0
    rows = (workspace / "ablation" / "summary.csv").read_text().splitlines()
    assert len(rows) == 3


@pytest.mark.parametrize("grid", ["strategy", [["aux_weight", [0.0]]]])
def test_ablate_rejects_a_grid_that_is_not_an_object(workspace, capsys, grid):
    """A grid file holding a string or a list is a ConfigError saying what a
    grid must be, not a report of its characters as unknown keys or a
    TypeError."""
    path = workspace / "bad_grid.json"
    path.write_text(json.dumps(grid))
    rc = main(["ablate", "--config", str(workspace / "config.json"), "--grid", str(path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert "grid must map config fields to lists" in err["message"]


def test_check_gradients_command(capsys):
    rc = main(["check-gradients", "--instances", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[ok]") == 3


@pytest.mark.parametrize("count", ["0", "-2"])
def test_check_gradients_rejects_no_instances(capsys, count):
    rc = main(["check-gradients", "--instances", count])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "n_instances must be at least 1" in json.loads(err[0])["message"]


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-1e-6"])
def test_check_gradients_rejects_a_step_that_is_not_finite_and_positive(capsys, step):
    # A NaN step printed three "max relative error 0.000e+00 [ok]" lines and
    # exited 0; a zero step died in a bare ZeroDivisionError.
    rc = main(["check-gradients", "--instances", "1", f"--step={step}"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = json.loads(captured.err.strip())
    assert err == {"error": "ValueError",
                   "message": f"step must be finite and positive, got {float(step)}"}


def test_check_gradients_reports_a_nan_error_as_failure(capsys, monkeypatch):
    # A NaN difference quotient is an error of unknown size, not a zero one.
    monkeypatch.setattr(harness, "central_diff",
                        lambda loss_fn, params, step: np.full(params.flat.size, np.nan))
    rc = main(["check-gradients", "--instances", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("[FAIL]") == 3 and "nan" in out


def test_unknown_grid_name_fails_cleanly(workspace, capsys):
    rc = main(["ablate", "--config", str(workspace / "config.json"),
               "--grid", "/no/such/grid.json"])
    assert rc == 1
    json.loads(capsys.readouterr().err.strip())
