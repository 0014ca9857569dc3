import dataclasses
import json

import numpy as np
import pytest

from metatext.episodes import SamplingError, load_corpus, make_splits, sample_episode
from metatext.harness import (
    ConfigError,
    ExperimentConfig,
    check_gradients,
    export_embeddings,
    gen_synthetic,
    load_experiment_data,
    run_ablation,
    run_training,
    write_split_file,
)
from metatext.meta import MetaConfig
from metatext.model import ModelConfig

from conftest import random_episode, write_jsonl


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    corpus_path = root / "corpus.jsonl"
    split_path = root / "split.json"
    names = gen_synthetic(corpus_path, num_classes=12, docs_per_class=10,
                          tokens_per_class=5, overlap=0.5, doc_len_range=(4, 8), seed=0)
    write_split_file(split_path, names, 6, 3, 3)
    return {"corpus": str(corpus_path), "split": str(split_path), "names": names}


def tiny_config(synth, **kw):
    base = dict(method="amgs", n_way=3, k_shot=1, query_per_class=2,
                inner_steps=2, inner_lr=0.5, meta_lr=0.05,
                d_emb=8, d_h=8, max_len=16,
                episodes_per_epoch_train=6, episodes_per_epoch_val=6,
                test_episodes=8, patience=2, max_epochs=3, seeds=(1,),
                corpus_path=synth["corpus"], split_path=synth["split"])
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_validation_catches_bad_fields(synth):
    with pytest.raises(ConfigError, match="method"):
        tiny_config(synth, method="maml2").validate()
    with pytest.raises(ConfigError, match="patience"):
        tiny_config(synth, patience=0).validate()
    with pytest.raises(ConfigError, match="seeds"):
        tiny_config(synth, seeds=()).validate()
    with pytest.raises(ConfigError, match="positive"):
        tiny_config(synth, meta_lr=0.0).validate()
    with pytest.raises(ConfigError, match="aux_weight"):
        tiny_config(synth, aux_weight=1.5).validate()
    with pytest.raises(ConfigError, match="mask_strategy"):
        tiny_config(synth, mask_strategy=(0.5, 0.2, 0.2)).validate()
    with pytest.raises(ConfigError, match="mask_prob"):
        tiny_config(synth, mask_prob=0.0).validate()
    with pytest.raises(ConfigError, match="support_term"):
        tiny_config(synth, method="reptile", support_term="last").validate()
    with pytest.raises(ConfigError, match="inner_steps"):
        tiny_config(synth, inner_steps=0).validate()


def test_config_rejects_repeated_seeds(synth, tmp_path):
    # A repeated seed would train twice, write one checkpoint and count twice
    # in the mean.
    with pytest.raises(ConfigError, match="seed 2 is repeated"):
        tiny_config(synth, seeds=(1, 2, 3, 2)).validate()
    data = tiny_config(synth).to_dict()
    data["seeds"] = [2, 2]
    with pytest.raises(ConfigError, match="seed 2"):
        ExperimentConfig.from_dict(data)
    with pytest.raises(ConfigError, match="seed 2"):
        run_training(tiny_config(synth, seeds=[2, 2]), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [("seeds", [1, 1.5]), ("seeds", [1, True]),
                                         ("inner_steps", 2.5), ("inner_steps", True),
                                         ("fine_tune_steps", 2.5), ("n_way", 3.0),
                                         ("min_freq", False)])
def test_config_rejects_non_integer_seeds_and_counts(synth, field, value):
    # Seed 1.5 or True draws seed 1's streams, so seed 1 would train twice and
    # count twice in the mean; a float count fails inside range() mid-run, and
    # inner_steps=True runs one step. MetaConfig rejects its own count too.
    data = tiny_config(synth).to_dict()
    data[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        ExperimentConfig.from_dict(data)
    if hasattr(MetaConfig, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            MetaConfig(**{field: value}).validate()


def test_config_rejects_negative_seed(synth, tmp_path):
    # _rng raises on a negative seed only when that seed's turn comes, after
    # every seed before it has trained and written its outputs.
    with pytest.raises(ConfigError, match="seed -1 is negative"):
        run_training(tiny_config(synth, seeds=(1, -1)), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [("inner_lr", float("nan")), ("meta_lr", float("inf")),
                                         ("gate_threshold", float("nan")),
                                         ("gate_threshold", float("-inf")),
                                         ("aux_weight", "x"), ("mask_prob", "x"), ("seeds", 3)])
def test_config_rejects_non_finite_and_non_numeric_settings(synth, field, value):
    # A NaN threshold fails every cos >= threshold, so every gate would stay
    # closed without an error; a string or a bare seed raised TypeError.
    data = tiny_config(synth).to_dict()
    data[field] = value
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict(data)
    if hasattr(MetaConfig, field):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            MetaConfig(**{field: value}).validate()


def test_config_accepts_numpy_integer_seeds(synth):
    # 10**400 has no float value, so no finiteness check may convert it.
    tiny_config(synth, seeds=(np.int64(1), 2, 10**400), fine_tune_steps=np.int64(0)).validate()


def test_run_training_skips_empty_documents(tmp_path):
    rows = [{"text": f"w{c} x{c}{j} y{j}", "label": f"c{c}"}
            for c in range(9) for j in range(3)]
    rows.append({"text": "", "label": "c0"})
    corpus_path = write_jsonl(tmp_path / "corpus.jsonl", rows)
    split_path = tmp_path / "split.json"
    write_split_file(split_path, [f"c{c}" for c in range(9)], 3, 3, 3)
    assert load_corpus(corpus_path, max_len=8).empty_docs == (27,)
    # Every episode draws 3 of class c0's 4 documents.
    run = run_training(tiny_config({"corpus": str(corpus_path), "split": str(split_path)},
                                   query_per_class=2, max_epochs=1, patience=1,
                                   episodes_per_epoch_train=2, episodes_per_epoch_val=2,
                                   test_episodes=2))
    assert run.seed_results[0].epochs_run == 1


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"methodx": "amgs"})


def test_config_dict_round_trip(synth):
    cfg = tiny_config(synth, mask_strategy=(0.8, 0.1, 0.1), seeds=(3, 4))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


# ---------------------------------------------------------------------------
# synthetic corpus


def test_gen_synthetic_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    gen_synthetic(a, 4, 5, 3, 0.5, seed=9)
    gen_synthetic(b, 4, 5, 3, 0.5, seed=9)
    assert a.read_bytes() == b.read_bytes()
    gen_synthetic(b, 4, 5, 3, 0.5, seed=10)
    assert a.read_bytes() != b.read_bytes()


def test_gen_synthetic_disjoint_vocabularies_at_zero_overlap(tmp_path):
    path = tmp_path / "c.jsonl"
    gen_synthetic(path, 3, 8, 4, 0.0, seed=1)
    class_tokens = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        class_tokens.setdefault(row["label"], set()).update(row["text"].split())
    labels = list(class_tokens)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            assert not class_tokens[labels[i]] & class_tokens[labels[j]]


def test_gen_synthetic_identical_pools_at_full_overlap(tmp_path):
    path = tmp_path / "c.jsonl"
    gen_synthetic(path, 3, 8, 4, 1.0, seed=1)
    for line in path.read_text().splitlines():
        row = json.loads(line)
        assert all(tok.startswith("shr") for tok in row["text"].split())


def test_gen_synthetic_respects_doc_len_range(tmp_path):
    path = tmp_path / "c.jsonl"
    gen_synthetic(path, 2, 20, 4, 0.3, doc_len_range=(2, 5), seed=2)
    lengths = [len(json.loads(line)["text"].split()) for line in path.read_text().splitlines()]
    assert min(lengths) >= 2 and max(lengths) <= 5


def test_gen_synthetic_validates_arguments(tmp_path):
    with pytest.raises(ConfigError, match="overlap"):
        gen_synthetic(tmp_path / "x.jsonl", 2, 2, 2, 1.5)
    with pytest.raises(ConfigError, match="doc_len_range"):
        gen_synthetic(tmp_path / "x.jsonl", 2, 2, 2, 0.5, doc_len_range=(0, 4))


def test_gen_synthetic_underfilled_class_fails_at_sampling(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    names = gen_synthetic(corpus_path, 4, 3, 4, 0.5, seed=3)  # 3 docs per class
    corpus = load_corpus(corpus_path, max_len=16)
    split = make_splits(corpus, names, [], [])
    with pytest.raises(SamplingError, match="documents"):
        sample_episode(corpus, split, "train", 2, 2, 2, np.random.default_rng(0))


def test_write_split_file_rejects_oversized_split(tmp_path):
    with pytest.raises(ConfigError, match="exceed"):
        write_split_file(tmp_path / "s.json", ["a", "b"], 2, 1, 0)


def test_write_split_file_rejects_negative_counts(tmp_path):
    # 5, -1, 3 would put class 4 in both train and test.
    path = tmp_path / "s.json"
    with pytest.raises(ConfigError, match="non-negative"):
        write_split_file(path, [f"class{c:03d}" for c in range(8)], 5, -1, 3)
    assert not path.exists()


# ---------------------------------------------------------------------------
# training loop


def test_run_training_produces_complete_result(synth, tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config(synth, seeds=(1, 2))
    run = run_training(cfg, str(out))
    assert run.method == "amgs"
    assert len(run.seed_results) == 2
    for res in run.seed_results:
        assert 1 <= res.best_epoch <= res.epochs_run <= cfg.max_epochs
        assert len(res.train_accuracy) == len(res.val_accuracy) == res.epochs_run
        assert all(0.0 <= a <= 1.0 for a in res.train_accuracy + res.val_accuracy)
        assert len(res.episode_accuracies) == cfg.test_episodes
        # early stopping restores the best-validation parameters
        assert res.val_accuracy[res.best_epoch - 1] == max(res.val_accuracy)
    assert 0.0 <= run.mean_accuracy <= 1.0 and run.std_accuracy >= 0.0

    lines = (out / "metrics.jsonl").read_text().splitlines()
    total_steps = sum(r.epochs_run for r in run.seed_results) * cfg.episodes_per_epoch_train
    assert len(lines) == total_steps
    first = json.loads(lines[0])
    assert first["seed"] == 1 and first["epoch"] == 1 and first["method"] == "amgs"
    epoch_rows = (out / "epochs.csv").read_text().splitlines()
    assert epoch_rows[0] == "seed,epoch,train_acc,val_acc"
    assert len(epoch_rows) == 1 + sum(r.epochs_run for r in run.seed_results)
    assert (out / "psi_seed1.bin").exists() and (out / "psi_seed2.bin").exists()


@pytest.mark.parametrize("method", ["fomaml", "reptile", "amgs_que", "amgs_sup", "amgs_que_sup"])
def test_run_training_all_methods_complete(synth, method):
    run = run_training(tiny_config(synth, method=method, max_epochs=2,
                                   test_episodes=4, episodes_per_epoch_train=3,
                                   episodes_per_epoch_val=3))
    assert len(run.seed_results) == 1


def test_early_stopping_patience_one_constant_metric(synth, monkeypatch):
    calls = {"n": 0}

    def fake_evaluate(psi, eps, config, rng):
        calls["n"] += 1
        return 0.5, [0.5] * len(eps)

    monkeypatch.setattr("metatext.harness._evaluate", fake_evaluate)
    run = run_training(tiny_config(synth, patience=1, max_epochs=10))
    assert run.seed_results[0].epochs_run == 2
    assert run.seed_results[0].best_epoch == 1


def test_early_stopping_tracks_best_epoch(synth, monkeypatch):
    val_series = iter([0.2, 0.5, 0.9, 0.4, 0.4, 0.4])  # best at epoch 3
    state = {"call": 0}

    def fake_evaluate(psi, eps, config, rng):
        state["call"] += 1
        if state["call"] % 2 == 1:  # seen-class evaluation
            return 0.95, [0.95] * len(eps)
        try:
            v = next(val_series)
        except StopIteration:
            v = 0.4
        return v, [v] * len(eps)

    monkeypatch.setattr("metatext.harness._evaluate", fake_evaluate)
    run = run_training(tiny_config(synth, patience=2, max_epochs=10))
    res = run.seed_results[0]
    assert res.best_epoch == 3
    assert res.epochs_run == 5
    assert res.val_accuracy[:5] == [0.2, 0.5, 0.9, 0.4, 0.4]


def test_run_training_hits_max_epochs_cap(synth, monkeypatch):
    def fake_evaluate(psi, eps, config, rng):
        fake_evaluate.v += 0.01  # always improving: only the cap stops the run
        return fake_evaluate.v, [fake_evaluate.v] * len(eps)

    fake_evaluate.v = 0.0
    monkeypatch.setattr("metatext.harness._evaluate", fake_evaluate)
    run = run_training(tiny_config(synth, patience=2, max_epochs=4))
    assert run.seed_results[0].epochs_run == 4
    assert run.seed_results[0].best_epoch == 4


def test_run_training_bitwise_deterministic(synth, tmp_path):
    cfg = tiny_config(synth)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    r1 = run_training(cfg, str(out1))
    r2 = run_training(cfg, str(out2))
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert r1.seed_results[0].episode_accuracies == r2.seed_results[0].episode_accuracies


def test_methods_share_episode_streams(synth):
    # identical seeds must sample identical test episodes regardless of method
    cfg_a = tiny_config(synth, method="amgs")
    cfg_b = tiny_config(synth, method="fomaml")
    corpus, split = load_experiment_data(cfg_a)
    rng_a = np.random.default_rng([1, 7])
    rng_b = np.random.default_rng([1, 7])
    ep_a = sample_episode(corpus, split, "test", 3, 1, 2, rng_a)
    ep_b = sample_episode(corpus, split, "test", 3, 1, 2, rng_b)
    assert ep_a.label_map == ep_b.label_map


# ---------------------------------------------------------------------------
# ablation


def test_run_ablation_rejects_unknown_key_before_running(synth, tmp_path):
    out = tmp_path / "ab"
    with pytest.raises(ConfigError, match="unknown grid keys"):
        run_ablation(tiny_config(synth), {"aux_wt": [0.1]}, str(out))
    assert not out.exists() or not (out / "summary.csv").exists()


def test_run_ablation_emits_product_rows(synth, tmp_path):
    out = tmp_path / "grid"
    cfg = tiny_config(synth, max_epochs=1, test_episodes=4,
                      episodes_per_epoch_train=2, episodes_per_epoch_val=2)
    grid = {"aux_weight": [1e-3, 0.0], "use_mtp_test": [True, False]}
    results = run_ablation(cfg, grid, str(out))
    assert len(results) == 4
    rows = (out / "summary.csv").read_text().splitlines()
    assert len(rows) == 5
    assert rows[0].startswith("aux_weight,use_mtp_test,method")


def test_run_ablation_degenerate_grid_matches_direct_run(synth, tmp_path):
    cfg = tiny_config(synth, max_epochs=2, test_episodes=4,
                      episodes_per_epoch_train=3, episodes_per_epoch_val=3)
    results = run_ablation(cfg, {"aux_weight": [0.0]}, str(tmp_path / "ab"))
    direct = run_training(dataclasses.replace(cfg, aux_weight=0.0),
                          str(tmp_path / "direct"))
    assert results[0][1].mean_accuracy == direct.mean_accuracy
    assert results[0][1].std_accuracy == direct.std_accuracy
    assert ((tmp_path / "ab" / "point_000" / "metrics.jsonl").read_bytes()
            == (tmp_path / "direct" / "metrics.jsonl").read_bytes())


# ---------------------------------------------------------------------------
# embedding export


def test_export_embeddings_row_count_and_round_trip(synth, tmp_path):
    cfg = tiny_config(synth)
    corpus, split = load_experiment_data(cfg)
    model_cfg = ModelConfig(vocab_size=corpus.vocab_size, d_emb=8, d_h=8, n_way=3)
    psi = model_cfg.init_params(np.random.default_rng(0))
    ep = sample_episode(corpus, split, "test", 3, 1, 2, np.random.default_rng(1))
    path = tmp_path / "emb.csv"
    count = export_embeddings(psi, ep, path, corpus, tiny_config(synth, fine_tune_steps=3),
                              np.random.default_rng(2))
    assert count == 3 * 2  # n_way * query_per_class
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["rep_0", "rep_1"]
    assert len(lines) == 1 + count
    for line in lines[1:]:
        cells = line.split(",")
        values = [float(x) for x in cells[:8]]
        assert all(np.isfinite(values))
        assert cells[-1] in synth["names"]
        # 17 significant digits round-trip exactly
        assert [f"{v:.17g}" for v in values] == cells[:8]


def test_export_embeddings_ten_way_five_shot_shape(synth, tmp_path):
    # visualization-style episode: 10-way 5-shot, one row per query example
    cfg = tiny_config(synth)
    corpus, _ = load_experiment_data(cfg)
    names = synth["names"]
    split = make_splits(corpus, names[:2], [], names[2:12])
    model_cfg = ModelConfig(vocab_size=corpus.vocab_size, d_emb=8, d_h=8, n_way=10)
    psi = model_cfg.init_params(np.random.default_rng(0))
    ep = sample_episode(corpus, split, "test", 10, 5, 5, np.random.default_rng(4))
    path = tmp_path / "emb10.csv"
    export_cfg = tiny_config(synth, n_way=10, k_shot=5, query_per_class=5, fine_tune_steps=2)
    count = export_embeddings(psi, ep, path, corpus, export_cfg, np.random.default_rng(5))
    assert count == 10 * 5
    assert len(path.read_text().splitlines()) == 1 + 50


def test_export_embeddings_rejects_a_checkpoint_of_other_shapes(synth, tmp_path):
    # A checkpoint trained on another vocabulary would look the corpus's
    # token ids up in its own rows, which belong to other tokens.
    cfg = tiny_config(synth)
    corpus, split = load_experiment_data(cfg)
    ep = sample_episode(corpus, split, "test", 3, 1, 2, np.random.default_rng(1))
    path = tmp_path / "emb.csv"
    rng = np.random.default_rng(2)
    for shapes, message in ((dict(vocab_size=corpus.vocab_size + 40, n_way=3),
                             f"vocab_size={corpus.vocab_size + 40}, the corpus"),
                            (dict(vocab_size=corpus.vocab_size, n_way=5), "n_way=5")):
        psi = ModelConfig(d_emb=8, d_h=8, **shapes).init_params(rng)
        with pytest.raises(ValueError, match=message):
            export_embeddings(psi, ep, path, corpus, cfg, rng)
    assert not path.exists()


def test_export_embeddings_zero_params_identical_rows(synth, tmp_path):
    cfg = tiny_config(synth)
    corpus, split = load_experiment_data(cfg)
    model_cfg = ModelConfig(vocab_size=corpus.vocab_size, d_emb=8, d_h=8, n_way=3)
    psi = model_cfg.zeros()
    ep = sample_episode(corpus, split, "test", 3, 1, 2, np.random.default_rng(1))
    path = tmp_path / "emb.csv"
    export_cfg = tiny_config(synth, fine_tune_steps=0, use_mtp_test=False, aux_weight=0.0)
    export_embeddings(psi, ep, path, corpus, export_cfg, np.random.default_rng(2))
    reps = {line.rsplit(",", 2)[0] for line in path.read_text().splitlines()[1:]}
    assert len(reps) == 1


# ---------------------------------------------------------------------------
# gradient check entry point


def test_check_gradients_reports_small_errors():
    worst = check_gradients(n_instances=3, seed=0)
    assert set(worst) == {"primary", "aux", "total"}
    assert all(err < 1e-5 for err in worst.values())
