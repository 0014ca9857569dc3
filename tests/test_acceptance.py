"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The directional benchmark (criteria 5 and 6) trains three methods over five
seeds on a fixed synthetic corpus; those runs are shared through a module
fixture and dominate the suite's runtime (several minutes). Run with
`pytest tests/test_acceptance.py -s` to watch the lines appear live.
"""

import dataclasses
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from metatext.episodes import Episode, load_corpus, make_splits, sample_episode
from metatext.harness import (
    DEFAULT_GRIDS,
    ExperimentConfig,
    central_diff,
    gen_synthetic,
    max_rel_err,
    run_ablation,
    run_training,
    write_split_file,
)
from metatext.meta import (
    MetaConfig,
    MetaState,
    _apply_update,
    fomaml_step,
    gate,
    inner_adapt,
    meta_step,
    meta_test,
    reptile_step,
)
from metatext.model import (
    MASK_ID,
    MaskedBatch,
    ModelConfig,
    ModelParams,
    aux_loss,
    grad_primary,
    grad_total,
    mask_tokens,
    primary_loss,
    total_loss,
)

from test_gradients import random_instance

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
from workloads import FIXTURE_CONFIG, FIXTURE_CORPUS, FIXTURE_SPLIT  # noqa: E402


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared benchmark corpus and sweep


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark's fixture corpus, split and config (bench/workloads.py),
    imported, not copied."""
    root = tmp_path_factory.mktemp("bench")
    corpus = root / "corpus.jsonl"
    split = root / "split.json"
    names = gen_synthetic(corpus, seed=0, **FIXTURE_CORPUS)
    write_split_file(split, names, *FIXTURE_SPLIT)
    config = ExperimentConfig(method="amgs", seeds=(1, 2, 3, 4, 5), corpus_path=str(corpus),
                              split_path=str(split), **FIXTURE_CONFIG)
    return {"root": root, "config": config}


@pytest.fixture(scope="module")
def sweep(bench):
    runs = {}
    t0 = time.monotonic()
    for method in ("amgs", "fomaml", "reptile"):
        runs[method] = run_training(replace(bench["config"], method=method))
    return {"runs": runs, "elapsed": time.monotonic() - t0}


def tiny_config(bench, **kw):
    base = replace(bench["config"], n_way=3, query_per_class=2, inner_steps=2,
                   inner_lr=0.5, d_emb=8, d_h=8, episodes_per_epoch_train=3,
                   episodes_per_epoch_val=3, meta_batch_size=1, test_episodes=4,
                   patience=1, max_epochs=1, fine_tune_steps=None,
                   aux_weight=1e-3, seeds=(1,))
    return replace(base, **kw)


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle


def test_criterion_1_gradient_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        params, batch, masked = random_instance(seed)
        cases = (
            (lambda p: primary_loss(p, batch)[0], grad_primary(params, batch)),
            (lambda p: aux_loss(p, masked), grad_total(params, batch, masked, 1.0)),
            (lambda p: total_loss(p, batch, masked, 1e-3),
             grad_total(params, batch, masked, 1e-3)),
        )
        for loss_fn, grad in cases:
            worst = max(worst, max_rel_err(grad, central_diff(loss_fn, params)))
    elapsed = time.monotonic() - t0
    report(1, "gradient oracle", worst < 1e-5 and elapsed < 10.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s over 20 instances x 3 losses")


# ---------------------------------------------------------------------------
# criterion 2: gate soundness


def _shuffled_query(ep, rng):
    labels = [lbl for _, lbl in ep.query]
    perm = rng.permutation(len(labels))
    query = [(ep.query[i][0], labels[perm[i]]) for i in range(len(labels))]
    return Episode(support=ep.support, query=query, label_map=ep.label_map)


@pytest.mark.parametrize("support_term", ["accumulated", "first_step"])
def test_criterion_2_gate_soundness(bench, support_term):
    config = bench["config"]
    corpus = load_corpus(config.corpus_path, config.max_len)
    names = json.loads(open(config.split_path).read())
    split = make_splits(corpus, names["train"], names["val"], names["test"])
    model_cfg = ModelConfig(corpus.vocab_size, 16, 16, config.n_way)
    cfg = MetaConfig(inner_lr=config.inner_lr, meta_lr=config.meta_lr,
                     inner_steps=config.inner_steps, aux_weight=config.aux_weight,
                     support_term=support_term)
    state = MetaState.create(model_cfg.init_params(np.random.default_rng(0)), cfg)
    rng_ep = np.random.default_rng(101)
    rng_shuffle = np.random.default_rng(102)
    psi_flat_ref = state.psi.to_flat()

    n_open = n_closed = 0
    worst_assembly = 0.0
    for step in range(30):
        eps = [sample_episode(corpus, split, "train", config.n_way, config.k_shot,
                              config.query_per_class, rng_ep) for _ in range(2)]
        if step % 3 == 0:
            # label-shuffled queries reliably produce negative cosines
            eps[1] = _shuffled_query(eps[1], rng_shuffle)
        step_seed = [202, step]
        new_state, rep = meta_step(state, eps, np.random.default_rng(step_seed))

        # assembly oracle: rebuild the meta-gradient from its parts
        rng_oracle = np.random.default_rng(step_seed)
        expected_grad = np.zeros_like(psi_flat_ref)
        closed_idx = []
        for i, ep in enumerate(eps):
            adapt = inner_adapt(state.psi, ep, cfg, rng_oracle)
            g_qry = grad_primary(adapt.theta_hat, ep.query)
            cos, gate_open, _ = gate(adapt.g_sup, g_qry, state.psi.layout(), cfg.gate_threshold)
            assert cos == rep.cos_values[i]
            if cfg.support_term == "first_step":
                expected_grad += adapt.first_grad
            else:
                expected_grad += (state.psi.to_flat() - adapt.theta_hat.to_flat()) / cfg.inner_lr
            if gate_open:
                expected_grad += g_qry
                n_open += 1
            else:
                closed_idx.append(i)
                n_closed += 1
        expected_state = _apply_update(state, expected_grad)
        worst_assembly = max(worst_assembly, float(np.abs(
            new_state.psi.to_flat() - expected_state.psi.to_flat()).max()))

        # deleting the query sets of gated-out episodes is a bitwise no-op
        if closed_idx:
            pruned = [Episode(support=ep.support, query=[], label_map=ep.label_map)
                      if i in closed_idx else ep for i, ep in enumerate(eps)]
            pruned_state, _ = meta_step(state, pruned, np.random.default_rng(step_seed))
            assert np.array_equal(pruned_state.psi.to_flat(), new_state.psi.to_flat())
        state = new_state

    ok = worst_assembly < 1e-12 and n_closed >= 3 and n_open >= 10
    report(2, f"gate soundness ({support_term})", ok,
           f"assembly err {worst_assembly:.1e}, {n_closed} closed / {n_open} open")


# ---------------------------------------------------------------------------
# criterion 3: reductions


def test_criterion_3_reductions():
    model_cfg = ModelConfig(vocab_size=20, d_emb=6, d_h=5, n_way=3)
    psi = model_cfg.init_params(np.random.default_rng(1))
    rng_ep = np.random.default_rng(2)

    def episodes(n):
        out = []
        for _ in range(n):
            sup = [(rng_ep.integers(3, 20, size=rng_ep.integers(3, 8)), c)
                   for c in range(3) for _ in range(2)]
            qry = [(rng_ep.integers(3, 20, size=rng_ep.integers(3, 8)), c)
                   for c in range(3) for _ in range(3)]
            out.append(Episode(support=sup, query=qry, label_map=(0, 1, 2)))
        return out

    def fomaml_by_hand(psi, ep):
        # Inner GD on the classification loss alone, then one SGD step along
        # the query gradient at the adapted parameters.
        layout = psi.layout()
        theta = psi.to_flat()
        for _ in range(4):
            theta = theta - 0.3 * grad_total(ModelParams.from_flat(theta, layout),
                                             ep.support, None, 0.0)
        g_qry = grad_primary(ModelParams.from_flat(theta, layout), ep.query)
        return psi.to_flat() - 0.07 * g_qry

    eps = episodes(5)
    # The gated step under the FOMAML settings, and fomaml_step on a config
    # whose aux weight, support term and gate it must ignore, each against
    # the hand-assembled update.
    reduced_cfg = MetaConfig(inner_lr=0.3, meta_lr=0.07, inner_steps=4,
                             aux_weight=0.0, include_support=False,
                             query_mode="always", meta_optimizer="sgd")
    fomaml_cfg = MetaConfig(inner_lr=0.3, meta_lr=0.07, inner_steps=4,
                            meta_optimizer="sgd")
    states = {meta_step: MetaState.create(psi, reduced_cfg),
              fomaml_step: MetaState.create(psi, fomaml_cfg)}
    worst_fomaml = 0.0
    for i, ep in enumerate(eps):
        for step_fn in states:
            expected = fomaml_by_hand(states[step_fn].psi, ep)
            states[step_fn], _ = step_fn(states[step_fn], [ep], np.random.default_rng(i))
            worst_fomaml = max(worst_fomaml, float(np.abs(
                states[step_fn].psi.to_flat() - expected).max()))

    rep_cfg = MetaConfig(inner_lr=0.3, meta_lr=0.07, inner_steps=1,
                         meta_optimizer="sgd")
    s_rep = MetaState.create(psi, rep_cfg)
    worst_reptile = 0.0
    for i, ep in enumerate(eps):
        expected = s_rep.psi.to_flat() - 0.07 * grad_total(
            s_rep.psi, ep.support, None, 0.0)
        s_rep, _ = reptile_step(s_rep, [ep], np.random.default_rng(i))
        worst_reptile = max(worst_reptile, float(np.abs(
            s_rep.psi.to_flat() - expected).max()))

    ok = worst_fomaml < 1e-12 and worst_reptile < 1e-12
    report(3, "reductions", ok,
           f"FOMAML-SGD {worst_fomaml:.1e}, reptile-SGD {worst_reptile:.1e} over 5 steps")


# ---------------------------------------------------------------------------
# criterion 4: masking statistics


def test_criterion_4_masking_statistics():
    rng = np.random.default_rng(7)
    n_seqs, seq_len, vocab = 6250, 16, 50
    total = n_seqs * seq_len
    n_targets = 0
    all_mask = True
    for _ in range(n_seqs):
        seq = rng.integers(3, vocab, size=seq_len)
        masked, targets = mask_tokens(seq, rng, mask_prob=0.30, strategy=(1.0, 0, 0))
        n_targets += len(targets)
        if any(masked[pos] != MASK_ID for pos, _ in targets):
            all_mask = False
    fraction = n_targets / total
    ok = 0.28 <= fraction <= 0.32 and all_mask
    report(4, "masking statistics", ok,
           f"fraction {fraction:.4f} over {total} tokens, all-MASK {all_mask}")


# ---------------------------------------------------------------------------
# criteria 5 and 6: directional synthetic benchmark


def _pooled_std(a, b):
    return float(np.sqrt((a.std_accuracy ** 2 + b.std_accuracy ** 2) / 2.0))


def test_criterion_5_synthetic_benchmark(sweep):
    runs = sweep["runs"]
    amgs, fomaml, reptile = runs["amgs"], runs["fomaml"], runs["reptile"]
    bar_f = fomaml.mean_accuracy - 0.5 * _pooled_std(amgs, fomaml)
    bar_r = reptile.mean_accuracy - 0.5 * _pooled_std(amgs, reptile)
    in_budget = sweep["elapsed"] < 1800.0
    ok = amgs.mean_accuracy >= bar_f and amgs.mean_accuracy >= bar_r and in_budget
    report(5, "synthetic benchmark", ok,
           f"amgs {amgs.mean_accuracy:.4f} vs fomaml {fomaml.mean_accuracy:.4f} "
           f"(bar {bar_f:.4f}) vs reptile {reptile.mean_accuracy:.4f} "
           f"(bar {bar_r:.4f}); sweep {sweep['elapsed']:.0f}s")


def test_criterion_6_overfitting_mitigation(sweep):
    runs = sweep["runs"]

    def gaps(run):
        out = []
        for res in run.seed_results:
            b = res.best_epoch - 1
            out.append(res.train_accuracy[b] - res.val_accuracy[b])
        return out

    amgs_gaps = gaps(runs["amgs"])
    fomaml_gaps = gaps(runs["fomaml"])
    wins = sum(1 for a, f in zip(amgs_gaps, fomaml_gaps) if a <= f)
    ok = wins >= 3
    report(6, "overfitting mitigation", ok,
           f"AMGS gap <= FOMAML gap in {wins}/5 seeds; "
           f"amgs {[f'{g:.2f}' for g in amgs_gaps]}, "
           f"fomaml {[f'{g:.2f}' for g in fomaml_gaps]}")


# ---------------------------------------------------------------------------
# criterion 7: ablation machinery


def test_criterion_7_ablation_machinery(bench, tmp_path):
    cfg = tiny_config(bench)
    counts = {}
    for name, grid in DEFAULT_GRIDS.items():
        expected = int(np.prod([len(v) for v in grid.values()]))
        out = tmp_path / name
        results = run_ablation(cfg, grid, str(out))
        rows = (out / "summary.csv").read_text().splitlines()
        counts[name] = (len(results), expected)
        assert len(results) == expected
        assert len(rows) == expected + 1

    # the aux_weight=0 row is bitwise the MTP-disabled run
    rho_grid = DEFAULT_GRIDS["aux_weight"]["aux_weight"]
    zero_idx = rho_grid.index(0.0)
    point_dir = tmp_path / "aux_weight" / f"point_{zero_idx:03d}"
    direct_dir = tmp_path / "direct_zero"
    run_training(replace(cfg, aux_weight=0.0), str(direct_dir))
    bitwise = ((point_dir / "metrics.jsonl").read_bytes()
               == (direct_dir / "metrics.jsonl").read_bytes())
    ok = bitwise and all(got == want for got, want in counts.values())
    report(7, "ablation machinery", ok,
           f"rows {counts}, zero-weight row bitwise {bitwise}")


# ---------------------------------------------------------------------------
# criterion 8: determinism


def test_criterion_8_determinism(bench, tmp_path):
    cfg = tiny_config(bench, max_epochs=2, seeds=(11,))
    run_training(cfg, str(tmp_path / "a"))
    run_training(cfg, str(tmp_path / "b"))
    same_summary = ((tmp_path / "a" / "summary.csv").read_bytes()
                    == (tmp_path / "b" / "summary.csv").read_bytes())
    same_metrics = ((tmp_path / "a" / "metrics.jsonl").read_bytes()
                    == (tmp_path / "b" / "metrics.jsonl").read_bytes())
    report(8, "determinism", same_summary and same_metrics,
           f"summary bitwise {same_summary}, metrics bitwise {same_metrics}")


# ---------------------------------------------------------------------------
# criterion 9: separability sanity


def test_criterion_9_separability(tmp_path_factory):
    root = tmp_path_factory.mktemp("sep")

    def build(overlap):
        corpus_path = root / f"corpus_{overlap}.jsonl"
        names = gen_synthetic(corpus_path, num_classes=45, docs_per_class=30,
                              tokens_per_class=8, overlap=overlap,
                              doc_len_range=(6, 12), seed=0)
        corpus = load_corpus(corpus_path, max_len=32)
        split = make_splits(corpus, names[:30], names[30:35], names[35:45])
        return corpus, split

    fine_tune_cfg = MetaConfig(inner_lr=1.0, aux_weight=1e-3)
    corpus0, split0 = build(0.0)
    model_cfg = ModelConfig(corpus0.vocab_size, 32, 32, 5)
    psi = model_cfg.init_params(np.random.default_rng([0, 0]))
    rng_s, rng_a = np.random.default_rng([0, 7]), np.random.default_rng([0, 8])
    perfect = 0
    for _ in range(200):
        ep = sample_episode(corpus0, split0, "test", 5, 5, 5, rng_s)
        acc, _ = meta_test(psi, ep, 20, True, fine_tune_cfg, rng_a)
        perfect += acc == 1.0

    corpus1, split1 = build(1.0)
    model_cfg1 = ModelConfig(corpus1.vocab_size, 32, 32, 5)
    psi1 = model_cfg1.init_params(np.random.default_rng([0, 0]))
    rng_s, rng_a = np.random.default_rng([0, 7]), np.random.default_rng([0, 8])
    accs = []
    for _ in range(200):
        ep = sample_episode(corpus1, split1, "test", 5, 1, 5, rng_s)
        acc, _ = meta_test(psi1, ep, 20, True, fine_tune_cfg, rng_a)
        accs.append(acc)
    chance = float(np.mean(accs))

    ok = perfect >= 190 and 0.15 <= chance <= 0.25
    report(9, "separability sanity", ok,
           f"overlap=0 perfect {perfect}/200; overlap=1 mean {chance:.4f} (1/N = 0.2)")
