import json
import re

import numpy as np
import pytest

from metatext import meta
from metatext.episodes import Episode
from metatext.harness import METHOD_PRESETS, METHODS, ExperimentConfig, _step_fn
from metatext.meta import (
    InnerLoopError,
    MetaConfig,
    MetaState,
    _apply_update,
    fine_tune,
    fomaml_step,
    gate,
    inner_adapt,
    load_meta_state,
    meta_step,
    meta_test,
    reptile_step,
    save_meta_state,
)
from metatext.model import (
    MaskedBatch,
    ModelConfig,
    ModelParams,
    NumericalError,
    grad_primary,
    grad_total,
    save_params,
    total_loss,
)

from conftest import random_episode


@pytest.fixture
def setup():
    rng = np.random.default_rng(11)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    psi = cfg.init_params(rng)
    ep = random_episode(rng)
    return cfg, psi, ep, rng


def adapt_config(inner_lr, inner_steps, aux_weight, **kw):
    """The MetaConfig fields the inner loop and fine-tuning read."""
    return MetaConfig(inner_lr=inner_lr, inner_steps=inner_steps, aux_weight=aux_weight, **kw)


def sgd_config(method="amgs", **kw):
    """An SGD MetaConfig with method's preset over kw, as
    ExperimentConfig.meta_config() lays a preset over the experiment's values."""
    base = dict(inner_lr=0.1, meta_lr=0.05, inner_steps=2, aux_weight=1e-3,
                meta_optimizer="sgd")
    return MetaConfig(**{**base, **kw, **METHOD_PRESETS[method]})


# ---------------------------------------------------------------------------
# inner_adapt


def test_inner_adapt_single_step_exact(setup):
    _, psi, ep, _ = setup
    res = inner_adapt(psi, ep, adapt_config(0.1, 1, 0.0), np.random.default_rng(0))
    expected = psi.to_flat() - 0.1 * grad_total(psi, ep.support, None, 0.0)
    assert np.array_equal(res.theta_hat.to_flat(), expected)
    assert len(res.loss_trace) == 1


def test_inner_adapt_zero_rate_is_null_update(setup):
    _, psi, ep, _ = setup
    res = inner_adapt(psi, ep, adapt_config(0.0, 4, 0.0), np.random.default_rng(0))
    assert np.array_equal(res.theta_hat.to_flat(), psi.to_flat())
    assert len(set(res.loss_trace)) == 1
    assert np.all(res.g_sup == 0.0)


def test_inner_adapt_matches_independent_loop(setup):
    # reference: an explicit loop written separately from the implementation
    _, psi, ep, _ = setup
    rng = np.random.default_rng(3)
    masked = MaskedBatch.build([s for s, _ in ep.support], rng, vocab_size=12)
    res = inner_adapt(psi, ep, adapt_config(0.2, 5, 1e-3), np.random.default_rng(99),
                      masked=masked)

    flat = psi.to_flat()
    layout = psi.layout()
    for _ in range(5):
        params = ModelParams.from_flat(flat, layout)
        flat = flat - 0.2 * grad_total(params, ep.support, masked, 1e-3)
    assert np.abs(res.theta_hat.to_flat() - flat).max() < 1e-12
    expected_dir = (psi.to_flat() - flat) / 0.2
    assert np.abs(res.g_sup - expected_dir).max() < 1e-12


def test_inner_adapt_first_step_direction(setup):
    _, psi, ep, _ = setup
    res = inner_adapt(psi, ep, adapt_config(0.1, 3, 0.0, support_direction="first_step"),
                      np.random.default_rng(0))
    g0 = grad_total(psi, ep.support, None, 0.0)
    assert np.array_equal(res.g_sup, g0)
    assert np.array_equal(res.first_grad, g0)


def test_inner_adapt_mask_drawn_once_and_reproducible(setup):
    _, psi, ep, _ = setup
    r1 = inner_adapt(psi, ep, adapt_config(0.1, 3, 0.5), np.random.default_rng(42))
    r2 = inner_adapt(psi, ep, adapt_config(0.1, 3, 0.5), np.random.default_rng(42))
    assert r1.masked.targets == r2.masked.targets
    assert np.array_equal(r1.theta_hat.to_flat(), r2.theta_hat.to_flat())
    # trace decreases only if the fixed mask is reused; mostly a smoke check
    assert len(r1.loss_trace) == 3


def test_inner_adapt_divergence_carries_step_index(setup):
    _, psi, ep, _ = setup
    psi = psi.copy()
    psi.E[3, 0] = np.nan
    with pytest.raises(InnerLoopError) as err:
        inner_adapt(psi, ep, adapt_config(0.1, 3, 0.0), np.random.default_rng(0))
    assert err.value.step == 1


def test_inner_adapt_blowup_reports_later_step(setup):
    _, psi, ep, _ = setup
    with np.errstate(all="ignore"), pytest.raises(InnerLoopError) as err:
        inner_adapt(psi, ep, adapt_config(1e308, 4, 0.0), np.random.default_rng(0))
    assert err.value.step >= 2


# ---------------------------------------------------------------------------
# gate


def test_gate_identical_and_antiparallel(setup):
    _, psi, ep, _ = setup
    g = grad_primary(psi, ep.query)
    cos, open_, _ = gate(g, g, psi.layout())
    assert cos == 1.0 and open_
    cos, open_, _ = gate(g, -g, psi.layout())
    assert cos == -1.0 and not open_


def test_gate_zero_query_gradient_opens(setup):
    _, psi, ep, _ = setup
    g = grad_primary(psi, ep.query)
    cos, open_, _ = gate(g, np.zeros_like(g), psi.layout())
    assert cos == 0.0 and open_


def test_gate_threshold_semantics(setup):
    _, psi, ep, _ = setup
    g = grad_primary(psi, ep.query)
    cos, open_, _ = gate(g, g, psi.layout(), threshold=1.0)
    assert open_  # cos == 1.0 >= 1.0
    _, open_, _ = gate(g, g, psi.layout(), threshold=1.5)
    assert not open_


@pytest.mark.parametrize("scale", [1e-9, 0.5, 3.7, 1e9])
def test_gate_positive_scale_invariance(scale, setup):
    _, psi, ep, rng = setup
    g_sup = grad_total(psi, ep.support, None, 0.0)
    g_qry = grad_primary(psi, ep.query)
    cos0, open0, _ = gate(g_sup, g_qry, psi.layout())
    cos1, open1, _ = gate(g_sup, scale * g_qry, psi.layout())
    assert abs(cos0 - cos1) < 1e-12
    assert open0 == open1


def test_gate_ignores_predictor_blocks(setup):
    _, psi, ep, rng = setup
    g_sup = grad_total(psi, ep.support, None, 0.0)
    g_qry = grad_primary(psi, ep.query)
    noisy = g_sup.copy()
    noisy[psi.layout().slices["P"]] = 1e6  # must not affect the cosine
    cos0, _, _ = gate(g_sup, g_qry, psi.layout())
    cos1, _, _ = gate(noisy, g_qry, psi.layout())
    assert cos0 == cos1


def test_gate_layout_mismatch(setup):
    cfg, psi, ep, _ = setup
    other = ModelConfig(vocab_size=12, d_emb=5, d_h=3, n_way=3)
    g1 = np.zeros(cfg.layout().size)
    g2 = np.zeros(other.layout().size)
    with pytest.raises(ValueError, match="layout"):
        gate(g1, g2, cfg.layout())
    with pytest.raises(ValueError, match="layout"):
        gate(g2, g1, cfg.layout())


# ---------------------------------------------------------------------------
# meta_step: an episode's query side and its record


@pytest.mark.parametrize("threshold", [0.0, 0.5, -0.5])
def test_evaluate_episode_invariants(threshold, setup):
    # The predictor blocks of the query gradient are exactly zero:
    # test_gradients.py::test_primary_gradient_predictor_blocks_exactly_zero.
    _, psi, ep, _ = setup
    cfg = MetaConfig(inner_lr=0.1, meta_lr=0.05, inner_steps=3, aux_weight=1e-3,
                     gate_threshold=threshold)
    _, rep = meta_step(MetaState.create(psi, cfg), [ep], np.random.default_rng(0))
    (cos,), (gate_open,) = rep["cos"], rep["gate_open"]
    assert gate_open == (cos >= threshold) and rep["query_used"] == [gate_open]
    assert -1.0 <= cos <= 1.0
    assert len(inner_adapt(psi, ep, cfg, np.random.default_rng(0)).loss_trace) == cfg.inner_steps


def test_evaluate_episode_without_query(setup):
    _, psi, ep, _ = setup
    cfg = MetaConfig(inner_lr=0.1, meta_lr=0.05, inner_steps=2)
    bare = Episode(support=ep.support, query=[], label_map=ep.label_map)
    _, rep = meta_step(MetaState.create(psi, cfg), [bare], np.random.default_rng(0))
    assert rep["cos"] == rep["gate_open"] == rep["g_qry_norm"] == rep["query_loss"] == [None]
    assert rep["query_used"] == [False] and rep["g_sup_norm"][0] > 0.0


def test_meta_step_closed_gate_equals_deleted_query(setup):
    _, psi, ep, _ = setup
    closed = MetaState.create(psi, sgd_config(gate_threshold=2.0))  # cos <= 1 < 2
    s_closed, rep = meta_step(closed, [ep], np.random.default_rng(5))
    assert rep["gate_open"] == [False] and rep["query_used"] == [False]

    never = MetaState.create(psi, sgd_config(query_mode="never"))
    s_never, _ = meta_step(never, [ep], np.random.default_rng(5))
    assert np.array_equal(s_closed.psi.to_flat(), s_never.psi.to_flat())

    no_query = Episode(support=ep.support, query=[], label_map=ep.label_map)
    deleted = MetaState.create(psi, sgd_config(gate_threshold=2.0))
    s_deleted, rep_d = meta_step(deleted, [no_query], np.random.default_rng(5))
    assert np.array_equal(s_closed.psi.to_flat(), s_deleted.psi.to_flat())
    assert rep_d["cos"] == [None]


def test_meta_step_open_gate_matches_hand_assembly(setup):
    # the literal one-step support term: contribution is first_grad + g_qry
    _, psi, ep, _ = setup
    state = MetaState.create(psi, sgd_config(gate_threshold=-2.0,
                                             support_term="first_step"))
    new, rep = meta_step(state, [ep], np.random.default_rng(6))
    assert rep["query_used"] == [True]

    adapt = inner_adapt(psi, ep, adapt_config(0.1, 2, 1e-3), np.random.default_rng(6))
    g_qry = grad_primary(adapt.theta_hat, ep.query)
    expected = psi.to_flat() - 0.05 * (adapt.first_grad + g_qry)
    assert np.abs(new.psi.to_flat() - expected).max() < 1e-12


def test_meta_step_batch_additivity(setup):
    _, psi, _, rng = setup
    ep1 = random_episode(rng)
    ep2 = random_episode(rng)
    state = MetaState.create(psi, sgd_config(query_mode="always"))

    batch_state, _ = meta_step(state, [ep1, ep2], np.random.default_rng(7))

    iso_rng = np.random.default_rng(7)  # same stream, consumed in the same order
    s1, _ = meta_step(state, [ep1], iso_rng)
    s2, _ = meta_step(state, [ep2], iso_rng)
    g1 = (psi.to_flat() - s1.psi.to_flat()) / 0.05
    g2 = (psi.to_flat() - s2.psi.to_flat()) / 0.05
    expected = psi.to_flat() - 0.05 * (g1 + g2)
    assert np.abs(batch_state.psi.to_flat() - expected).max() < 1e-12


def test_meta_step_accumulated_support_term(setup):
    _, psi, ep, _ = setup
    state = MetaState.create(psi, sgd_config(support_term="accumulated",
                                             query_mode="never"))
    new, _ = meta_step(state, [ep], np.random.default_rng(8))
    adapt = inner_adapt(psi, ep, adapt_config(0.1, 2, 1e-3), np.random.default_rng(8))
    expected = psi.to_flat() - 0.05 * (psi.to_flat() - adapt.theta_hat.to_flat()) / 0.1
    assert np.abs(new.psi.to_flat() - expected).max() < 1e-12


def test_meta_step_increments_step_count_and_keeps_moments_sane(setup):
    _, psi, ep, _ = setup
    state = MetaState.create(psi, MetaConfig(inner_lr=0.1, meta_lr=0.01, inner_steps=1))
    for i in range(3):
        state, _ = meta_step(state, [ep], np.random.default_rng(i))
        assert state.step_count == i + 1
        assert np.all(state.v >= 0.0)
        assert state.m.shape == (psi.layout().size,)


def test_meta_step_rejects_empty_batch(setup):
    _, psi, ep, _ = setup
    state = MetaState.create(psi, sgd_config())
    with pytest.raises(ValueError, match="empty"):
        meta_step(state, [], np.random.default_rng(0))


def test_meta_step_nonfinite_meta_gradient_aborts(setup):
    _, psi, ep, _ = setup
    bad = psi.copy()
    bad.C[0, 0] = np.inf
    state = MetaState.create(bad, sgd_config())
    with np.errstate(all="ignore"), pytest.raises((NumericalError, InnerLoopError)):
        meta_step(state, [ep], np.random.default_rng(0))


def test_meta_step_report_is_json_serializable(setup):
    _, psi, ep, _ = setup
    state = MetaState.create(psi, sgd_config())
    _, rep = meta_step(state, [ep], np.random.default_rng(0))
    line = json.dumps(rep)
    decoded = json.loads(line)
    assert list(decoded) == ["step", "cos", "gate_open", "query_used", "support_loss",
                             "query_loss", "g_sup_norm", "g_qry_norm", "aux_targets",
                             "meta_grad_norm"]
    assert decoded["step"] == 1
    assert len(decoded["cos"]) == 1


@pytest.mark.parametrize("method,use_query",
                         [(m, False) for m in METHODS] + [("reptile", True)])
def test_step_report_fields_per_method(method, use_query, setup, monkeypatch):
    # Which record keys each method fills; metrics.jsonl carries them.
    _, psi, ep, rng = setup
    calls = {"grad_primary": 0, "gate": 0}
    for name in calls:
        def counted(*args, _fn=getattr(meta, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(meta, name, counted)
    config = ExperimentConfig(method=method, inner_lr=0.1, meta_lr=0.05, inner_steps=2,
                              aux_weight=1e-3, reptile_use_query=use_query)
    state = MetaState.create(psi, config.meta_config())
    _, rep = _step_fn(method)(state, [ep, random_episode(rng)], np.random.default_rng(0))
    n = 2
    json.dumps(rep)
    assert all(isinstance(x, float) for x in rep["support_loss"])
    if method in ("fomaml", "reptile"):
        assert rep["cos"] == rep["gate_open"] == rep["g_sup_norm"] == [None] * n
        assert rep["aux_targets"] == [0] * n
        assert calls["gate"] == 0
    else:  # amgs_sup, too, logs the cosine it does not act on
        assert all(isinstance(x, float) for x in rep["cos"] + rep["g_sup_norm"])
        assert all(isinstance(x, bool) for x in rep["gate_open"])
        assert all(x > 0 for x in rep["aux_targets"])
        assert calls["gate"] == n
    if method == "reptile":
        assert rep["query_loss"] == rep["g_qry_norm"] == [None] * n
        assert rep["query_used"] == [use_query] * n
        assert calls["grad_primary"] == 0
    else:
        assert all(isinstance(x, float) for x in rep["query_loss"] + rep["g_qry_norm"])
        assert calls["grad_primary"] == n
    if method == "fomaml":
        assert rep["query_used"] == [True] * n


# ---------------------------------------------------------------------------
# baselines


def test_fomaml_single_step_formula(setup):
    _, psi, ep, _ = setup
    state = MetaState.create(psi, sgd_config("fomaml", inner_steps=1))
    new, _ = fomaml_step(state, [ep], np.random.default_rng(0))
    inner = psi.to_flat() - 0.1 * grad_primary(psi, ep.support)
    theta = ModelParams.from_flat(inner, psi.layout())
    expected = psi.to_flat() - 0.05 * grad_primary(theta, ep.query)
    assert np.abs(new.psi.to_flat() - expected).max() < 1e-12


def test_fomaml_equals_reduced_amgs(setup):
    # Both the gated step under the FOMAML settings spelled out and
    # fomaml_step on FOMAML's preset config match a hand-assembled FOMAML
    # update: inner GD on the classification loss, then the query gradient
    # at the adapted parameters.
    _, psi, ep, _ = setup
    theta = psi.to_flat()
    for _ in range(2):
        theta = theta - 0.1 * grad_total(ModelParams.from_flat(theta, psi.layout()),
                                         ep.support, None, 0.0)
    g_qry = grad_primary(ModelParams.from_flat(theta, psi.layout()), ep.query)
    expected = psi.to_flat() - 0.05 * g_qry

    reduced = MetaState.create(psi, sgd_config(aux_weight=0.0, include_support=False,
                                               query_mode="always"))
    s_amgs, _ = meta_step(reduced, [ep], np.random.default_rng(1))
    s_fom, _ = fomaml_step(MetaState.create(psi, sgd_config("fomaml")), [ep],
                           np.random.default_rng(1))
    assert np.abs(s_amgs.psi.to_flat() - expected).max() < 1e-12
    assert np.abs(s_fom.psi.to_flat() - expected).max() < 1e-12


def test_fomaml_skips_queryless_episodes_like_meta_step(setup):
    # The FOMAML preset of meta_step, on Adam: a query-less episode adds
    # nothing to the meta-gradient and reports no query loss or norm.
    _, psi, ep, rng = setup
    bare = Episode(support=random_episode(rng).support, query=[], label_map=ep.label_map)
    batch = [bare, ep, bare]
    preset = MetaConfig(inner_lr=0.1, meta_lr=0.05, inner_steps=2, aux_weight=0.0,
                        include_support=False, query_mode="always")
    s_ref, r_ref = meta_step(MetaState.create(psi, preset), batch, np.random.default_rng(4))
    s_fom, r_fom = fomaml_step(MetaState.create(psi, preset), batch, np.random.default_rng(4))
    for a, b in ((s_ref.psi.to_flat(), s_fom.psi.to_flat()), (s_ref.m, s_fom.m),
                 (s_ref.v, s_fom.v)):
        assert a.tobytes() == b.tobytes()
    assert r_fom["query_used"] == r_ref["query_used"] == [False, True, False]
    assert r_fom["query_loss"] == r_ref["query_loss"]
    assert r_fom["support_loss"] == r_ref["support_loss"]
    assert r_fom["g_qry_norm"] == r_ref["g_qry_norm"]
    assert r_fom["meta_grad_norm"] == r_ref["meta_grad_norm"]


def _two_way_zero_setup():
    # With n_way=2 and balanced labels, the zero-parameter gradient is exactly
    # zero: the softmax residuals are representable halves that cancel.
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=2)
    ep = random_episode(np.random.default_rng(5), n_way=2, k_shot=2, q=2)
    return cfg.zeros(), ep


def test_fomaml_zero_query_gradient_null_update():
    zero, ep = _two_way_zero_setup()
    state = MetaState.create(zero, sgd_config("fomaml"))
    new, _ = fomaml_step(state, [ep], np.random.default_rng(0))
    assert np.array_equal(new.psi.to_flat(), zero.to_flat())


def test_reptile_single_step_is_scaled_gradient_descent(setup):
    _, psi, ep, _ = setup
    state = MetaState.create(psi, sgd_config("reptile", inner_steps=1))
    new, _ = reptile_step(state, [ep], np.random.default_rng(0))
    expected = psi.to_flat() - 0.05 * grad_total(psi, ep.support, None, 0.0)
    assert np.abs(new.psi.to_flat() - expected).max() < 1e-12


def test_reptile_small_rate_limit_is_summed_gradient(setup):
    # (psi - theta_hat)/lr cancels catastrophically per entry at lr=1e-12, so
    # the limit is checked at the vector level.
    _, psi, ep, _ = setup
    t = 3
    state = MetaState.create(psi, sgd_config("reptile", inner_lr=1e-12, inner_steps=t))
    new, _ = reptile_step(state, [ep], np.random.default_rng(0))
    direction = (psi.to_flat() - new.psi.to_flat()) / 0.05
    target = t * grad_total(psi, ep.support, None, 0.0)
    rel = np.linalg.norm(direction - target) / np.linalg.norm(target)
    assert rel < 1e-3


def test_reptile_converged_inner_loop_moves_nothing():
    zero, ep = _two_way_zero_setup()  # zero gradients: theta_hat stays at psi
    state = MetaState.create(zero, sgd_config("reptile"))
    new, _ = reptile_step(state, [ep], np.random.default_rng(0))
    assert np.array_equal(new.psi.to_flat(), zero.to_flat())


def test_reptile_query_mode_changes_update(setup):
    _, psi, ep, _ = setup
    s_sup, _ = reptile_step(MetaState.create(psi, sgd_config("reptile")), [ep],
                            np.random.default_rng(0))
    s_all, rep = reptile_step(
        MetaState.create(psi, sgd_config("reptile", reptile_use_query=True)), [ep],
        np.random.default_rng(0))
    assert rep["query_used"] == [True]
    assert not np.array_equal(s_sup.psi.to_flat(), s_all.psi.to_flat())


def test_reptile_requires_positive_inner_rate(setup):
    _, psi, ep, _ = setup
    state = MetaState.create(psi, sgd_config("reptile", inner_lr=0.0))
    with pytest.raises(ValueError, match="positive"):
        reptile_step(state, [ep], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# meta_test


def test_meta_test_zero_params_no_finetune_gives_chance(setup):
    cfg, _, _, _ = setup
    zero = cfg.zeros()
    rng = np.random.default_rng(4)
    accs = []
    for _ in range(200):
        ep = random_episode(rng, n_way=3, k_shot=1, q=4)
        acc, preds = meta_test(zero, ep, 0, True, adapt_config(0.1, 1, 1e-3), rng)
        assert np.all(preds == 0)  # uniform logits, argmax tie -> label 0
        accs.append(acc)
    assert abs(np.mean(accs) - 1 / 3) < 0.05


def test_meta_test_solves_separable_episode():
    cfg = ModelConfig(vocab_size=8, d_emb=6, d_h=6, n_way=2)
    psi = cfg.init_params(np.random.default_rng(0))
    support = [(np.array([3, 4, 3]), 0), (np.array([5, 6, 5]), 1)]
    query = [(np.array([4, 3, 4]), 0), (np.array([3, 3, 4]), 0),
             (np.array([6, 5, 6]), 1), (np.array([5, 5, 5]), 1)]
    ep = Episode(support=support, query=query, label_map=(0, 1))
    acc, _ = meta_test(psi, ep, 20, False, adapt_config(0.5, 1, 0.0), np.random.default_rng(1))
    assert acc == 1.0


def test_meta_test_mtp_toggle_is_noop_at_zero_weight(setup):
    _, psi, ep, _ = setup
    cfg = adapt_config(0.1, 1, 0.0)
    acc_on, preds_on = meta_test(psi, ep, 5, True, cfg, np.random.default_rng(2))
    acc_off, preds_off = meta_test(psi, ep, 5, False, cfg, np.random.default_rng(2))
    assert acc_on == acc_off
    assert np.array_equal(preds_on, preds_off)


def test_meta_test_never_mutates_psi(setup):
    _, psi, ep, _ = setup
    before = psi.to_flat()
    meta_test(psi, ep, 5, True, adapt_config(0.3, 1, 0.5), np.random.default_rng(3))
    assert np.array_equal(psi.to_flat(), before)


def test_fine_tune_zero_steps_returns_psi(setup):
    _, psi, ep, _ = setup
    assert fine_tune(psi, ep.support, 0, True, adapt_config(0.1, 1, 0.5),
                     np.random.default_rng(0)) is psi


# ---------------------------------------------------------------------------
# meta optimizer


def test_adam_constant_gradient_update_magnitude_approaches_rate(setup):
    cfg, psi, _, _ = setup
    state = MetaState.create(psi, MetaConfig(inner_lr=0.1, meta_lr=0.05))
    g = np.ones(psi.layout().size)
    g[::3] = -2.0
    for _ in range(50):
        prev = state.psi.to_flat()
        state = _apply_update(state, g)
        step = np.abs(state.psi.to_flat() - prev)
    assert np.abs(step - 0.05).max() < 1e-6


def test_sgd_mode_is_plain_descent(setup):
    _, psi, _, _ = setup
    state = MetaState.create(psi, sgd_config())
    g = np.full(psi.layout().size, 0.25)
    new = _apply_update(state, g)
    assert np.array_equal(new.psi.to_flat(), psi.to_flat() - 0.05 * g)
    assert np.all(new.m == 0.0) and np.all(new.v == 0.0)


def expression_update(state, g):
    """(psi, m, v) after one step, as the chained expressions of the Adam and
    SGD updates compute them, with a fresh array for every operation."""
    cfg, t = state.cfg, state.step_count + 1
    if cfg.meta_optimizer == "sgd":
        return state.psi.flat - cfg.meta_lr * g, state.m.copy(), state.v.copy()
    m = meta.ADAM_BETA1 * state.m + (1.0 - meta.ADAM_BETA1) * g
    v = meta.ADAM_BETA2 * state.v + (1.0 - meta.ADAM_BETA2) * g ** 2
    m_hat = m / (1.0 - meta.ADAM_BETA1 ** t)
    v_hat = v / (1.0 - meta.ADAM_BETA2 ** t)
    return state.psi.flat - cfg.meta_lr * m_hat / (np.sqrt(v_hat) + meta.ADAM_EPS), m, v


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_apply_update_keeps_the_expression_bits(setup, optimizer):
    """The update writes into its outputs and one temporary, operation by
    operation: over three steps psi, m and v are bitwise the chained
    expression's, and the input state and gradient are left as they were."""
    _, psi, _, rng = setup
    state = MetaState.create(psi, MetaConfig(meta_lr=0.05, meta_optimizer=optimizer))
    for _ in range(3):
        g = rng.normal(size=psi.layout().size) * 10.0 ** rng.integers(-8, 3, psi.layout().size)
        before = [arr.copy() for arr in (state.psi.flat, state.m, state.v, g)]
        want = expression_update(state, g)
        new = _apply_update(state, g)
        for got, expected in zip((new.psi.flat, new.m, new.v), want):
            assert got.tobytes() == expected.tobytes()
        for arr, old in zip((state.psi.flat, state.m, state.v, g), before):
            assert arr.tobytes() == old.tobytes()
        state = new


def test_apply_update_rejects_nonfinite(setup):
    _, psi, _, _ = setup
    state = MetaState.create(psi, sgd_config())
    g = np.zeros(psi.layout().size)
    g[psi.layout().slices["C"].start] = np.nan
    with pytest.raises(NumericalError, match="in block C"):
        _apply_update(state, g)


# ---------------------------------------------------------------------------
# determinism and checkpointing


def test_trajectory_deterministic(setup):
    _, psi, _, _ = setup

    def run():
        rng = np.random.default_rng(123)
        state = MetaState.create(psi, MetaConfig(inner_lr=0.1, meta_lr=0.01,
                                                 inner_steps=2))
        for _ in range(5):
            ep = random_episode(rng)
            state, _ = meta_step(state, [ep], rng)
        return state.psi.to_flat()

    assert np.array_equal(run(), run())


def test_meta_state_checkpoint_round_trip(tmp_path, setup):
    _, psi, ep, _ = setup
    cfg = MetaConfig(inner_lr=0.1, meta_lr=0.01, inner_steps=1)
    state = MetaState.create(psi, cfg)
    state, _ = meta_step(state, [ep], np.random.default_rng(0))
    path = tmp_path / "meta.bin"
    save_meta_state(path, state)
    loaded = load_meta_state(path, cfg)
    assert loaded.step_count == state.step_count
    assert np.array_equal(loaded.psi.to_flat(), state.psi.to_flat())
    assert np.array_equal(loaded.m, state.m)
    assert np.array_equal(loaded.v, state.v)


@pytest.mark.parametrize("sections", [{}, {"adam_m": None}, {"adam_v": None, "adam_m": None},
                                      {"adam_m": None, "adam_v": None, "extra": None}])
def test_load_meta_state_names_the_file_on_wrong_sections(tmp_path, setup, sections):
    """A metatext-meta file whose sections are not exactly psi, adam_m and
    adam_v raises ValueError naming the file, not an unpacking error."""
    _, psi, _, _ = setup
    path = tmp_path / "meta.bin"
    save_params(path, psi, "metatext-meta", {name: psi.flat for name in sections},
                step_count=3)
    with pytest.raises(ValueError, match=re.escape(f"{path}: sections must be psi, adam_m, adam_v")):
        load_meta_state(path, MetaConfig())


@pytest.mark.parametrize("step_count", [None, -1, 2.5, "3", True])
def test_load_meta_state_names_the_file_on_bad_step_count(tmp_path, setup, step_count):
    """A metatext-meta file whose step_count is missing or not a
    non-negative integer raises ValueError naming the file."""
    _, psi, _, _ = setup
    path = tmp_path / "meta.bin"
    extra = {} if step_count is None else {"step_count": step_count}
    save_params(path, psi, "metatext-meta", {"adam_m": psi.flat, "adam_v": psi.flat}, **extra)
    with pytest.raises(ValueError, match=re.escape(f"{path}: step_count must be a non-negative integer")):
        load_meta_state(path, MetaConfig())


def test_meta_config_checks_masking():
    with pytest.raises(ValueError, match="mask_prob"):
        MetaConfig(mask_prob=0.0)
    with pytest.raises(ValueError, match="mask_strategy"):
        MetaConfig(mask_strategy=(0.5, 0.2, 0.2))
