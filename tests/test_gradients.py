"""Finite-difference verification of every analytic gradient, at one fixed
shape and over random shapes.

The oracle is harness.central_diff, the one check_gradients uses; it calls
only the loss it is given, never the analytic gradient code it is checking.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatext import harness
from metatext.harness import central_diff, max_rel_err
from metatext.model import (
    CLASSIFIER_BLOCKS,
    FIRST_REAL_ID,
    PAD_ID,
    PREDICTOR_BLOCKS,
    PRIMARY_BLOCKS,
    MaskedBatch,
    ModelConfig,
    NumericalError,
    aux_loss,
    grad_primary,
    grad_total,
    primary_loss,
    total_loss,
)

FD_TOL = 1e-5

GRAD_CFG = ModelConfig(vocab_size=10, d_emb=4, d_h=3, n_way=3)


def random_instance(seed):
    rng = np.random.default_rng(seed)
    params = GRAD_CFG.init_params(rng)
    batch = [(rng.integers(3, GRAD_CFG.vocab_size, size=int(rng.integers(2, 7))),
              int(rng.integers(GRAD_CFG.n_way))) for _ in range(4)]
    masked = MaskedBatch.build([s for s, _ in batch], rng, mask_prob=0.5,
                               vocab_size=GRAD_CFG.vocab_size)
    assert masked.num_targets > 0
    return params, batch, masked


def test_oracle_never_calls_gradient_code(monkeypatch):
    params, batch, masked = random_instance(7)

    def forbidden(*args, **kwargs):
        raise AssertionError("the finite-difference oracle ran analytic gradient code")

    # Every metatext module that holds a gradient function under its own name,
    # the harness that hosts the oracle included.
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "metatext"]
    for name in ("grad_primary", "grad_total", "_gradient", "_backprop_encoder"):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert harness.grad_total is forbidden and harness.grad_primary is forbidden
    fd = central_diff(lambda p: total_loss(p, batch, masked, 0.3), params)
    assert fd.shape == (params.layout().size,) and np.all(np.isfinite(fd))


@pytest.mark.parametrize("seed", range(6))
def test_primary_gradient_matches_finite_differences(seed):
    params, batch, _ = random_instance(seed)
    g = grad_primary(params, batch)
    fd = central_diff(lambda p: primary_loss(p, batch)[0], params)
    assert max_rel_err(g, fd) < FD_TOL


@pytest.mark.parametrize("seed", range(6))
def test_aux_gradient_matches_finite_differences(seed):
    params, batch, masked = random_instance(seed + 100)
    g = grad_total(params, batch, masked, 1.0)
    fd = central_diff(lambda p: aux_loss(p, masked), params)
    assert max_rel_err(g, fd) < FD_TOL


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weight", [1e-3, 0.3])
def test_total_gradient_matches_finite_differences(seed, weight):
    params, batch, masked = random_instance(seed + 200)
    g = grad_total(params, batch, masked, weight)
    fd = central_diff(lambda p: total_loss(p, batch, masked, weight), params)
    assert max_rel_err(g, fd) < FD_TOL


@settings(max_examples=30, deadline=None)
@given(vocab_size=st.integers(FIRST_REAL_ID + 1, 10),
       widths=st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda w: w[0] != w[1]),
       n_way=st.integers(1, 5), n_seqs=st.integers(1, 6),
       aux_weight=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_total_gradient_matches_finite_differences_over_shapes(vocab_size, widths, n_way,
                                                               n_seqs, aux_weight, seed):
    """d_emb differs from d_h, so a transposed or mis-reshaped contraction
    cannot pass; the first sequence is one real token and a PAD, the others
    1-6 tokens with 0-2 trailing PADs."""
    d_emb, d_h = widths
    cfg = ModelConfig(vocab_size=vocab_size, d_emb=d_emb, d_h=d_h, n_way=n_way)
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    seqs = [np.array([rng.integers(FIRST_REAL_ID, vocab_size), PAD_ID])]
    for _ in range(n_seqs - 1):
        seq = rng.integers(FIRST_REAL_ID, vocab_size, size=rng.integers(1, 7))
        seqs.append(np.concatenate([seq, np.full(rng.integers(0, 3), PAD_ID)]))
    batch = [(seq, int(rng.integers(n_way))) for seq in seqs]
    masked = MaskedBatch.build(seqs, rng, mask_prob=0.5, vocab_size=vocab_size)
    g = grad_total(params, batch, masked, aux_weight)
    fd = central_diff(lambda p: total_loss(p, batch, masked, aux_weight), params)
    assert max_rel_err(g, fd) < FD_TOL


def blocks(params, g, names):
    """The named blocks of a flat gradient at params, concatenated in order."""
    layout = params.layout()
    return np.concatenate([g[layout.slices[name]] for name in names])


def test_total_gradient_zero_aux_weight_has_zero_predictor_blocks():
    params, batch, masked = random_instance(0)
    g = grad_total(params, batch, masked, 0.0)
    assert np.all(blocks(params, g, PREDICTOR_BLOCKS) == 0.0)
    assert np.any(blocks(params, g, PRIMARY_BLOCKS) != 0.0)


def test_primary_gradient_predictor_blocks_exactly_zero():
    for seed in range(5):
        params, batch, _ = random_instance(seed + 300)
        g = grad_primary(params, batch)
        assert np.all(blocks(params, g, PREDICTOR_BLOCKS) == 0.0)


def test_aux_gradient_classifier_blocks_exactly_zero():
    params, batch, masked = random_instance(1)
    g = grad_total(params, batch, masked, 1.0)
    assert np.all(blocks(params, g, CLASSIFIER_BLOCKS) == 0.0)


def test_primary_equals_total_at_zero_weight():
    params, batch, masked = random_instance(2)
    g_pri = grad_primary(params, batch)
    g_tot = grad_total(params, batch, masked, 0.0)
    assert np.abs(g_pri - g_tot).max() < 1e-12


def test_duplicated_batch_leaves_mean_gradient_unchanged():
    params, batch, _ = random_instance(3)
    g_once = grad_primary(params, batch)
    g_twice = grad_primary(params, batch + batch)
    assert np.abs(g_once - g_twice).max() < 1e-12


def test_gradient_ignores_skipped_sequences():
    # a masked batch where one sequence produced no targets contributes nothing
    params, batch, _ = random_instance(4)
    seqs = [s for s, _ in batch]
    rng = np.random.default_rng(0)
    masked = MaskedBatch.build(seqs, rng, mask_prob=1.0, vocab_size=10)
    keep = [t for t in masked.targets if t[0] != 0]
    without_first = MaskedBatch(sequences=masked.sequences,
                                targets=keep, n_skipped=1)
    g = grad_total(params, batch, without_first, 1.0)
    fd = central_diff(lambda p: aux_loss(p, without_first), params)
    assert max_rel_err(g, fd) < FD_TOL


def test_nonfinite_gradient_raises_with_block_name():
    params, batch, _ = random_instance(5)
    params.E[3, :] = np.nan
    with pytest.raises(NumericalError, match="block"):
        grad_primary(params, batch)
