"""Oracles for the inner loop's fast path: packed batches against (sequence,
label) pairs, flat-buffer views against copied blocks, and psi left untouched
by every step function that adapts from it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metatext.episodes import Episode
from metatext.meta import (MetaConfig, MetaState, fine_tune, fomaml_step, inner_adapt,
                           meta_step, reptile_step)
from metatext.model import (FIRST_REAL_ID, PAD_ID, MaskedBatch, ModelConfig, ModelParams,
                            PackedBatch, ParamLayout, grad_primary, grad_total,
                            primary_loss, total_loss)

SETTINGS = settings(max_examples=40, deadline=None)

model_configs = st.builds(ModelConfig,
                          vocab_size=st.integers(FIRST_REAL_ID + 1, 16),
                          d_emb=st.integers(1, 5), d_h=st.integers(1, 5),
                          n_way=st.integers(1, 4))
seeds = st.integers(0, 2**32 - 1)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_pairs(rng, cfg, size):
    """(sequence, label) pairs of 1-8 real tokens, some with trailing PADs."""
    pairs = []
    for _ in range(size):
        seq = rng.integers(FIRST_REAL_ID, cfg.vocab_size, size=rng.integers(1, 9))
        seq = np.concatenate([seq, np.full(rng.integers(0, 4), PAD_ID)])
        pairs.append((seq, int(rng.integers(cfg.n_way))))
    return pairs


@SETTINGS
@given(cfg=model_configs, seed=seeds, size=st.integers(1, 6),
       aux_weight=st.sampled_from([0.0, 0.3, 1.0]))
def test_packed_batch_matches_pairs_bitwise(cfg, seed, size, aux_weight):
    rng = np.random.default_rng(seed)
    pairs = random_pairs(rng, cfg, size)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, vocab_size=cfg.vocab_size)
    packed = PackedBatch.pack(pairs)
    assert PackedBatch.pack(packed) is packed
    # One packed batch and one masked batch serve several parameter points,
    # as in the inner loop; a fresh masked batch has nothing derived yet.
    for _ in range(2):
        params = cfg.init_params(rng)
        fresh = MaskedBatch(sequences=masked.sequences, targets=masked.targets)
        loss_p, logits_p = primary_loss(params, packed)
        loss_s, logits_s = primary_loss(params, pairs)
        assert same_bits(loss_p, loss_s) and same_bits(logits_p, logits_s)
        assert same_bits(total_loss(params, packed, masked, aux_weight),
                         total_loss(params, pairs, fresh, aux_weight))
        assert same_bits(grad_primary(params, packed).values,
                         grad_primary(params, pairs).values)
        assert same_bits(grad_total(params, packed, masked, aux_weight).values,
                         grad_total(params, pairs, fresh, aux_weight).values)


@SETTINGS
@given(cfg=model_configs, seed=seeds)
def test_from_flat_blocks_are_views_equal_to_copies(cfg, seed):
    layout = cfg.layout()
    assert layout is ParamLayout.build(cfg.vocab_size, cfg.d_emb, cfg.d_h, cfg.n_way)
    flat = np.random.default_rng(seed).normal(size=layout.size)
    params = ModelParams.from_flat(flat, layout)
    assert params.layout() is layout
    for name, offset, length, shape in layout.blocks:
        block = getattr(params, name)
        assert np.shares_memory(block, flat)
        assert same_bits(block, flat[offset : offset + length].reshape(shape).copy())
        assert layout.block_slice(name) == slice(offset, offset + length)
    again = params.to_flat()
    assert not np.shares_memory(again, flat)
    assert same_bits(again, flat)


@SETTINGS
@given(seed=seeds, steps=st.integers(1, 3), aux_weight=st.sampled_from([0.0, 0.2]))
def test_step_functions_leave_psi_unchanged(seed, steps, aux_weight):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    backing = cfg.init_params(rng).to_flat()
    before = backing.copy()
    psi = ModelParams.from_flat(backing, cfg.layout())
    episodes = [Episode(support=random_pairs(rng, cfg, 3), query=random_pairs(rng, cfg, 4),
                        label_map=(0, 1, 2)) for _ in range(2)]
    meta_cfg = MetaConfig(inner_lr=0.3, meta_lr=0.05, inner_steps=steps,
                          aux_weight=aux_weight, reptile_use_query=True)
    inner_adapt(psi, episodes[0], 0.3, steps, aux_weight, rng)
    fine_tune(psi, episodes[0].support, steps, True, 0.3, aux_weight, rng)
    for step_fn in (meta_step, fomaml_step, reptile_step):
        step_fn(MetaState.create(psi, meta_cfg), episodes, rng)
    assert same_bits(backing, before)
    assert same_bits(psi.to_flat(), before)
