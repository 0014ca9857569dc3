"""Oracles for the inner loop's fast path: packed and memoising batches
against (sequence, label) pairs, one forward pass per branch and step,
flat-buffer views against copied blocks, test-time fine-tuning against the
inner loop, and psi left untouched by every step function that adapts from
it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metatext import model
from metatext.episodes import Episode
from metatext.meta import (MetaConfig, MetaState, evaluate_episode, fine_tune, fomaml_step,
                           inner_adapt, meta_step, reptile_step)
from metatext.model import (FIRST_REAL_ID, PAD_ID, MaskedBatch, ModelConfig, ModelParams,
                            PackedBatch, ParamLayout, aux_loss, grad_primary, grad_total,
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

    def fresh():
        """A masked batch with nothing derived or memoised yet."""
        return MaskedBatch(sequences=masked.sequences, targets=masked.targets)

    # Each op on fresh batches (the pairs are packed anew on every call), and
    # on the one packed and masked batch that serve every parameter point.
    on_fresh = {
        "primary": lambda p: primary_loss(p, pairs),
        "aux": lambda p: aux_loss(p, fresh()),
        "total": lambda p: total_loss(p, pairs, fresh(), aux_weight),
        "grad_primary": lambda p: grad_primary(p, pairs).values,
        "grad_total": lambda p: grad_total(p, pairs, fresh(), aux_weight).values,
    }
    on_shared = {
        "primary": lambda p: primary_loss(p, packed),
        "aux": lambda p: aux_loss(p, masked),
        "total": lambda p: total_loss(p, packed, masked, aux_weight),
        "grad_primary": lambda p: grad_primary(p, packed).values,
        "grad_total": lambda p: grad_total(p, packed, masked, aux_weight).values,
    }
    a, b = cfg.init_params(rng), cfg.init_params(rng)
    # Equal values in another object, over another vector.
    a2 = ModelParams.from_flat(a.to_flat(), cfg.layout())
    # The memo of each batch must never answer for another params object:
    # loss at a, loss at b, then the gradients at a; gradients before losses;
    # and a2 in between a's calls.
    order = [(a, "primary"), (a, "total"), (b, "primary"), (b, "total"),
             (a, "grad_primary"), (a, "grad_total"), (a, "aux"),
             (b, "grad_total"), (b, "grad_primary"), (b, "aux"), (b, "total"),
             (b, "primary"),
             (a2, "total"), (a, "grad_total"), (a2, "grad_primary"), (a, "primary"),
             (a2, "aux"), (a2, "grad_total"), (a, "aux")]
    for params, op in order:
        got, want = on_shared[op](params), on_fresh[op](params)
        if op == "primary":
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        else:
            assert same_bits(got, want), (op, params is a, params is b)


def test_one_forward_pass_per_branch_and_step(monkeypatch):
    """A gradient taken right after its loss reuses that loss's forward pass:
    every inner or fine-tune step runs one forward pass per active branch,
    and the query side of an episode one."""
    rng = np.random.default_rng(5)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    psi = cfg.init_params(rng)
    ep = Episode(support=random_pairs(rng, cfg, 3), query=random_pairs(rng, cfg, 4),
                 label_map=(0, 1, 2))
    calls = []
    forward = model._forward
    monkeypatch.setattr(model, "_forward", lambda *args: calls.append(1) or forward(*args))

    def forwards(fn, *args, **kw):
        calls.clear()
        fn(*args, **kw)
        return len(calls)

    steps = 3
    # (aux weight, forward passes per step): the masked-token branch is off
    # at 0 and the classification branch at 1.
    for aux_weight, branches in ((0.0, 1), (0.3, 2), (1.0, 1)):
        meta_cfg = MetaConfig(inner_lr=0.3, inner_steps=steps, aux_weight=aux_weight)
        assert forwards(inner_adapt, psi, ep, meta_cfg, rng) == steps * branches
        assert forwards(fine_tune, psi, ep.support, steps, True, meta_cfg,
                        rng) == steps * branches
        assert forwards(evaluate_episode, psi, ep, meta_cfg, rng) == steps * branches + 1
    assert forwards(fine_tune, psi, ep.support, steps, False, MetaConfig(inner_lr=0.3),
                    rng) == steps


@SETTINGS
@given(cfg=model_configs, seed=seeds)
def test_from_flat_blocks_are_views_equal_to_copies(cfg, seed):
    layout = cfg.layout()
    assert layout is ParamLayout.build(cfg.vocab_size, cfg.d_emb, cfg.d_h, cfg.n_way)
    flat = np.random.default_rng(seed).normal(size=layout.size)
    params = ModelParams.from_flat(flat, layout)
    assert params.layout() is layout
    assert params.flat is flat
    for name, offset, length, shape in layout.blocks:
        block = getattr(params, name)
        assert np.shares_memory(block, params.flat)
        assert same_bits(block, flat[offset : offset + length].reshape(shape).copy())
        assert layout.block_slice(name) == slice(offset, offset + length)
    again = params.to_flat()
    assert not np.shares_memory(again, flat)
    assert same_bits(again, flat)
    twin = params.copy()
    assert not np.shares_memory(twin.flat, flat)
    assert same_bits(twin.flat, flat)


@SETTINGS
@given(cfg=model_configs, seed=seeds)
def test_built_params_view_their_flat_vector(cfg, seed):
    """init_params, zeros and copy build through from_flat: every block is a
    view into the instance's own flat vector, in layout order."""
    params = cfg.init_params(np.random.default_rng(seed))
    for built in (params, cfg.zeros(), params.copy()):
        assert built.flat.shape == (cfg.layout().size,)
        for name, offset, length, shape in cfg.layout().blocks:
            block = getattr(built, name)
            assert np.shares_memory(block, built.flat) and block.shape == shape
            assert same_bits(block.ravel(), built.flat[offset : offset + length])


@SETTINGS
@given(seed=seeds, steps=st.integers(1, 4), aux_weight=st.sampled_from([0.0, 0.3, 1.0]))
def test_fine_tune_is_the_inner_loop(seed, steps, aux_weight):
    """Test-time fine-tuning with the masked-token term runs the inner loop:
    bitwise the same adapted parameters, and the same draws from the RNG."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    psi = cfg.init_params(rng)
    ep = Episode(support=random_pairs(rng, cfg, 3), query=[], label_map=(0, 1, 2))
    meta_cfg = MetaConfig(inner_lr=0.3, inner_steps=steps, aux_weight=aux_weight,
                          mask_prob=0.5, mask_strategy=(0.8, 0.1, 0.1))
    rng_inner, rng_fine = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    theta_hat = inner_adapt(psi, ep, meta_cfg, rng_inner).theta_hat
    theta = fine_tune(psi, ep.support, steps, True, meta_cfg, rng_fine)
    assert same_bits(theta.flat, theta_hat.flat)
    assert rng_fine.bit_generator.state == rng_inner.bit_generator.state


def test_fine_tune_without_steps_draws_nothing():
    rng = np.random.default_rng(3)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    psi = cfg.init_params(rng)
    support = random_pairs(rng, cfg, 3)
    state = rng.bit_generator.state
    assert fine_tune(psi, support, 0, True, MetaConfig(aux_weight=0.5), rng) is psi
    assert rng.bit_generator.state == state


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
    inner_adapt(psi, episodes[0], meta_cfg, rng)
    fine_tune(psi, episodes[0].support, steps, True, meta_cfg, rng)
    for step_fn in (meta_step, fomaml_step, reptile_step):
        step_fn(MetaState.create(psi, meta_cfg), episodes, rng)
    assert same_bits(backing, before)
    assert same_bits(psi.to_flat(), before)
