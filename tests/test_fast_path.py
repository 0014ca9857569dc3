"""Oracles for the inner loop's fast path: packed and memoising batches
against (sequence, label) pairs, one forward pass per branch and step,
flat-buffer views against copied blocks, test-time fine-tuning against the
inner loop, psi left untouched by every step function that adapts from it,
the passes' in-place arithmetic, the backward pass's scatters and the
in-place gradient assembly against the slow forms they replace, and the
bytes one gradient or fine-tune step allocates."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatext import meta, model
from metatext.episodes import Episode
from metatext.meta import (FOMAML_PRESET, MetaConfig, MetaState, evaluate_episode, fine_tune,
                           fomaml_step, inner_adapt, meta_step, reptile_step)
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


# ---------------------------------------------------------------------------
# the backward pass's kernels against the slow forms they replace


def slow_forward(params, tokens, mask):
    """_forward with a fresh array for every operation."""
    counts = mask.sum(axis=1).astype(params.E.dtype)
    d_emb = params.d_emb
    emb = params.E[tokens]
    ctx = (emb * mask[..., None]).sum(axis=1) / counts[:, None]
    pre = emb @ params.W1[:, :d_emb].T + (ctx @ params.W1[:, d_emb:].T)[:, None, :] + params.b1
    hidden = np.tanh(pre)
    rep = (hidden * mask[..., None]).sum(axis=1) / counts[:, None]
    return model._Forward(tokens=tokens, mask=mask, counts=counts, emb=emb, ctx=ctx,
                          hidden=hidden, rep=rep)


def slow_softmax_xent(logits, labels):
    """_softmax_xent with a fresh array for every operation."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    n = logits.shape[0]
    idx = np.arange(n)
    loss = float(-logp[idx, labels].mean())
    dlogits = np.exp(logp)
    dlogits[idx, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def slow_aux_pass(params, masked):
    """_aux_pass from the slow forms, without its memo."""
    fw = slow_forward(params, *masked.packed)
    si, pos, orig = masked.target_arrays
    h_tgt = fw.hidden[si, pos]
    return (fw, h_tgt, *slow_softmax_xent(h_tgt @ params.P.T + params.p0, orig))


def slow_backprop_encoder(params, fw, d_hidden):
    """_backprop_encoder with a fresh array for every operation, the PAD rows
    masked, and the embedding scatter as np.add.at into zeros."""
    d_emb = params.d_emb
    w_tok = params.W1[:, :d_emb]
    w_ctx = params.W1[:, d_emb:]
    d_pre = d_hidden * (1.0 - fw.hidden ** 2)
    d_pre_sum = d_pre.sum(axis=1)
    dW_tok = np.einsum("bld,ble->de", d_pre, fw.emb)
    dW_ctx = d_pre_sum.T @ fw.ctx
    dW1 = np.concatenate([dW_tok, dW_ctx], axis=1)
    db1 = d_pre_sum.sum(axis=0)
    d_emb_direct = d_pre @ w_tok
    d_ctx = d_pre_sum @ w_ctx
    d_emb_total = d_emb_direct + (d_ctx / fw.counts[:, None])[:, None, :] * fw.mask[..., None]
    dE = np.zeros_like(params.E)
    np.add.at(dE, fw.tokens[fw.mask], d_emb_total[fw.mask])
    return dE, dW1, db1


def slow_grad_aux_raw(params, masked):
    """_grad_aux_raw from the slow forms, with the hidden-state scatter as
    np.add.at into zeros."""
    fw, h_tgt, _, d_logits = slow_aux_pass(params, masked)
    si, pos, _ = masked.target_arrays
    dP = d_logits.T @ h_tgt
    dp0 = d_logits.sum(axis=0)
    d_h_tgt = d_logits @ params.P
    d_hidden = np.zeros_like(fw.hidden)
    np.add.at(d_hidden, (si, pos), d_h_tgt)
    dE, dW1, db1 = slow_backprop_encoder(params, fw, d_hidden)
    return dE, dW1, db1, dP, dp0


def with_negative_zeros(arrays, rng):
    """Copies of the arrays with about a third of their entries set to -0.0."""
    out = []
    for arr in arrays:
        arr = arr.copy()
        arr[rng.random(arr.shape) < 0.3] = -0.0
        out.append(arr)
    return tuple(out)


small_vocab_configs = st.builds(ModelConfig,
                                vocab_size=st.integers(FIRST_REAL_ID + 1, 8),
                                d_emb=st.integers(1, 5), d_h=st.integers(1, 5),
                                n_way=st.integers(1, 4))


@SETTINGS
@given(cfg=small_vocab_configs, seed=seeds, size=st.integers(1, 6),
       mask_prob=st.sampled_from([0.3, 1.0]))
def test_passes_match_allocating_forms(cfg, seed, size, mask_prob):
    """_forward, _softmax_xent and the masked-token logits reuse their own
    temporaries: bitwise the forms that allocate one array per operation."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, size)
    packed = PackedBatch.pack(pairs)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, mask_prob=mask_prob,
                               vocab_size=cfg.vocab_size)
    got = model._forward(params, packed.tokens, packed.mask)
    want = slow_forward(params, packed.tokens, packed.mask)
    assert all(same_bits(getattr(got, f), getattr(want, f))
               for f in ("counts", "emb", "ctx", "hidden", "rep"))
    logits = want.rep @ params.C.T + params.c0
    got_loss, got_d = model._softmax_xent(logits, packed.labels)
    want_loss, want_d = slow_softmax_xent(logits, packed.labels)
    assert same_bits(got_loss, want_loss) and same_bits(got_d, want_d)
    got_aux, want_aux = model._aux_pass(params, masked), slow_aux_pass(params, masked)
    assert all(same_bits(g, w) for g, w in zip(got_aux[1:], want_aux[1:]))
    assert same_bits(got_aux[0].hidden, want_aux[0].hidden)


@SETTINGS
@given(cfg=small_vocab_configs, seed=seeds, size=st.integers(1, 6),
       zero_w1=st.booleans())
def test_embedding_scatter_matches_add_at(cfg, seed, size, zero_w1):
    """The bincount scatter of dE is bitwise np.add.at into zeros: a vocabulary
    of 1-5 real tokens repeats them, random_pairs pads some sequences, and a
    -0.0 W1 with -0.0 entries in d_hidden makes rows of signed zeros."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    if zero_w1:
        flat = params.to_flat()
        flat[params.layout().block_slice("W1")] = -0.0
        params = ModelParams.from_flat(flat, params.layout())
    packed = PackedBatch.pack(random_pairs(rng, cfg, size))
    fw = model._forward(params, packed.tokens, packed.mask)
    d_hidden = rng.normal(size=fw.hidden.shape)
    d_hidden[rng.random(d_hidden.shape) < 0.3] = -0.0
    d_hidden *= fw.mask[..., None]
    got, want = model._backprop_encoder(params, fw, d_hidden), slow_backprop_encoder(
        params, fw, d_hidden)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def test_embedding_scatter_float32_rounds_once():
    """At float32 the bincount sums in float64 and rounds once, so dE keeps
    its dtype and agrees with float32 np.add.at to float32 rounding."""
    rng = np.random.default_rng(4)
    cfg = ModelConfig(vocab_size=6, d_emb=4, d_h=3, n_way=2, dtype="float32")
    params = cfg.init_params(rng)
    packed = PackedBatch.pack(random_pairs(rng, cfg, 6))
    fw = model._forward(params, packed.tokens, packed.mask)
    d_hidden = (rng.normal(size=fw.hidden.shape) * fw.mask[..., None]).astype(np.float32)
    got, want = model._backprop_encoder(params, fw, d_hidden)[0], slow_backprop_encoder(
        params, fw, d_hidden)[0]
    assert got.dtype == np.float32
    assert np.allclose(got, want, rtol=1e-5, atol=1e-7)


@SETTINGS
@given(cfg=small_vocab_configs, seed=seeds, size=st.integers(1, 6),
       mask_prob=st.sampled_from([0.3, 1.0]))
def test_aux_hidden_scatter_matches_add_at(cfg, seed, size, mask_prob):
    """The masked-token branch's d_hidden scatter (fancy-index +=, its
    (sequence, position) targets being unique) is bitwise np.add.at."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, size)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, mask_prob=mask_prob,
                               vocab_size=cfg.vocab_size)
    got = model._grad_aux_raw(params, masked)
    want = slow_grad_aux_raw(params, masked)
    assert all(same_bits(g, w) for g, w in zip(got, want))


@SETTINGS
@given(cfg=model_configs, seed=seeds, size=st.integers(1, 6),
       aux_weight=st.sampled_from([0.0, 0.3, 1.0]))
def test_gradient_assembly_matches_scaled_copies(cfg, seed, size, aux_weight):
    """grad_total scales each raw block in place and adds it into zeros:
    bitwise zeros + weight * block, so a -0.0 entry still comes out +0.0.
    grad_primary assigns its blocks, so -0.0 entries keep their sign."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, size)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, vocab_size=cfg.vocab_size)
    packed = PackedBatch.pack(pairs)
    prim = with_negative_zeros(model._grad_primary_raw(params, packed), rng)
    aux = with_negative_zeros(model._grad_aux_raw(params, masked), rng)
    layout = params.layout()

    want = np.zeros(layout.size)
    if aux_weight < 1.0:
        for name, arr in zip(model.PRIMARY_BLOCKS, prim):
            want[layout.block_slice(name)] += (1.0 - aux_weight) * arr.ravel()
    if aux_weight > 0.0:
        for name, arr in zip(model.ENCODER_BLOCKS + model.PREDICTOR_BLOCKS, aux):
            want[layout.block_slice(name)] += aux_weight * arr.ravel()
    want_primary = np.zeros(layout.size)
    for name, arr in zip(model.PRIMARY_BLOCKS, prim):
        want_primary[layout.block_slice(name)] = arr.ravel()

    # The helpers hand out fresh copies of the same blocks, as the real ones
    # hand out fresh arrays.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_grad_primary_raw", lambda p, b: tuple(a.copy() for a in prim))
        mp.setattr(model, "_grad_aux_raw", lambda p, m: tuple(a.copy() for a in aux))
        got = grad_total(params, packed, masked, aux_weight).values
        got_primary = grad_primary(params, packed).values
    assert same_bits(got, want)
    assert same_bits(got_primary, want_primary)


def test_fomaml_never_computes_the_accumulated_movement(monkeypatch):
    """FOMAML reads neither the support term nor the cosine, so its episodes
    skip (psi - theta_hat)/inner_lr; the gated update still reads it."""
    rng = np.random.default_rng(2)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    psi = cfg.init_params(rng)
    episodes = [Episode(support=random_pairs(rng, cfg, 3), query=random_pairs(rng, cfg, 4),
                        label_map=(0, 1, 2)) for _ in range(2)]
    meta_cfg = MetaConfig(inner_lr=0.3, inner_steps=2, aux_weight=0.2)
    reads = []
    movement = meta.AdaptResult.accumulated.func
    monkeypatch.setattr(meta.AdaptResult, "accumulated",
                        property(lambda res: reads.append(1) or movement(res)))
    fomaml_step(MetaState.create(psi, meta_cfg), episodes, rng)
    evaluate_episode(psi, episodes[0], replace(meta_cfg, **FOMAML_PRESET), rng, cosine=False)
    assert reads == []
    meta_step(MetaState.create(psi, meta_cfg), episodes, rng)
    assert reads


# ---------------------------------------------------------------------------
# allocation guard: peak bytes allocated by one call beyond what existed when
# it started, in flat parameter vectors, at the benchmark fixture's shapes
# (vocabulary 400, d = 32, 5 sequences). A gradient call returns one vector
# and a 1-step fine-tune two (the adapted parameters and the first gradient);
# an E- or P-sized block is 0.45 of a vector, and the rest is the backward
# pass's small arrays. tracemalloc counts what numpy asks for, whatever the
# state of the heap. The bounds are the values measured with numpy 2.4; in
# brackets, the values while the update and the gradient's weighted blocks
# each made a flat- or block-sized temporary.

PEAK_BOUNDS = {  # (call, aux weight): flat vectors
    ("grad_total", 0.0): 1.99,   # [2.00]
    ("grad_total", 0.1): 2.47,   # [2.97]
    ("fine_tune", 0.0): 2.17,    # [3.16]
    ("fine_tune", 0.1): 2.99,    # [3.53]
}


def peak_flat_vectors(fn, flat_bytes: float) -> float:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / flat_bytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("aux_weight", [0.0, 0.1])
def test_inner_step_allocation_peak(aux_weight):
    rng = np.random.default_rng(0)
    cfg = ModelConfig(vocab_size=400, d_emb=32, d_h=32, n_way=5)
    psi = cfg.init_params(rng)
    pairs = [(rng.integers(FIRST_REAL_ID, cfg.vocab_size, size=int(rng.integers(6, 13))), i)
             for i in range(5)]
    packed = PackedBatch.pack(pairs)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, vocab_size=cfg.vocab_size)
    meta_cfg = MetaConfig(inner_lr=1.5, aux_weight=aux_weight)

    def memoised_grad_total():
        return grad_total(psi, packed, masked, aux_weight)

    def one_step_fine_tune():
        return fine_tune(psi, pairs, 1, True, meta_cfg, np.random.default_rng(1))

    flat_bytes = psi.flat.nbytes
    for name, fn in (("grad_total", memoised_grad_total), ("fine_tune", one_step_fine_tune)):
        fn()  # first calls fill the memo and any caches
        peak = peak_flat_vectors(fn, flat_bytes)
        assert peak <= PEAK_BOUNDS[name, aux_weight], (name, aux_weight, peak)
