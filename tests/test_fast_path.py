"""Oracles for the inner loop's fast path: packed and memoising batches
against (sequence, label) pairs, one forward pass per step, the per-batch
plan's cache, flat-buffer views against copied blocks, test-time fine-tuning
against the inner loop, the descent on the working set against the plain
loop on all of psi, psi left untouched by every step function that adapts
from it, the passes over their read positions (in-place arithmetic and
matmul contractions) against the slow forms over every padded position, the
backward pass's scatters, the stacked pass of both branches against the
per-branch assembly, the in-place gradient assembly, the finiteness check and
the gate's views against the slow forms they replace, and the bytes one
gradient or fine-tune step allocates, and what a descent leaves alive."""

import collections
import gc
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metatext import meta, model
from metatext.episodes import Episode
from metatext.harness import METHOD_PRESETS
from metatext.meta import (MetaConfig, MetaState, fine_tune, fomaml_step, inner_adapt, meta_step,
                           reptile_step)
from metatext.model import (FIRST_REAL_ID, PAD_ID, UNK_ID, EncodingError, MaskedBatch,
                            ModelConfig, ModelParams, NumericalError, PackedBatch, ParamLayout,
                            aux_loss, grad_primary, grad_total, primary_loss, total_loss)

SETTINGS = settings(max_examples=40, deadline=None)

model_configs = st.builds(ModelConfig,
                          vocab_size=st.integers(FIRST_REAL_ID + 1, 16),
                          d_emb=st.integers(1, 5), d_h=st.integers(1, 5),
                          n_way=st.integers(1, 4))
seeds = st.integers(0, 2**32 - 1)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def close(got, want, terms=None) -> bool:
    """got equals want to 1e-12 relative (float64). A sum taken in another
    order differs by a few ulps of its terms, not of its result, so the scale
    is the largest |terms| when given (the summands' magnitudes), else the
    largest |want|."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want if terms is None else terms).max(initial=0.0)
    return got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


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
        "grad_primary": lambda p: grad_primary(p, pairs),
        "grad_total": lambda p: grad_total(p, pairs, fresh(), aux_weight),
    }
    on_shared = {
        "primary": lambda p: primary_loss(p, packed),
        "aux": lambda p: aux_loss(p, masked),
        "total": lambda p: total_loss(p, packed, masked, aux_weight),
        "grad_primary": lambda p: grad_primary(p, packed),
        "grad_total": lambda p: grad_total(p, packed, masked, aux_weight),
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


def test_one_forward_pass_per_step(monkeypatch):
    """A gradient taken right after its loss reuses that loss's forward pass,
    and both branches run through one pass over their stacked rows: every
    inner or fine-tune step runs one forward pass whatever branches are
    active, and the query side of an episode one."""
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
    # The masked-token branch is off at 0 and the classification branch at 1.
    for aux_weight in (0.0, 0.3, 1.0):
        meta_cfg = MetaConfig(inner_lr=0.3, inner_steps=steps, aux_weight=aux_weight)
        assert forwards(inner_adapt, psi, ep, meta_cfg, rng) == steps
        assert forwards(fine_tune, psi, ep.support, steps, True, meta_cfg, rng) == steps
        assert forwards(meta_step, MetaState.create(psi, meta_cfg), [ep], rng) == steps + 1
    assert forwards(fine_tune, psi, ep.support, steps, False, MetaConfig(inner_lr=0.3),
                    rng) == steps


def test_plan_rechecks_labels_for_another_classifier():
    """The label check is cached per classifier width, not passed once for
    good: a batch whose labels fit n_way 5 is still rejected at n_way 3."""
    rng = np.random.default_rng(1)
    wide = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=5).init_params(rng)
    narrow = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3).init_params(rng)
    packed = PackedBatch.pack([(np.array([3, 4]), 4), (np.array([5]), 0)])
    primary_loss(wide, packed)
    grad_total(wide, packed, None, 0.0)
    for op in (lambda: primary_loss(narrow, packed), lambda: grad_primary(narrow, packed),
               lambda: total_loss(narrow, packed, None, 0.0)):
        with pytest.raises(ValueError, match="labels must lie in 0..2"):
            op()
    primary_loss(wide, packed)


@pytest.mark.parametrize("aux_weight", [0.0, 0.3, 1.0])
def test_plan_follows_the_params_layout(aux_weight):
    """A batch's plan is rebuilt when the parameters' layout changes: a
    PackedBatch and a MaskedBatch first used at vocabulary 8 give, at a larger
    vocabulary and then a smaller one with the same widths, the gradient bits
    of fresh batches (a plan kept from vocabulary 8 would scatter PAD rows
    into row 8 of dE at vocabulary 12)."""
    rng = np.random.default_rng(5)
    pairs = random_pairs(rng, ModelConfig(vocab_size=6, d_emb=4, d_h=3, n_way=3), 4)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, mask_prob=0.5, vocab_size=6)
    packed = PackedBatch.pack(pairs)

    def fresh():
        return MaskedBatch(sequences=masked.sequences, targets=masked.targets)

    for vocab_size in (8, 12, 6):
        params = ModelConfig(vocab_size=vocab_size, d_emb=4, d_h=3, n_way=3).init_params(rng)
        assert same_bits(grad_total(params, packed, masked, aux_weight),
                         grad_total(params, pairs, fresh(), aux_weight)), vocab_size


@pytest.mark.parametrize("aux_weight", [0.0, 0.3, 1.0])
def test_plan_rejects_an_empty_sequence_on_first_use(aux_weight):
    """The empty-sequence check runs once, when the plan is built, and still
    names the sequence."""
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    params = cfg.init_params(np.random.default_rng(3))
    seqs = [np.array([3, 4, 5]), np.array([PAD_ID, PAD_ID]), np.array([6])]
    packed = PackedBatch.pack([(s, 0) for s in seqs])
    masked = MaskedBatch(sequences=seqs, targets=[(0, 1, 4)])
    for op in (lambda: total_loss(params, packed, masked, aux_weight),
               lambda: grad_total(params, packed, masked, aux_weight)):
        with pytest.raises(EncodingError, match="sequence 1 is empty"):
            op()


def test_plan_is_built_once_per_batch(monkeypatch):
    """A descent walks its support set once: a 20-step fine-tune and a
    20-step inner loop, without the masked-token term, with it and with it
    alone, derive one plan, one PackedBatch (none when the masked-token
    branch runs alone) and one MaskedBatch (the mask, when one is drawn),
    and no renumbered copy of either batch."""
    rng = np.random.default_rng(4)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    psi = cfg.init_params(rng)
    support = random_pairs(rng, cfg, 5)
    episode = Episode(support=support, query=[], label_map=(0, 1, 2))
    made = collections.Counter()
    build = model._Plan.build.__func__
    monkeypatch.setattr(model._Plan, "build",
                        classmethod(lambda cls, *a: made.update(["plan"]) or build(cls, *a)))
    for cls in (PackedBatch, MaskedBatch):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=init, _name=cls.__name__,
                            **kw: made.update([_name]) or _init(self, *a, **kw))
    for aux_weight in (0.0, 0.1, 1.0):
        meta_cfg = MetaConfig(inner_lr=0.3, inner_steps=20, aux_weight=aux_weight)
        for descend in (lambda: fine_tune(psi, support, 20, True, meta_cfg, rng),
                        lambda: inner_adapt(psi, episode, meta_cfg, rng)):
            made.clear()
            descend()
            assert made == collections.Counter(plan=1, PackedBatch=int(aux_weight < 1.0),
                                               MaskedBatch=int(aux_weight > 0.0)), aux_weight


@pytest.mark.parametrize("aux_weight", [0.0, 0.1, 1.0])
def test_descent_moves_its_own_vector_in_place(monkeypatch, aux_weight):
    """A descent builds two ModelParams, whatever its step count: the working
    set it gathers, which every step moves in place, and theta_hat."""
    rng = np.random.default_rng(5)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    psi = cfg.init_params(rng)
    support = random_pairs(rng, cfg, 5)
    episode = Episode(support=support, query=[], label_map=(0, 1, 2))
    built = []
    from_flat = ModelParams.from_flat.__func__
    monkeypatch.setattr(ModelParams, "from_flat",
                        classmethod(lambda cls, *a: built.append(a[1]) or from_flat(cls, *a)))
    for steps in (1, 5, 20):
        meta_cfg = MetaConfig(inner_lr=0.3, inner_steps=steps, aux_weight=aux_weight)
        for descend in (lambda: fine_tune(psi, support, steps, True, meta_cfg, rng),
                        lambda: inner_adapt(psi, episode, meta_cfg, rng)):
            built.clear()
            descend()
            assert len(built) == 2 and built[1] is psi.layout(), (steps, aux_weight)


@SETTINGS
@given(cfg=model_configs, seed=seeds)
def test_from_flat_blocks_are_views_equal_to_copies(cfg, seed):
    layout = cfg.layout()
    assert layout == ParamLayout.build(cfg.vocab_size, cfg.d_emb, cfg.d_h, cfg.n_way,
                                       cfg.vocab_size)
    flat = np.random.default_rng(seed).normal(size=layout.size)
    params = ModelParams.from_flat(flat, layout)
    assert params.layout() is layout
    assert params.flat is flat
    for name, offset, length, shape in layout.blocks:
        block = getattr(params, name)
        assert np.shares_memory(block, params.flat)
        assert same_bits(block, flat[offset : offset + length].reshape(shape).copy())
        assert layout.slices[name] == slice(offset, offset + length)
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


def special_pairs(rng, cfg, size):
    """(sequence, label) pairs of 1-8 ids drawn over the whole vocabulary, PAD,
    UNK and MASK included, each with a non-PAD id, some with trailing PADs."""
    pairs = []
    for _ in range(size):
        seq = rng.integers(PAD_ID, cfg.vocab_size, size=rng.integers(1, 9))
        seq[rng.integers(seq.size)] = rng.integers(UNK_ID, cfg.vocab_size)
        seq = np.concatenate([seq, np.full(rng.integers(0, 3), PAD_ID)])
        pairs.append((seq, int(rng.integers(cfg.n_way))))
    return pairs


def full_descent(psi, support, steps, aux_weight, cfg, rng):
    """The descent on all of psi: a plain loop of total_loss and grad_total
    steps in psi's layout, the mask drawn as _descend draws it. Returns
    (adapted flat vector, first gradient, loss trace, masked batch)."""
    masked = None
    if aux_weight > 0.0:
        masked = MaskedBatch.build([seq for seq, _ in support], rng, mask_prob=cfg.mask_prob,
                                   strategy=cfg.mask_strategy, vocab_size=psi.vocab_size)
    params, first, trace = psi, None, []
    for _ in range(steps):
        trace.append(total_loss(params, support, masked, aux_weight))
        g = grad_total(params, support, masked, aux_weight)
        first = g if first is None else first
        params = ModelParams.from_flat(params.flat - cfg.inner_lr * g, psi.layout())
    return params.flat, first, trace, masked


@settings(max_examples=100, deadline=None)
@given(cfg=model_configs, seed=seeds, steps=st.integers(1, 4),
       aux_weight=st.sampled_from([0.0, 0.3, 1.0]),
       strategy=st.sampled_from([(1.0, 0.0, 0.0), (0.4, 0.2, 0.4)]), use_query=st.booleans())
def test_descent_on_the_working_set_is_the_full_descent(cfg, seed, steps, aux_weight, strategy,
                                                         use_query):
    """inner_adapt descends on the working set (PAD's row and the rows of
    the ids its plan reads: the support set's unless the masked-token branch
    runs alone, and the masked sequences' when it runs; the dense blocks; and
    the predictor head only when that branch runs) and scatters the result
    back: bitwise
    the plain loop on all of psi, with the same loss trace, mask and draws
    from the RNG, and a first_grad that expands to the full first gradient.
    Sequences hold PAD, UNK and MASK ids, masks replace some targets with
    random ids, and the support set may be joined by the query set, as
    reptile_use_query does."""
    rng = np.random.default_rng(seed)
    psi = cfg.init_params(rng)
    ep = Episode(support=special_pairs(rng, cfg, 3), query=special_pairs(rng, cfg, 4),
                 label_map=tuple(range(cfg.n_way)))
    if use_query:
        ep = replace(ep, support=ep.support + ep.query)
    meta_cfg = MetaConfig(inner_lr=0.3, inner_steps=steps, aux_weight=aux_weight,
                          mask_prob=0.5, mask_strategy=strategy)
    rng_work, rng_full = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    res = inner_adapt(psi, ep, meta_cfg, rng_work)
    flat, first, trace, masked = full_descent(psi, ep.support, steps, aux_weight, meta_cfg,
                                              rng_full)
    assert same_bits(res.theta_hat.flat, flat)
    assert res.theta_hat.layout() is psi.layout()
    assert same_bits(res.first_grad, first)
    assert same_bits(np.array(res.loss_trace), np.array(trace))
    assert (res.masked is None and masked is None) or res.masked.targets == masked.targets
    assert rng_work.bit_generator.state == rng_full.bit_generator.state

    ids = {PAD_ID}
    aux_active = masked is not None and masked.num_targets > 0
    if aux_weight < 1.0 or not aux_active:
        ids |= {int(t) for seq, _ in ep.support for t in seq}
    if aux_active:
        ids |= {int(t) for seq in masked.sequences for t in seq}
    assert list(res.work.rows) == sorted(ids)
    assert res.work.compact == ParamLayout.build(len(ids), cfg.d_emb, cfg.d_h, cfg.n_way,
                                                 cfg.vocab_size if aux_active else 0)
    assert res.first_step.shape == (res.work.compact.size,)


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
    for step_fn, method in ((meta_step, "amgs"), (fomaml_step, "fomaml"),
                            (reptile_step, "reptile")):
        step_fn(MetaState.create(psi, replace(meta_cfg, **METHOD_PRESETS[method])), episodes, rng)
    assert same_bits(backing, before)
    assert same_bits(psi.to_flat(), before)


# ---------------------------------------------------------------------------
# the passes' kernels against the slow forms they replace. A pass encodes only
# its read positions: the non-PAD positions of the classified rows, then the
# masked-token targets. Its masked means, the pre-activations, d_pre's row
# sums, dW1 and dE are matmuls and one bincount, which sum in another order
# than the sums over (sequence, position) they replace: those quantities and
# what is built on them agree with the slow forms at the read positions to
# 1e-12 relative of the terms summed; on the same inputs, everything else is
# bitwise.


def slow_forward(params, tokens):
    """_forward with a fresh array for every operation and the masked means
    as sums over the non-PAD positions."""
    mask = tokens != PAD_ID
    counts = mask.sum(axis=1).astype(params.E.dtype)
    d_emb = params.d_emb
    emb = params.E[tokens]
    ctx = (emb * mask[..., None]).sum(axis=1) / counts[:, None]
    pre = emb @ params.W1[:, :d_emb].T + (ctx @ params.W1[:, d_emb:].T)[:, None, :] + params.b1
    hidden = np.tanh(pre)
    rep = (hidden * mask[..., None]).sum(axis=1) / counts[:, None]
    return SimpleNamespace(tokens=tokens, mask=mask, counts=counts, emb=emb, ctx=ctx,
                           hidden=hidden, rep=rep)


def fast_forward(params, tokens):
    """The plan of these padded tokens, every row classified, and
    model._forward over it."""
    plan = model._Plan.build(tokens, params, len(tokens))
    return plan, model._forward(params, plan)


def read_positions(tokens, split, targets=()):
    """(rows, positions) of a pass's read positions over padded tokens whose
    first split rows are classified: those rows' non-PAD positions, row by
    row, then each (sequence index, position, id) target's, its row counted
    from split."""
    rows, pos = np.nonzero(tokens[:split] != PAD_ID)
    targets = np.array(targets, dtype=np.int64).reshape(-1, 3)
    return np.concatenate([rows, targets[:, 0] + split]), np.concatenate([pos, targets[:, 1]])


def spread(values, tokens, at):
    """values at the read positions at, in an array of zeros over the padded
    tokens' (B, L) positions."""
    out = np.zeros(tokens.shape + values.shape[1:])
    out[at] = values
    return out


def slow_layout(fw, tokens, at):
    """A fast pass's emb, ctx and hidden in the slow forms' (B, L) layout,
    zero off its read positions at."""
    return SimpleNamespace(emb=spread(fw.emb, tokens, at), ctx=fw.ctx,
                           hidden=spread(fw.hidden, tokens, at))


def slow_softmax_xent(logits, labels):
    """_softmax_xent's earlier form, with a fresh array for every operation:
    log-probabilities from the log of the row sums of one exponential, the
    softmax from a second exponential of them."""
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


def slow_padded(masked):
    """The masked sequences padded with PAD into (B, L) tokens, and the
    targets as (sequence index, position, original id) int arrays."""
    tokens = np.full((len(masked.sequences), max([1, *map(len, masked.sequences)])), PAD_ID)
    for row, seq in zip(tokens, masked.sequences):
        row[:len(seq)] = seq
    si, pos, orig = (np.array([t[i] for t in masked.targets], dtype=np.int64)
                     for i in range(3))
    return tokens, (si, pos, orig)


def slow_aux_pass(params, masked):
    """The masked-token branch's (fw, target hidden states, loss, d loss/d
    logits) from the slow forms, over the masked batch alone."""
    tokens, (si, pos, orig) = slow_padded(masked)
    fw = slow_forward(params, tokens)
    h_tgt = fw.hidden[si, pos]
    return (fw, h_tgt, *slow_softmax_xent(h_tgt @ params.P.T + params.p0, orig))


def slow_backprop_encoder(params, tokens, fw, d_hidden):
    """_backprop_encoder with a fresh array for every operation, the PAD rows
    masked, dW_tok as an einsum over (sequence, position), and the embedding
    scatter as np.add.at into zeros; fw is a pass over tokens, of either
    form."""
    mask = tokens != PAD_ID
    counts = mask.sum(axis=1).astype(params.E.dtype)
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
    d_emb_total = d_emb_direct + (d_ctx / counts[:, None])[:, None, :] * mask[..., None]
    dE = np.zeros_like(params.E)
    np.add.at(dE, tokens[mask], d_emb_total[mask])
    return dE, dW1, db1


def slow_grad_aux_raw(params, masked, aux_pass):
    """The masked-token gradient from the slow backward pass on the given
    masked-token pass (fw, target hidden states, loss, d loss/d logits), with
    the hidden-state scatter as np.add.at into zeros; returns the scattered
    d_hidden and the blocks (dE, dW1, db1, dP, dp0)."""
    fw, h_tgt, _, d_logits = aux_pass
    tokens, (si, pos, _) = slow_padded(masked)
    dP = d_logits.T @ h_tgt
    dp0 = d_logits.sum(axis=0)
    d_h_tgt = d_logits @ params.P
    d_hidden = np.zeros_like(fw.hidden)
    np.add.at(d_hidden, (si, pos), d_h_tgt)
    return d_hidden, (*slow_backprop_encoder(params, tokens, fw, d_hidden), dP, dp0)


def fast_backprop(params, plan, fw, d_hidden):
    """(dE, dW1, db1) as model._backprop_encoder writes them into its vector,
    run on a copy of d_hidden, which it overwrites."""
    values = model._backprop_encoder(params, plan, fw, d_hidden.copy())
    return tuple(values[params.layout().slices[name]].reshape(getattr(params, name).shape)
                 for name in model.ENCODER_BLOCKS)


def backprop_matches(got, params, fw, d_hidden, tokens, at) -> bool:
    """(dE, dW1, db1) of _backprop_encoder, from a fast pass over padded
    tokens and a gradient on its read positions at, against the slow form's
    on the same pass and gradient in the (B, L) layout: each block to 1e-12
    relative of the terms it sums, the slow form's blocks over |W1|, |emb|,
    |ctx| and |d_hidden|."""
    slow, d_full = slow_layout(fw, tokens, at), spread(d_hidden, tokens, at)
    want = slow_backprop_encoder(params, tokens, slow, d_full)
    magnitudes = ModelParams.from_flat(np.abs(params.flat), params.layout())
    terms = slow_backprop_encoder(
        magnitudes, tokens, SimpleNamespace(emb=np.abs(slow.emb), ctx=np.abs(slow.ctx),
                                            hidden=slow.hidden), np.abs(d_full))
    return all(close(g, w, t) for g, w, t in zip(got, want, terms))


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
# Support sets of 1-6 sequences, and the benchmark's 25-sequence query set.
pass_sizes = st.one_of(st.integers(1, 6), st.just(25))


@SETTINGS
@given(cfg=small_vocab_configs, seed=seeds, size=pass_sizes,
       mask_prob=st.sampled_from([0.3, 1.0]))
def test_passes_match_allocating_forms(cfg, seed, size, mask_prob):
    """_forward, _softmax_xent and the masked-token logits reuse their own
    temporaries, the masked means are matmuls, and the softmax takes one
    exponential: emb at the read positions is bitwise the forms that allocate
    one array per operation and take two exponentials, and ctx, hidden at
    the read positions, rep, the softmax's loss and gradient and the
    masked-token pass built on them agree to 1e-12 (the softmax's relative
    to the terms it sums: the log row sums and picked logits, and 1/n)."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, size)
    packed = PackedBatch.pack(pairs)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, mask_prob=mask_prob,
                               vocab_size=cfg.vocab_size)
    _, got = fast_forward(params, packed.tokens)
    want = slow_forward(params, packed.tokens)
    at = read_positions(packed.tokens, size)
    assert same_bits(got.emb, want.emb[at])
    assert close(got.ctx, want.ctx, want.emb)
    assert close(got.hidden, want.hidden[at])
    assert close(got.rep, want.rep, want.hidden)
    logits = want.rep @ params.C.T + params.c0
    got_loss, got_d = model._softmax_xent(logits, packed.labels)
    want_loss, want_d = slow_softmax_xent(logits, packed.labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    loss_terms = np.concatenate([np.log(np.exp(shifted).sum(axis=1)),
                                 shifted[np.arange(size), packed.labels]])
    assert close(got_loss, want_loss, loss_terms)
    assert close(got_d, want_d, np.full(want_d.shape, 1.0 / size))
    _, got_fw, _, got_aux = model._pass(params, None, masked)
    want_fw, *want_aux = slow_aux_pass(params, masked)
    assert got_aux[0].shape == got_fw.hidden.shape == want_aux[0].shape
    assert close(got_aux[0], want_aux[0], want_fw.hidden)
    assert close(got_aux[1], want_aux[1]) and close(got_aux[2], want_aux[2])


@SETTINGS
@given(cfg=small_vocab_configs, seed=seeds, size=pass_sizes, zero_w1=st.booleans())
def test_embedding_scatter_matches_add_at(cfg, seed, size, zero_w1):
    """On the same pass, the bincount scatter of dE (the token path at the
    read positions, the context path at every non-PAD position), d_pre's row
    sums and the matmuls dW_tok and dW_ctx match np.add.at into zeros and the
    sums over (sequence, position): a vocabulary of 1-5 real tokens repeats
    them, random_pairs pads some sequences, and a -0.0 W1 with -0.0 entries
    in d_hidden makes rows of signed zeros."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    if zero_w1:
        flat = params.to_flat()
        flat[params.layout().slices["W1"]] = -0.0
        params = ModelParams.from_flat(flat, params.layout())
    packed = PackedBatch.pack(random_pairs(rng, cfg, size))
    plan, fw = fast_forward(params, packed.tokens)
    d_hidden = rng.normal(size=fw.hidden.shape)
    d_hidden[rng.random(d_hidden.shape) < 0.3] = -0.0
    assert backprop_matches(fast_backprop(params, plan, fw, d_hidden), params, fw, d_hidden,
                            packed.tokens, read_positions(packed.tokens, size))


@SETTINGS
@given(cfg=small_vocab_configs, seed=seeds, size=pass_sizes,
       mask_prob=st.sampled_from([0.3, 1.0]))
def test_aux_hidden_scatter_matches_add_at(cfg, seed, size, mask_prob):
    """On the same pass, the masked-token branch's d_hidden, one row per
    target, is bitwise the rows np.add.at scatters into zeros, up to the sign
    of zeros, and dP and dp0 built on it are bitwise 0.0 + block; the encoder
    blocks match as test_embedding_scatter_matches_add_at's do."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, size)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, mask_prob=mask_prob,
                               vocab_size=cfg.vocab_size)
    scattered = []
    backprop = model._backprop_encoder
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_backprop_encoder", lambda p, plan, fw, d_hidden: scattered.append(
            d_hidden.copy()) or backprop(p, plan, fw, d_hidden))
        values = model._gradient(params, None, masked, 1.0, "grad_total")
    layout = params.layout()
    got = [values[layout.slices[name]].reshape(getattr(params, name).shape)
           for name in model.ENCODER_BLOCKS + model.PREDICTOR_BLOCKS]
    _, fw, _, aux = model._pass(params, None, masked)  # the memoised pass got used
    tokens = slow_padded(masked)[0]
    at = read_positions(tokens, 0, masked.targets)
    want_d_hidden, want = slow_grad_aux_raw(params, masked, (slow_layout(fw, tokens, at), *aux))
    want = [block + 0.0 for block in want]
    assert same_bits(spread(scattered[0], tokens, at) + 0.0, want_d_hidden)
    assert same_bits(got[3], want[3]) and same_bits(got[4], want[4])
    assert backprop_matches(got[:3], params, fw, scattered[0], tokens, at)
    assert same_bits(values[layout.slices["C"]], np.zeros(params.C.size))
    assert same_bits(values[layout.slices["c0"]], np.zeros(params.n_way))


@SETTINGS
@given(cfg=model_configs, seed=seeds, size=st.integers(1, 6),
       branch=st.sampled_from([(0.0, True), (0.3, False), (1.0, True)]))
def test_gradient_assembly_matches_scaled_copies(cfg, seed, size, branch):
    """On a single branch (classification alone, weighted 1 or 0.7, or the
    masked-token task alone) grad_total writes each block of that branch's
    own gradient into its slice, scales it there by the branch's weight and
    zero-fills the other head: bitwise the assembly it replaced, zeros +
    weight * block for each block, so a -0.0 entry still comes out +0.0.
    grad_primary goes through the same assembly at weight 1, and its
    predictor blocks stay exactly zero."""
    aux_weight, with_mask = branch
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, size)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, vocab_size=cfg.vocab_size)
    packed = PackedBatch.pack(pairs)
    layout = params.layout()
    encoder = slice(0, layout.slices["b1"].stop)

    # The encoder blocks as _backprop_encoder writes them, with -0.0 entries
    # put in; n_way 1 gives -0.0 entries in the classifier block.
    handed = []
    backprop = model._backprop_encoder

    def with_signed_zeros(*args):
        values = backprop(*args)
        values[encoder] = with_negative_zeros([values[encoder]], rng)[0]
        handed.append(values[encoder].copy())
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_backprop_encoder", with_signed_zeros)
        got = grad_total(params, packed, masked if with_mask else None, aux_weight)
        got_primary = grad_primary(params, packed)

    def assembled(encoder_blocks, pass_, heads, weight):
        """zeros + weight * block for the encoder blocks and the heads of the
        (memoised) pass: the weight block is d_logits.T @ inputs and the bias
        d_logits.sum(axis=0)."""
        want = np.zeros(layout.size)
        want[encoder] += weight * encoder_blocks
        inputs, d_logits = pass_
        for name, block in zip(heads, (d_logits.T @ inputs, d_logits.sum(axis=0))):
            want[layout.slices[name]] += weight * block.ravel()
        return want

    _, fw, primary, _ = model._pass(params, packed, None)
    if aux_weight < 1.0:
        want = assembled(handed[0], (fw.rep, primary[2]), model.CLASSIFIER_BLOCKS,
                         1.0 - aux_weight)
    else:
        h_tgt, _, d_logits = model._pass(params, None, masked)[3]
        want = assembled(handed[0], (h_tgt, d_logits), model.PREDICTOR_BLOCKS, aux_weight)
    want_primary = assembled(handed[1], (fw.rep, primary[2]), model.CLASSIFIER_BLOCKS, 1.0)
    assert same_bits(got, want)
    assert same_bits(got_primary, want_primary)
    assert not np.any(np.signbit(got) & (got == 0.0))


def primary_blocks(params, packed, fw, d_logits):
    """The classification branch's (dE, dW1, db1, dC, dc0) from the slow
    forms, on a pass over the packed batch and d loss/d logits."""
    pool = fw.mask / fw.counts[:, None]
    d_hidden = (d_logits @ params.C)[:, None, :] * pool[..., None]
    return (*slow_backprop_encoder(params, packed.tokens, fw, d_hidden),
            d_logits.T @ fw.rep, d_logits.sum(axis=0))


def per_branch_total(params, pairs, masked, aux_weight):
    """(total_loss, grad_total, aux_loss) as each branch's own pass and
    backward pass assembled them, from the slow forms: the classification
    branch over the support rows, the masked-token branch over the masked
    batch, and their blocks weighted and added into zeros; with a scale per
    entry for a summation order's rounding: the weighted branch blocks'
    magnitudes plus the blocks taken over the magnitudes of the terms the
    forward pass sums (a pass over |params|, with |d loss/d logits|). A
    hidden state can cancel far below its terms, and the rounding of those
    terms reaches C and P through it."""
    packed = PackedBatch.pack(pairs)
    fw = slow_forward(params, packed.tokens)
    loss, d_logits = slow_softmax_xent(fw.rep @ params.C.T + params.c0, packed.labels)
    aux_pass = slow_aux_pass(params, masked)
    _, aux = slow_grad_aux_raw(params, masked, aux_pass)
    mag = ModelParams.from_flat(np.abs(params.flat), params.layout())
    mag_fw, mag_h_tgt = slow_aux_pass(mag, masked)[:2]
    _, aux_mag = slow_grad_aux_raw(mag, masked, (mag_fw, mag_h_tgt, None, np.abs(aux_pass[3])))
    primary_mag = primary_blocks(mag, packed, slow_forward(mag, packed.tokens),
                                 np.abs(d_logits))
    layout = params.layout()
    grad, scale = np.zeros(layout.size), np.zeros(layout.size)
    for names, blocks, mags, w in (
            (model.PRIMARY_BLOCKS, primary_blocks(params, packed, fw, d_logits), primary_mag,
             1.0 - aux_weight),
            (model.ENCODER_BLOCKS + model.PREDICTOR_BLOCKS, aux, aux_mag, aux_weight)):
        for name, arr, arr_mag in zip(names, blocks, mags):
            grad[layout.slices[name]] += w * arr.ravel()
            scale[layout.slices[name]] += w * (np.abs(arr) + arr_mag).ravel()
    return (1.0 - aux_weight) * loss + aux_weight * aux_pass[2], grad, scale, aux_pass[2]


@SETTINGS
@given(cfg=small_vocab_configs, seed=seeds, size=pass_sizes,
       aux_weight=st.sampled_from([1e-3, 0.1, 0.5, 0.9]), mask_prob=st.sampled_from([0.3, 1.0]),
       trailing_pads=st.integers(-2, 3))
# P's block is 1.7e-11 here: the hidden states at the targets cancel to 1e-7
# from terms near 0.1, whose rounding differs between the two passes.
@example(cfg=ModelConfig(vocab_size=8, d_emb=3, d_h=1, n_way=1), seed=0, size=25,
         aux_weight=0.001, mask_prob=1.0, trailing_pads=0)
def test_stacked_pass_matches_per_branch_assembly(cfg, seed, size, aux_weight, mask_prob,
                                                  trailing_pads):
    """With both branches on, one pass over the support rows stacked on the
    masked rows and one backward pass give total_loss, grad_total and
    aux_loss to 1e-12 relative of the per-branch assembly on the slow forms,
    also when the masked batch pads to another length than the support's
    (its sequences lose or gain trailing PADs)."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, size)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, mask_prob=mask_prob,
                               vocab_size=cfg.vocab_size)
    # Trailing PADs moved: the positions of targets stay where they are.
    seqs = [s[: max(len(s) + trailing_pads, int(np.flatnonzero(s != PAD_ID)[-1]) + 1)]
            if trailing_pads < 0 else np.concatenate([s, np.full(trailing_pads, PAD_ID)])
            for s in masked.sequences]
    masked = MaskedBatch(sequences=seqs, targets=masked.targets)
    want_loss, want_grad, scale, want_aux = per_branch_total(params, pairs, masked, aux_weight)
    packed = PackedBatch.pack(pairs)
    got_loss = total_loss(params, packed, masked, aux_weight)
    got_grad = grad_total(params, packed, masked, aux_weight)
    layout = params.layout()
    for name in model.BLOCK_NAMES:
        sl = layout.slices[name]
        assert close(got_grad[sl], want_grad[sl], scale[sl]), name
    assert close(got_loss, want_loss) and close(aux_loss(params, masked), want_aux)


@SETTINGS
@given(cfg=small_vocab_configs, seed=seeds, size=st.one_of(st.integers(1, 6), st.just(40)),
       aux_weight=st.sampled_from([0.0, 0.3, 1.0]), pads=st.integers(0, 12),
       repeat=st.booleans(), drop_targets=st.booleans(), reverse=st.booleans())
def test_read_positions_match_slow_forms(cfg, seed, size, aux_weight, pads, repeat,
                                         drop_targets, reverse):
    """Over the stacked rows of the branches aux_weight runs (at 1.0 no row
    is classified), ctx, the hidden states at the read positions, rep, the
    target hidden states and (dE, dW1, db1) match the slow forms over the
    same padded rows. Rows may be PAD-heavy (up to 12 PADs among and after
    the tokens) or repeat a token, the first masked sequence may hold no
    target, the targets may come in reverse order, and 40 sequences (80
    stacked rows) take the pooling matrices past model._BLOCK_ROWS rows, to
    blocks of rows."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = []
    for seq, label in random_pairs(rng, cfg, size):
        seq = np.concatenate([seq, seq[:2]]) if repeat else seq
        pairs.append((np.insert(seq, rng.integers(0, seq.size + 1, size=pads), PAD_ID), label))
    masked = MaskedBatch.build([s for s, _ in pairs], rng, mask_prob=0.5, vocab_size=cfg.vocab_size)
    if drop_targets:
        masked = MaskedBatch(sequences=masked.sequences,
                             targets=[t for t in masked.targets if t[0] != 0])
    if reverse:
        masked = MaskedBatch(sequences=masked.sequences, targets=masked.targets[::-1])
    packed, masked = model._branches(pairs, masked, aux_weight)
    plan, fw, _, aux = model._pass(params, packed, masked)
    split = 0 if packed is None else size
    rows = MaskedBatch(sequences=[*([] if packed is None else packed.tokens),
                                  *([] if masked is None else masked.sequences)],
                       targets=[] if masked is None else masked.targets)
    tokens = slow_padded(rows)[0]
    at = read_positions(tokens, split, rows.targets)
    want = slow_forward(params, tokens)
    assert same_bits(fw.emb, want.emb[at])
    assert close(fw.ctx, want.ctx, want.emb)
    assert close(fw.hidden, want.hidden[at])
    assert close(fw.rep, want.rep[:split], want.hidden)
    if aux is not None:
        assert close(aux[0], want.hidden[tuple(axis[plan.n_c:] for axis in at)], want.hidden)
    d_hidden = rng.normal(size=fw.hidden.shape)
    assert backprop_matches(fast_backprop(params, plan, fw, d_hidden), params, fw, d_hidden,
                            tokens, at)


def test_stacked_pass_encodes_only_its_read_positions():
    """A pass over support rows stacked on masked rows encodes n_c + T
    positions: the support's non-PAD positions, then the targets."""
    rng = np.random.default_rng(8)
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, 5)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, vocab_size=cfg.vocab_size)
    n_c = sum(int(np.count_nonzero(s != PAD_ID)) for s, _ in pairs)
    padded = sum(len(s) for s, _ in pairs) + sum(len(s) for s in masked.sequences)
    plan, fw, _, aux = model._pass(params, PackedBatch.pack(pairs), masked)
    assert plan.n_c == n_c and aux[0].shape == (masked.num_targets, cfg.d_h)
    assert fw.hidden.shape == (n_c + masked.num_targets, cfg.d_h)
    assert n_c + masked.num_targets < padded


def test_pooling_blocks_match_the_dense_matrix():
    """Past model._BLOCK_ROWS rows, _pooling keeps the matrix as blocks of
    rows, its entries given in any order; @ and .T @ match the dense
    matrix's products to 1e-12 of the terms they sum, and a ufunc handed the
    blocks raises TypeError rather than return something else (np.add
    returned the matrix product)."""
    rng = np.random.default_rng(3)
    shape = (2 * model._BLOCK_ROWS + 5, 90)
    rows, cols = np.divmod(rng.choice(shape[0] * shape[1], size=150, replace=False), shape[1])
    values = rng.normal(size=rows.size)
    dense = np.zeros(shape)
    dense[rows, cols] = values
    blocks = model._pooling(shape, rows, cols, values)
    x, y = rng.normal(size=(shape[1], 4)), rng.normal(size=(shape[0], 3))
    assert isinstance(blocks, model._BlockRows) and len(blocks.blocks) == 3
    assert close(blocks @ x, dense @ x, np.abs(dense) @ np.abs(x))
    assert close(blocks.T @ y, dense.T @ y, np.abs(dense.T) @ np.abs(y))
    for ufunc in (lambda: np.add(blocks, x, out=np.empty(x.shape)),
                  lambda: np.matmul(blocks.T, y, out=np.empty((shape[1], 3)))):
        with pytest.raises(TypeError):
            ufunc()


def test_plan_grows_linearly_with_the_batch():
    """A plan's pooling matrices hold blocks of model._BLOCK_ROWS rows, each
    as wide as its rows' positions: four times the rows of the same length
    make about four times the entries, where dense (rows x positions)
    matrices would make sixteen."""
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3)
    params = cfg.init_params(np.random.default_rng(0))

    def entries(n):
        rng = np.random.default_rng(1)
        pairs = [(rng.integers(FIRST_REAL_ID, cfg.vocab_size, size=8), i % 3) for i in range(n)]
        masked = MaskedBatch.build([s for s, _ in pairs], rng, vocab_size=cfg.vocab_size)
        plan = model._pass(params, PackedBatch.pack(pairs), masked)[0]
        return sum(block.size for pooling in (plan.ctx_pool, plan.pool, plan.row_sum)
                   for _, _, block in pooling.blocks)

    assert entries(256) < 4.5 * entries(64)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_finiteness_check_names_the_block(bad):
    """_check_finite accepts a vector whose dot product with itself is
    finite, and otherwise scans the blocks: an inf, -inf or NaN entry raises
    naming its block, and entries whose squares overflow do not raise."""
    cfg = ModelConfig(vocab_size=6, d_emb=2, d_h=2, n_way=2)
    layout = cfg.layout()
    huge = np.full(layout.size, 1e200)
    assert model._check_finite(huge, layout, "op") is huge
    for name, offset, length, _ in layout.blocks:
        for at in (offset, offset + length - 1):
            values = np.full(layout.size, 1e200)
            values[at] = bad
            with pytest.raises(NumericalError, match=f"op produced non-finite entries in "
                                                     f"block {name}$"):
                model._check_finite(values, layout, "op")


@SETTINGS
@given(cfg=model_configs, seed=seeds, size=st.integers(1, 6))
def test_gate_views_match_concatenated_blocks(cfg, seed, size):
    """The gate and the step report read the primary blocks as a view of the
    flat vector's prefix: the cosine, the decision and both norms (the gate
    hands its own to the report) are bitwise those of the concatenated copy
    (n_way 1 gives a zero query gradient)."""
    rng = np.random.default_rng(seed)
    params = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, size)
    masked = MaskedBatch.build([s for s, _ in pairs], rng, vocab_size=cfg.vocab_size)
    g_sup = grad_total(params, pairs, masked, 0.3)
    g_qry = grad_primary(params, random_pairs(rng, cfg, size))
    layout = params.layout()
    a, b = (np.concatenate([g[layout.slices[name]] for name in model.PRIMARY_BLOCKS])
            for g in (g_sup, g_qry))
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    want = 0.0 if na < 1e-12 or nb < 1e-12 else float(np.clip(a @ b / (na * nb), -1.0, 1.0))
    cos, gate_open, norms = meta.gate(g_sup, g_qry, layout)
    assert same_bits(cos, want) and gate_open == (want >= 0.0)
    assert same_bits(norms[0], float(na)) and same_bits(norms[1], float(nb))
    assert same_bits(float(np.linalg.norm(layout.primary(g_sup))), float(na))
    assert same_bits(float(np.linalg.norm(layout.primary(g_qry))), float(nb))
    assert np.shares_memory(layout.primary(g_sup), g_sup)


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
    fomaml_step(MetaState.create(psi, replace(meta_cfg, **METHOD_PRESETS["fomaml"])), episodes, rng)
    assert reads == []
    meta_step(MetaState.create(psi, meta_cfg), episodes, rng)
    assert reads


# ---------------------------------------------------------------------------
# allocation guard: peak bytes allocated by one call beyond what existed when
# it started, in flat parameter vectors, at the benchmark fixture's shapes
# (vocabulary 400, d = 32, 5 sequences). A gradient call on the full layout
# returns one vector, which is the output of the encoder's embedding scatter;
# the rest is the backward pass's small arrays. A 1-step fine-tune
# descends on the working set and returns one copy of psi: at weight 0 the
# working set is a few E rows and the dense blocks (about 0.1 of a vector),
# at weight 0.1 it holds P and p0 too (about 0.6), and the start point, the
# first gradient and the adapted point are each one such vector, next to the
# batch's plan, the memoised pass and the descent's own compact layout (about
# 2 KB, built per descent and not memoised). tracemalloc counts what numpy
# asks for, whatever the state of the heap. The bounds are the values
# measured with numpy 2.4, rounded up so that each leaves 1-3 KB (under 0.01
# of the 226 KB vector) for small arrays. In brackets, earlier values: while
# the scatter had an output of its own, copied into a vector allocated next
# to it; while the descent ran on all of psi and the gradient was added into
# a zero vector block by block; while the update and the gradient's weighted
# blocks each made a flat- or block-sized temporary; and, at weight 0.1,
# while each branch ran its own pass and backward pass.

PEAK_BOUNDS = {  # (call, aux weight): flat vectors
    ("grad_total", 0.0): 1.125,  # [1.54; 1.55; 2.00; 1.99 while the zero vector came first]
    ("grad_total", 0.1): 1.22,   # [1.625; 2.02; 2.97; 2.46 with a pass per branch]
    ("fine_tune", 0.0): 1.30,    # [1.29 with memoised compact layouts; 2.17; 3.16]
    ("fine_tune", 0.1): 2.44,    # [2.47; 2.46 likewise; 2.55; 3.53; 2.98 with a pass per branch]
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


@pytest.mark.parametrize("aux_weight", [0.0, 0.1, 1.0])
def test_last_pass_is_freed_without_the_cyclic_gc(aux_weight):
    """No reference cycle holds a descent's last pass, and nothing a descent
    returns does: with the cyclic collector off, neither a fine-tune nor an
    inner loop whose result is still held (it keeps the masked batch, whose
    plan the passes read at weight 1.0) leaves a forward pass alive, so the
    peak bounds above hold without a collection."""
    rng = np.random.default_rng(0)
    cfg = ModelConfig(vocab_size=40, d_emb=4, d_h=3, n_way=5)
    psi = cfg.init_params(rng)
    pairs = random_pairs(rng, cfg, 5)
    meta_cfg = MetaConfig(inner_lr=0.3, aux_weight=aux_weight)

    def passes():
        return [obj for obj in gc.get_objects() if isinstance(obj, model._Forward)]

    gc.collect()
    gc.disable()
    try:
        before = passes()
        fine_tune(psi, pairs, 2, True, meta_cfg, rng)
        res = inner_adapt(psi, Episode(support=pairs, query=[], label_map=tuple(range(5))),
                          replace(meta_cfg, inner_steps=2), rng)
        alive = [fw for fw in passes() if not any(fw is old for old in before)]
    finally:
        gc.enable()
    assert alive == []
    assert (res.masked is None) == (aux_weight == 0.0)
