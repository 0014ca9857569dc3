import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatext.model import (
    BLOCK_NAMES,
    FIRST_REAL_ID,
    MASK_ID,
    PAD_ID,
    PRIMARY_BLOCKS,
    UNK_ID,
    EncodingError,
    MaskedBatch,
    ModelConfig,
    ModelParams,
    aux_loss,
    encode,
    load_params,
    mask_tokens,
    primary_loss,
    save_params,
    total_loss,
)

from conftest import random_episode


# ---------------------------------------------------------------------------
# encode


def encode_reference(params, seq):
    """Straight-line re-implementation of the encoder, no vectorization."""
    nonpad = [t for t in seq if t != PAD_ID]
    c = np.zeros(params.d_emb)
    for t in nonpad:
        c += params.E[t]
    c /= len(nonpad)
    hiddens = []
    for t in seq:
        x = np.concatenate([params.E[t], c])
        hiddens.append(np.tanh(params.W1 @ x + params.b1))
    rep = np.zeros(params.d_h)
    for t, h in zip(seq, hiddens):
        if t != PAD_ID:
            rep += h
    rep /= len(nonpad)
    return np.asarray(hiddens), rep


def test_encode_zero_params_gives_zero_rep(small_model_cfg):
    params = small_model_cfg.zeros()
    hiddens, rep = encode(params, np.array([3, 4, 5]))
    assert np.all(hiddens == 0.0)
    assert np.all(rep == 0.0)


def test_encode_single_token(small_model_cfg):
    rng = np.random.default_rng(0)
    params = small_model_cfg.init_params(rng)
    tok = 5
    hiddens, rep = encode(params, np.array([tok]))
    x = np.concatenate([params.E[tok], params.E[tok]])  # context equals the sole embedding
    expected = np.tanh(params.W1 @ x + params.b1)
    np.testing.assert_allclose(hiddens[0], expected, atol=1e-15)
    np.testing.assert_allclose(rep, expected, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_encode_matches_reference(seed, small_model_cfg):
    rng = np.random.default_rng(seed)
    params = small_model_cfg.init_params(rng)
    seq = rng.integers(FIRST_REAL_ID, small_model_cfg.vocab_size, size=5)
    hiddens, rep = encode(params, seq)
    ref_h, ref_rep = encode_reference(params, seq)
    np.testing.assert_allclose(hiddens, ref_h, atol=1e-12)
    np.testing.assert_allclose(rep, ref_rep, atol=1e-12)


def test_encode_ignores_pad_positions(small_model_cfg):
    rng = np.random.default_rng(1)
    params = small_model_cfg.init_params(rng)
    _, rep_plain = encode(params, np.array([3, 4]))
    _, rep_padded = encode(params, np.array([3, 4, PAD_ID, PAD_ID]))
    np.testing.assert_allclose(rep_padded, rep_plain, atol=1e-15)


def test_encode_rejects_empty(small_model_cfg):
    params = small_model_cfg.zeros()
    with pytest.raises(EncodingError):
        encode(params, np.array([], dtype=np.int64))
    with pytest.raises(EncodingError):
        encode(params, np.array([PAD_ID, PAD_ID]))


# ---------------------------------------------------------------------------
# primary loss


def test_primary_loss_uniform_at_zero_params():
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=5)
    params = cfg.zeros()
    batch = [(np.array([3, 4]), 0), (np.array([5]), 4)]
    loss, logits = primary_loss(params, batch)
    assert abs(loss - np.log(5)) < 1e-15
    assert np.all(logits == 0.0)


def test_primary_loss_vanishes_with_large_margin(small_model_cfg):
    params = small_model_cfg.zeros()
    params.c0[0] = 100.0  # zero encoder: logits equal the bias
    loss, _ = primary_loss(params, [(np.array([3, 4]), 0)])
    assert loss < 1e-40


def test_primary_loss_matches_high_precision_softmax(small_model_cfg):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(2)
    params = small_model_cfg.init_params(rng)
    batch = [(rng.integers(3, 12, size=rng.integers(2, 6)), int(rng.integers(3)))
             for _ in range(4)]
    loss, logits = primary_loss(params, batch)
    total = mpmath.mpf(0)
    for row, (_, label) in zip(logits, batch):
        denom = mpmath.fsum(mpmath.e ** mpmath.mpf(z) for z in row)
        total += -mpmath.log(mpmath.e ** mpmath.mpf(row[label]) / denom)
    expected = float(total / len(batch))
    assert abs(loss - expected) < 1e-10


def test_primary_loss_rejects_bad_label(small_model_cfg):
    params = small_model_cfg.zeros()
    with pytest.raises(ValueError, match="labels"):
        primary_loss(params, [(np.array([3]), 3)])
    with pytest.raises(ValueError, match="labels"):
        primary_loss(params, [(np.array([3]), -1)])


# ---------------------------------------------------------------------------
# masking


def test_mask_tokens_full_mask_strategy():
    seq = np.array([3, 4, 5, 6])
    entry = mask_tokens(seq, np.random.default_rng(0), mask_prob=1.0, strategy=(1.0, 0, 0))
    masked, targets = entry
    assert np.all(masked == MASK_ID)
    assert sorted(pos for pos, _ in targets) == [0, 1, 2, 3]
    assert [orig for _, orig in sorted(targets)] == [3, 4, 5, 6]


def test_mask_tokens_forces_one_position_on_unlucky_draw():
    seq = np.array([3, 4, 5])
    entry = mask_tokens(seq, np.random.default_rng(0), mask_prob=1e-12)
    masked, targets = entry
    assert len(targets) == 1
    pos, orig = targets[0]
    assert masked[pos] == MASK_ID
    assert orig == seq[pos]


def test_mask_tokens_skips_unmaskable_sequence():
    assert mask_tokens(np.array([], dtype=np.int64), np.random.default_rng(0)) is None
    assert mask_tokens(np.array([PAD_ID, PAD_ID]), np.random.default_rng(0)) is None


def test_mask_tokens_never_targets_pad():
    seq = np.array([PAD_ID, 3, PAD_ID, 4])
    masked, targets = mask_tokens(seq, np.random.default_rng(1), mask_prob=1.0)
    assert {orig for _, orig in targets} == {3, 4}
    assert masked[0] == PAD_ID and masked[2] == PAD_ID


def test_mask_tokens_random_replacement_avoids_original():
    seq = np.array([5] * 200)
    masked, targets = mask_tokens(seq, np.random.default_rng(2), mask_prob=1.0,
                                  strategy=(0.0, 0.0, 1.0), vocab_size=8)
    assert len(targets) == 200
    assert np.all(masked != 5)
    assert np.all(masked >= FIRST_REAL_ID)


def test_mask_tokens_random_replacement_falls_back_to_unk():
    # vocab of one real token: nothing to replace with except UNK
    seq = np.array([3, 3])
    masked, _ = mask_tokens(seq, np.random.default_rng(3), mask_prob=1.0,
                            strategy=(0.0, 0.0, 1.0), vocab_size=4)
    assert np.all(masked == UNK_ID)


def test_mask_tokens_bert_style_mixture():
    rng = np.random.default_rng(4)
    n_mask = n_same = n_random = 0
    for _ in range(300):
        seq = np.arange(FIRST_REAL_ID, FIRST_REAL_ID + 20)
        masked, targets = mask_tokens(seq, rng, mask_prob=0.15,
                                      strategy=(0.8, 0.1, 0.1), vocab_size=100)
        for pos, orig in targets:
            if masked[pos] == MASK_ID:
                n_mask += 1
            elif masked[pos] == orig:
                n_same += 1
            else:
                n_random += 1
    total = n_mask + n_same + n_random
    assert n_mask / total == pytest.approx(0.8, abs=0.05)
    assert n_same / total == pytest.approx(0.1, abs=0.04)
    assert n_random / total == pytest.approx(0.1, abs=0.04)


def test_mask_tokens_validates_arguments():
    seq = np.array([3, 4])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mask_tokens(seq, rng, mask_prob=0.0)
    with pytest.raises(ValueError):
        mask_tokens(seq, rng, strategy=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="vocab_size"):
        mask_tokens(seq, rng, strategy=(0.5, 0.0, 0.5))


def test_masked_batch_counts_skipped():
    seqs = [np.array([3, 4]), np.array([], dtype=np.int64), np.array([5])]
    batch = MaskedBatch.build(seqs, np.random.default_rng(0), mask_prob=1.0)
    assert batch.n_skipped == 1
    assert len(batch.sequences) == 3
    assert {si for si, _, _ in batch.targets} == {0, 2}


def test_masked_batch_invariants_under_default_strategy():
    rng = np.random.default_rng(5)
    seqs = [rng.integers(3, 30, size=rng.integers(1, 9)) for _ in range(40)]
    batch = MaskedBatch.build(seqs, rng, mask_prob=0.3, vocab_size=30)
    for si, pos, orig in batch.targets:
        assert batch.sequences[si][pos] == MASK_ID
        assert orig not in (PAD_ID, MASK_ID)


strategies = st.sampled_from([(1.0, 0.0, 0.0), (0.8, 0.1, 0.1), (0.0, 1.0, 0.0),
                               (0.0, 0.0, 1.0), (0.5, 0.0, 0.5)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(0, 9), min_size=1, max_size=8),
       mask_prob=st.sampled_from([1e-12, 0.15, 0.3, 1.0]), strategy=strategies,
       vocab_size=st.integers(FIRST_REAL_ID + 1, 12))
def test_masked_batch_properties(seed, lengths, mask_prob, strategy, vocab_size):
    """Over random sequences that may hold PAD, UNK and MASK ids: targets are
    unique (sequence, position) pairs at non-PAD, non-MASK positions and
    record the original id; every sequence with a maskable token gets at
    least one target (exactly one, forced, when the draw selects nothing;
    all of its maskable positions when the draw selects everything), and the
    others are skipped and left as they were; positions that are not targets
    keep their ids. Each target holds MASK (only if the strategy masks), its
    original id (only if it keeps some), or a random replacement (only if it
    replaces some): a real id in range other than the original, or UNK when
    the vocabulary has no other real id."""
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(0, vocab_size, size=n) for n in lengths]
    batch = MaskedBatch.build(seqs, rng, mask_prob=mask_prob, strategy=strategy,
                              vocab_size=vocab_size)
    assert len(batch.sequences) == len(seqs)
    places = [(si, pos) for si, pos, _ in batch.targets]
    assert len(set(places)) == len(places)
    p_mask, p_same, p_random = strategy
    for si, pos, orig in batch.targets:
        assert seqs[si][pos] == orig and orig not in (PAD_ID, MASK_ID)
        got = batch.sequences[si][pos]
        if got == MASK_ID:
            assert p_mask > 0
        elif got == orig:
            assert p_same > 0
        else:
            assert p_random > 0
            if vocab_size - FIRST_REAL_ID - (orig >= FIRST_REAL_ID) > 0:
                assert FIRST_REAL_ID <= got < vocab_size
            else:
                assert got == UNK_ID
    maskable = [bool(np.any((s != PAD_ID) & (s != MASK_ID))) for s in seqs]
    assert {si for si, _ in places} == {si for si, ok in enumerate(maskable) if ok}
    assert batch.n_skipped == maskable.count(False)
    for si, (seq, masked) in enumerate(zip(seqs, batch.sequences)):
        positions = [pos for i, pos in places if i == si]
        kept = np.ones(seq.size, dtype=bool)
        kept[positions] = False
        assert masked.shape == seq.shape and np.array_equal(masked[kept], seq[kept])
        if mask_prob == 1e-12:
            assert len(positions) == min(1, int(maskable[si]))
        elif mask_prob == 1.0:
            assert sorted(positions) == list(np.flatnonzero((seq != PAD_ID) & (seq != MASK_ID)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mask_prob=st.sampled_from([0.15, 0.3, 0.6]),
       strategy=strategies)
def test_masking_proportions_follow_the_strategy(seed, mask_prob, strategy):
    """Over 100 sequences of 12 real ids, the share of positions selected and
    the shares of masked, kept and replaced targets lie within five standard
    deviations (plus one count) of mask_prob and the strategy: the
    proportions of criterion 4 at any seed, not only at fixed draws."""
    rng = np.random.default_rng(seed)
    vocab_size = 50
    seqs = [rng.integers(FIRST_REAL_ID, vocab_size, size=12) for _ in range(100)]
    batch = MaskedBatch.build(seqs, rng, mask_prob=mask_prob, strategy=strategy,
                              vocab_size=vocab_size)

    def near(count, mean, var):
        return abs(count - mean) <= 5 * np.sqrt(var) + 1

    # Per sequence, Binomial(12, mask_prob) positions are drawn, plus one
    # forced when none is (probability (1 - mask_prob) ** 12); the forced one
    # adds at most 1/4 to the variance.
    n_targets = batch.num_targets
    assert near(n_targets, len(seqs) * (12 * mask_prob + (1 - mask_prob) ** 12),
                len(seqs) * (12 * mask_prob * (1 - mask_prob) + 0.25))
    kinds = [0, 0, 0]
    for si, pos, orig in batch.targets:
        got = batch.sequences[si][pos]
        kinds[0 if got == MASK_ID else 1 if got == orig else 2] += 1
    assert all(near(count, n_targets * p, n_targets * p * (1 - p))
               for count, p in zip(kinds, strategy))


# ---------------------------------------------------------------------------
# aux / total loss


def test_aux_loss_uniform_at_zero_params():
    cfg = ModelConfig(vocab_size=10, d_emb=4, d_h=3, n_way=3)
    params = cfg.zeros()
    masked = MaskedBatch(sequences=[np.array([MASK_ID, 4])], targets=[(0, 0, 5)])
    assert abs(aux_loss(params, masked) - np.log(10)) < 1e-15


def test_aux_loss_single_target_hand_computed():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    cfg = ModelConfig(vocab_size=4, d_emb=2, d_h=2, n_way=2)
    params = cfg.init_params(np.random.default_rng(0))
    masked = MaskedBatch(sequences=[np.array([MASK_ID, 3])], targets=[(0, 0, 3)])
    hiddens, _ = encode(params, masked.sequences[0])
    logits = params.P @ hiddens[0] + params.p0
    denom = mpmath.fsum(mpmath.e ** mpmath.mpf(z) for z in logits)
    expected = float(-mpmath.log(mpmath.e ** mpmath.mpf(logits[3]) / denom))
    assert abs(aux_loss(params, masked) - expected) < 1e-12


def test_aux_loss_invariant_to_target_order(small_model_cfg):
    rng = np.random.default_rng(6)
    params = small_model_cfg.init_params(rng)
    seqs = [np.array([MASK_ID, 4, MASK_ID]), np.array([5, MASK_ID])]
    targets = [(0, 0, 4), (0, 2, 6), (1, 1, 7)]
    a = aux_loss(params, MaskedBatch(sequences=seqs, targets=targets))
    b = aux_loss(params, MaskedBatch(sequences=seqs, targets=targets[::-1]))
    assert a == b


def test_aux_loss_rejects_empty_targets(small_model_cfg):
    params = small_model_cfg.zeros()
    with pytest.raises(ValueError, match="targets"):
        aux_loss(params, MaskedBatch(sequences=[np.array([3])], targets=[]))


@pytest.mark.parametrize("weight", [0.0, 1e-3, 0.3, 1.0])
def test_total_loss_is_convex_combination(weight, small_model_cfg):
    rng = np.random.default_rng(7)
    params = small_model_cfg.init_params(rng)
    ep = random_episode(rng)
    masked = MaskedBatch.build([s for s, _ in ep.support], rng, vocab_size=12)
    pri, _ = primary_loss(params, ep.support)
    aux = aux_loss(params, masked)
    total = total_loss(params, ep.support, masked, weight)
    assert abs(total - ((1 - weight) * pri + weight * aux)) < 1e-14


def test_total_loss_boundaries_exact(small_model_cfg):
    rng = np.random.default_rng(8)
    params = small_model_cfg.init_params(rng)
    ep = random_episode(rng)
    masked = MaskedBatch.build([s for s, _ in ep.support], rng, vocab_size=12)
    assert total_loss(params, ep.support, masked, 0.0) == primary_loss(params, ep.support)[0]
    assert total_loss(params, ep.support, masked, 1.0) == aux_loss(params, masked)


def test_total_loss_skips_aux_without_targets(small_model_cfg):
    rng = np.random.default_rng(9)
    params = small_model_cfg.init_params(rng)
    ep = random_episode(rng)
    empty = MaskedBatch(sequences=[], targets=[], n_skipped=len(ep.support))
    expected = (1 - 0.3) * primary_loss(params, ep.support)[0]
    assert abs(total_loss(params, ep.support, empty, 0.3) - expected) < 1e-15
    assert abs(total_loss(params, ep.support, None, 0.3) - expected) < 1e-15


# ---------------------------------------------------------------------------
# params / flat vector plumbing


def test_flat_round_trip_is_identity(small_model_cfg):
    params = small_model_cfg.init_params(np.random.default_rng(10))
    rebuilt = ModelParams.from_flat(params.to_flat(), small_model_cfg.layout())
    for name in BLOCK_NAMES:
        assert np.array_equal(getattr(params, name), getattr(rebuilt, name))


def test_layout_block_order_and_offsets(small_model_cfg):
    layout = small_model_cfg.layout()
    assert tuple(b[0] for b in layout.blocks) == BLOCK_NAMES
    offsets = [b[1] for b in layout.blocks]
    lengths = [b[2] for b in layout.blocks]
    assert offsets == [0] + list(np.cumsum(lengths)[:-1])
    assert layout.size == sum(lengths)


def test_layout_primary_is_a_read_only_prefix_view(small_model_cfg):
    layout = small_model_cfg.layout()
    values = np.arange(layout.size, dtype=np.float64)
    primary = layout.primary(values)
    c0_stop = layout.slices["c0"].stop
    assert np.array_equal(primary, values[:c0_stop])
    assert np.array_equal(primary, np.concatenate([values[layout.slices[name]]
                                                   for name in PRIMARY_BLOCKS]))
    # The primary blocks are the layout's prefix, so they come back as a view.
    assert np.shares_memory(primary, values)
    with pytest.raises(ValueError, match="read-only"):
        primary[0] = 1.0
    assert values[0] == 0.0
    with pytest.raises(ValueError, match="layout expects"):
        layout.primary(values[:-1])


def test_checkpoint_round_trip(tmp_path, small_model_cfg):
    params = small_model_cfg.init_params(np.random.default_rng(12))
    path = tmp_path / "params.bin"
    save_params(path, params)
    loaded = load_params(path)
    assert np.array_equal(loaded.to_flat(), params.to_flat())
    assert loaded.n_way == params.n_way


def test_checkpoint_float64_bytes(tmp_path, small_model_cfg):
    # The float64 format: one JSON header line, then the flat vector as
    # little-endian float64.
    params = small_model_cfg.init_params(np.random.default_rng(15))
    path = tmp_path / "params.bin"
    save_params(path, params)
    header, _, payload = path.read_bytes().partition(b"\n")
    layout = small_model_cfg.layout()
    assert json.loads(header) == {
        "format": "metatext-params", "vocab_size": 12, "d_emb": 4, "d_h": 3, "n_way": 3,
        "blocks": [[name, offset, length] for name, offset, length, _ in layout.blocks]}
    assert payload == params.to_flat().astype("<f8").tobytes()


def test_checkpoint_keeps_float32(tmp_path):
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3, dtype="float32")
    params = cfg.init_params(np.random.default_rng(16))
    path = tmp_path / "params.bin"
    save_params(path, params)
    header, _, payload = path.read_bytes().partition(b"\n")
    assert json.loads(header)["dtype"] == "float32"
    assert payload == params.to_flat().astype("<f4").tobytes()
    loaded = load_params(path)
    assert loaded.E.dtype == np.float32
    assert loaded.to_flat().tobytes() == params.to_flat().tobytes()
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="bytes"):
        load_params(path)


def test_checkpoint_rejects_truncated_payload(tmp_path, small_model_cfg):
    params = small_model_cfg.init_params(np.random.default_rng(13))
    path = tmp_path / "params.bin"
    save_params(path, params)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="bytes"):
        load_params(path)
    # Half the float64 payload is as many bytes as a float32 one.
    header, _, payload = data.partition(b"\n")
    path.write_bytes(header + b"\n" + payload[: len(payload) // 2])
    with pytest.raises(ValueError, match="bytes"):
        load_params(path)


def test_float32_mode_preserves_dtype():
    cfg = ModelConfig(vocab_size=12, d_emb=4, d_h=3, n_way=3, dtype="float32")
    rng = np.random.default_rng(20)
    params = cfg.init_params(rng)
    assert params.E.dtype == np.float32
    ep = random_episode(rng)
    loss, logits = primary_loss(params, ep.support)
    assert logits.dtype == np.float32 and np.isfinite(loss)
    from metatext.model import grad_total
    grad = grad_total(params, ep.support, None, 0.0)
    assert grad.dtype == np.float32
    assert np.all(np.isfinite(grad))


def test_ops_do_not_mutate_params(small_model_cfg):
    rng = np.random.default_rng(14)
    params = small_model_cfg.init_params(rng)
    ep = random_episode(rng)
    masked = MaskedBatch.build([s for s, _ in ep.support], rng, vocab_size=12)
    before = params.to_flat()
    primary_loss(params, ep.support)
    aux_loss(params, masked)
    total_loss(params, ep.support, masked, 0.5)
    encode(params, ep.support[0][0])
    assert np.array_equal(params.to_flat(), before)
