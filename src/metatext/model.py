r"""Two-headed text encoder: classification head plus masked-token prediction head.

The encoder is deliberately small: token embeddings, a mean-pooled context
vector, and a single tanh layer producing per-token hidden states. Both heads
are linear softmax classifiers over those hidden states. All losses come with
exact analytic gradients over a partitioned flat parameter vector, so the
meta-learning loop never needs an autodiff framework.

Parameter blocks, in fixed flat order:
    E  (vocab, d_emb)   token embeddings        \
    W1 (d_h, 2*d_emb)   hidden layer weights     | encoder (shared)
    b1 (d_h,)           hidden layer bias       /
    C  (n_way, d_h)     classifier weights      \  primary head
    c0 (n_way,)         classifier bias         /
    P  (vocab, d_h)     token predictor weights \  auxiliary head
    p0 (vocab,)         token predictor bias    /
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

PAD_ID = 0
UNK_ID = 1
MASK_ID = 2
FIRST_REAL_ID = 3

BLOCK_NAMES = ("E", "W1", "b1", "C", "c0", "P", "p0")
ENCODER_BLOCKS = ("E", "W1", "b1")
CLASSIFIER_BLOCKS = ("C", "c0")
PREDICTOR_BLOCKS = ("P", "p0")
# Blocks touched by the primary branch; the cosine gate works on this subset.
PRIMARY_BLOCKS = ENCODER_BLOCKS + CLASSIFIER_BLOCKS


class EncodingError(ValueError):
    """Sequence cannot be encoded (empty after PAD removal)."""


class NumericalError(ArithmeticError):
    """A computed gradient contains non-finite entries."""


@dataclass(frozen=True)
class ParamLayout:
    """Block layout of the flat parameter vector: (name, offset, length, shape)."""

    blocks: tuple[tuple[str, int, int, tuple[int, ...]], ...]
    size: int
    slices: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slices", {name: slice(offset, offset + length)
                                            for name, offset, length, _ in self.blocks})

    @classmethod
    @functools.cache
    def build(cls, vocab_size: int, d_emb: int, d_h: int, n_way: int) -> "ParamLayout":
        """The layout for these shapes; memoised, so equal shapes share one
        instance."""
        shapes = {
            "E": (vocab_size, d_emb),
            "W1": (d_h, 2 * d_emb),
            "b1": (d_h,),
            "C": (n_way, d_h),
            "c0": (n_way,),
            "P": (vocab_size, d_h),
            "p0": (vocab_size,),
        }
        blocks = []
        offset = 0
        for name in BLOCK_NAMES:
            shape = shapes[name]
            length = int(np.prod(shape))
            blocks.append((name, offset, length, shape))
            offset += length
        return cls(blocks=tuple(blocks), size=offset)

    def block_slice(self, name: str) -> slice:
        try:
            return self.slices[name]
        except KeyError:
            raise KeyError(f"unknown parameter block {name!r}") from None

    def subset(self, values: np.ndarray, names) -> np.ndarray:
        """The given blocks of a flat vector, in layout order: a view when they
        are adjacent in the layout (PRIMARY_BLOCKS are its prefix), else a
        concatenated copy. A view is marked read-only, so that writing to it
        cannot change the vector it views."""
        wanted = set(names)
        spans = [(offset, offset + length)
                 for name, offset, length, _ in self.blocks if name in wanted]
        if not spans:
            return np.empty(0, dtype=values.dtype)
        start, end = spans[0][0], spans[-1][1]
        if end - start == sum(stop - begin for begin, stop in spans):
            view = values[start:end]
            view.flags.writeable = False
            return view
        return np.concatenate([values[begin:stop] for begin, stop in spans])


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_emb: int
    d_h: int
    n_way: int
    dtype: str = "float64"

    def __post_init__(self):
        if self.vocab_size < FIRST_REAL_ID:
            raise ValueError("vocab_size must cover the reserved PAD/UNK/MASK ids")
        for name in ("d_emb", "d_h", "n_way"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be 'float64' or 'float32'")

    def layout(self) -> ParamLayout:
        return ParamLayout.build(self.vocab_size, self.d_emb, self.d_h, self.n_way)

    def zeros(self) -> "ModelParams":
        return ModelParams.from_flat(np.zeros(self.layout().size, dtype=self.dtype), self.layout())

    def init_params(self, rng: np.random.Generator) -> "ModelParams":
        """Small random init; biases start at zero."""
        blocks = (rng.normal(0.0, 0.1, (self.vocab_size, self.d_emb)),
                  rng.normal(0.0, 1.0 / np.sqrt(2 * self.d_emb), (self.d_h, 2 * self.d_emb)),
                  np.zeros(self.d_h),
                  rng.normal(0.0, 1.0 / np.sqrt(self.d_h), (self.n_way, self.d_h)),
                  np.zeros(self.n_way),
                  rng.normal(0.0, 1.0 / np.sqrt(self.d_h), (self.vocab_size, self.d_h)),
                  np.zeros(self.vocab_size))
        flat = np.concatenate([b.ravel() for b in blocks], dtype=self.dtype)
        return ModelParams.from_flat(flat, self.layout())


@dataclass
class ModelParams:
    """Partitioned parameter store: the seven blocks are reshaped views into
    flat, and from_flat is the one way to build an instance. Treat instances
    as immutable; ops never mutate, and batches memoise passes by the identity
    of the instance."""

    E: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    C: np.ndarray
    c0: np.ndarray
    P: np.ndarray
    p0: np.ndarray
    flat: np.ndarray = field(repr=False)

    @property
    def vocab_size(self) -> int:
        return self.E.shape[0]

    @property
    def d_emb(self) -> int:
        return self.E.shape[1]

    @property
    def d_h(self) -> int:
        return self.W1.shape[0]

    @property
    def n_way(self) -> int:
        return self.C.shape[0]

    def layout(self) -> ParamLayout:
        return ParamLayout.build(self.vocab_size, self.d_emb, self.d_h, self.n_way)

    def validate(self) -> None:
        for name in BLOCK_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"block {name} contains non-finite entries")

    def to_flat(self) -> np.ndarray:
        """A copy of the flat vector."""
        return self.flat.copy()

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout: ParamLayout) -> "ModelParams":
        """Blocks as reshaped views into flat, which the instance keeps: the
        caller hands over a vector that nothing writes afterwards."""
        if flat.shape != (layout.size,):
            raise ValueError(f"flat vector has length {flat.shape}, layout expects {layout.size}")
        return cls(flat=flat, **{name: flat[offset : offset + length].reshape(shape)
                                 for name, offset, length, shape in layout.blocks})

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.layout())


@dataclass
class FlatGradient:
    """Flat gradient vector plus the block layout that describes it."""

    values: np.ndarray
    layout: ParamLayout

    @classmethod
    def zeros(cls, layout: ParamLayout, dtype=np.float64) -> "FlatGradient":
        return cls(values=np.zeros(layout.size, dtype=dtype), layout=layout)

    def block(self, name: str) -> np.ndarray:
        return self.values[self.layout.block_slice(name)]

    def subset(self, names) -> np.ndarray:
        return self.layout.subset(self.values, names)

    def norm(self, names=None) -> float:
        vec = self.values if names is None else self.subset(names)
        return float(np.linalg.norm(vec))


@dataclass
class MaskedBatch:
    """Masked copies of token sequences plus the positions to predict.

    targets holds (sequence index, position, original token id) triples; under
    the default all-mask replacement strategy every target position carries
    MASK_ID in the masked sequence. The padded arrays are derived once per
    instance, and the last pass of the masked-token branch is memoised on it,
    so treat an instance as immutable.
    """

    sequences: list
    targets: list
    n_skipped: int = 0
    memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    @functools.cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """The masked sequences padded into (B, L) tokens plus their non-PAD
        mask, derived on first use."""
        return _pack(self.sequences)

    @functools.cached_property
    def target_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Targets as (sequence index, position, original id) int arrays."""
        arr = np.asarray(self.targets, dtype=np.int64).reshape(-1, 3)
        return arr[:, 0], arr[:, 1], arr[:, 2]

    @classmethod
    def build(cls, sequences, rng: np.random.Generator, mask_prob: float = 0.30,
              strategy=(1.0, 0.0, 0.0), vocab_size: int | None = None) -> "MaskedBatch":
        """Mask each sequence independently; sequences with nothing maskable are
        kept in place (so indices line up) but contribute no targets."""
        masked_seqs = []
        targets = []
        n_skipped = 0
        for si, seq in enumerate(sequences):
            entry = mask_tokens(seq, rng, mask_prob=mask_prob, strategy=strategy,
                                vocab_size=vocab_size)
            if entry is None:
                masked_seqs.append(np.asarray(seq, dtype=np.int64))
                n_skipped += 1
                continue
            mseq, seq_targets = entry
            masked_seqs.append(mseq)
            targets.extend((si, pos, orig) for pos, orig in seq_targets)
        return cls(sequences=masked_seqs, targets=targets, n_skipped=n_skipped)


def check_masking(mask_prob: float, strategy) -> tuple[float, float, float]:
    """Check a masking probability and (mask, same, random) replacement
    proportions; returns the proportions as floats."""
    if not 0.0 < mask_prob <= 1.0:
        raise ValueError(f"mask_prob must be in (0, 1], got {mask_prob}")
    strategy = tuple(float(p) for p in strategy)
    if len(strategy) != 3 or any(p < 0 for p in strategy) or abs(sum(strategy) - 1.0) > 1e-9:
        raise ValueError("mask_strategy must be 3 non-negative proportions summing to 1, "
                         f"got {strategy}")
    return strategy


def mask_tokens(sequence, rng: np.random.Generator, mask_prob: float = 0.30,
                strategy=(1.0, 0.0, 0.0), vocab_size: int | None = None):
    """Draw the masking pattern for one sequence.

    Every non-PAD token is independently selected with probability mask_prob;
    when the draw selects nothing, one uniformly random maskable position is
    forced so short texts still feed the prediction task. Selected tokens are
    replaced according to strategy = (mask, same, random) proportions. Returns
    (masked sequence, [(position, original id), ...]), or None when the
    sequence has no maskable token.
    """
    p_mask, p_same, p_random = check_masking(mask_prob, strategy)
    if p_random > 0 and vocab_size is None:
        raise ValueError("vocab_size is required when the random-replacement proportion is nonzero")

    seq = np.asarray(sequence, dtype=np.int64)
    maskable = (seq != PAD_ID) & (seq != MASK_ID)
    positions = np.flatnonzero(maskable)
    if positions.size == 0:
        return None

    selected = positions[rng.random(positions.size) < mask_prob]
    if selected.size == 0:
        selected = positions[[rng.integers(positions.size)]]

    masked = seq.copy()
    targets = []
    for pos in selected:
        orig = int(seq[pos])
        u = rng.random()
        if u < p_mask:
            masked[pos] = MASK_ID
        elif u < p_mask + p_same:
            pass
        else:
            masked[pos] = _random_replacement(orig, vocab_size, rng)
        targets.append((int(pos), orig))
    return masked, targets


def _random_replacement(orig: int, vocab_size: int, rng: np.random.Generator) -> int:
    """Uniform over real token ids excluding the original; UNK if no other exists."""
    n_real = vocab_size - FIRST_REAL_ID
    if FIRST_REAL_ID <= orig < vocab_size:
        n_real -= 1
    if n_real <= 0:
        return UNK_ID
    draw = int(rng.integers(n_real)) + FIRST_REAL_ID
    if FIRST_REAL_ID <= orig < vocab_size and draw >= orig:
        draw += 1
    return draw


# ---------------------------------------------------------------------------
# forward pass


@dataclass
class _Forward:
    """Cached intermediates for one batched forward pass."""

    tokens: np.ndarray   # (B, L) int
    mask: np.ndarray     # (B, L) bool
    counts: np.ndarray   # (B,) float
    emb: np.ndarray      # (B, L, d_emb)
    ctx: np.ndarray      # (B, d_emb)
    hidden: np.ndarray   # (B, L, d_h)
    rep: np.ndarray      # (B, d_h)


def _pack(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Pad variable-length sequences with PAD into a (B, L) int array plus mask."""
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    if not seqs:
        raise ValueError("batch is empty")
    max_len = max(1, max(s.size for s in seqs))
    tokens = np.full((len(seqs), max_len), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        tokens[i, : s.size] = s
    return tokens, tokens != PAD_ID


@dataclass(eq=False)
class PackedBatch:
    """(sequence, label) pairs padded once; the losses and gradients accept it
    in place of the pairs, so a batch used for many steps is packed once, and
    a gradient taken after its loss at the same params reuses the pass."""

    tokens: np.ndarray   # (B, L) int
    mask: np.ndarray     # (B, L) bool, False at PAD
    labels: np.ndarray   # (B,) int
    memo: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def pack(cls, batch) -> "PackedBatch":
        """Pack (sequence, label) pairs; a packed batch is returned as it is."""
        if isinstance(batch, cls):
            return batch
        seqs = [pair[0] for pair in batch]
        labels = np.asarray([pair[1] for pair in batch], dtype=np.int64)
        return cls(*_pack(seqs), labels)


def _forward(params: ModelParams, tokens: np.ndarray, mask: np.ndarray) -> _Forward:
    counts = mask.sum(axis=1).astype(params.E.dtype)
    if np.any(counts == 0):
        bad = int(np.flatnonzero(counts == 0)[0])
        raise EncodingError(f"sequence {bad} is empty after PAD removal")
    d_emb = params.d_emb
    # Both masked means are one batched matmul with these weights.
    pool = (mask / counts[:, None])[:, None, :]                 # (B, 1, L)
    emb = params.E[tokens]                                      # (B, L, De)
    ctx = (pool @ emb)[:, 0]                                    # (B, De)
    w_tok = params.W1[:, :d_emb]
    w_ctx = params.W1[:, d_emb:]
    hidden = emb @ w_tok.T                                      # (B, L, Dh)
    hidden += (ctx @ w_ctx.T)[:, None, :]
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    rep = (pool @ hidden)[:, 0]                                 # (B, Dh)
    return _Forward(tokens=tokens, mask=mask, counts=counts, emb=emb, ctx=ctx,
                    hidden=hidden, rep=rep)


def encode(params: ModelParams, sequence) -> tuple[np.ndarray, np.ndarray]:
    """Encode one sequence.

    Returns per-token hidden states (length x d_h) and the sentence
    representation (mean hidden state over non-PAD positions).
    """
    seq = np.asarray(sequence, dtype=np.int64)
    if seq.ndim != 1 or not np.any((seq != PAD_ID)):
        raise EncodingError("sequence is empty after PAD removal")
    fw = _forward(params, seq[None, :], (seq != PAD_ID)[None, :])
    return fw.hidden[0], fw.rep[0]


# ---------------------------------------------------------------------------
# losses


def _labelled(params: ModelParams, batch) -> PackedBatch:
    """Pack (sequence, label) pairs, or take a packed batch, and check that its
    labels fit the classifier."""
    packed = PackedBatch.pack(batch)
    if np.any((packed.labels < 0) | (packed.labels >= params.n_way)):
        raise ValueError(f"labels must lie in 0..{params.n_way - 1}")
    return packed


def _softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. logits, numerically stable."""
    logp = logits - logits.max(axis=1, keepdims=True)
    dlogits = np.exp(logp)
    logp -= np.log(dlogits.sum(axis=1, keepdims=True))
    n = logits.shape[0]
    idx = np.arange(n)
    loss = float(-logp[idx, labels].mean())
    np.exp(logp, out=dlogits)
    dlogits[idx, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def _primary_pass(params: ModelParams, packed: PackedBatch):
    """(forward pass, logits, loss, d loss/d logits) of the classification
    branch, memoised on the batch for the last params object it saw."""
    slot = packed.memo
    if slot is None or slot[0] is not params:
        fw = _forward(params, packed.tokens, packed.mask)
        logits = fw.rep @ params.C.T + params.c0
        slot = packed.memo = (params, (fw, logits, *_softmax_xent(logits, packed.labels)))
    return slot[1]


def _aux_pass(params: ModelParams, masked: MaskedBatch):
    """(forward pass, target hidden states, loss, d loss/d logits) of the
    masked-token branch, memoised like _primary_pass."""
    slot = masked.memo
    if slot is None or slot[0] is not params:
        fw = _forward(params, *masked.packed)
        si, pos, orig = masked.target_arrays
        h_tgt = fw.hidden[si, pos]                      # (T, Dh)
        logits = h_tgt @ params.P.T                      # (T, V)
        logits += params.p0
        slot = masked.memo = (params, (fw, h_tgt, *_softmax_xent(logits, orig)))
    return slot[1]


def primary_loss(params: ModelParams, batch) -> tuple[float, np.ndarray]:
    """Mean classification cross-entropy over (sequence, label) pairs or a
    PackedBatch.

    Returns (loss, logits) with logits of shape (batch, n_way).
    """
    _, logits, loss, _ = _primary_pass(params, _labelled(params, batch))
    return loss, logits


def aux_loss(params: ModelParams, masked: MaskedBatch) -> float:
    """Mean vocabulary cross-entropy over every masked-token target."""
    if masked.num_targets == 0:
        raise ValueError("masked batch has no targets; caller must filter")
    return _aux_pass(params, masked)[2]


def total_loss(params: ModelParams, support_batch, masked_support,
               aux_weight: float) -> float:
    """Convex combination (1 - w) * primary + w * auxiliary; support_batch is
    (sequence, label) pairs or a PackedBatch.

    The auxiliary term is dropped (weight ignored) when masked_support is None
    or holds no targets, so degenerate episodes fall back to pure
    classification.
    """
    if not 0.0 <= aux_weight <= 1.0:
        raise ValueError(f"aux_weight must be in [0, 1], got {aux_weight}")
    aux_active = aux_weight > 0.0 and masked_support is not None and masked_support.num_targets > 0
    loss = 0.0
    if aux_weight < 1.0 or not aux_active:
        pri, _ = primary_loss(params, support_batch)
        loss += (1.0 - aux_weight) * pri
    if aux_active:
        loss += aux_weight * aux_loss(params, masked_support)
    return loss


# ---------------------------------------------------------------------------
# analytic gradients


def _backprop_encoder(params: ModelParams, fw: _Forward, d_hidden: np.ndarray):
    """Push a gradient on the per-token hidden states back to E, W1, b1.

    d_hidden must already be zero at PAD positions.
    """
    d_emb, d_h = params.d_emb, params.d_h
    w_tok = params.W1[:, :d_emb]
    w_ctx = params.W1[:, d_emb:]

    d_pre = fw.hidden ** 2                                       # (B, L, Dh)
    np.subtract(1.0, d_pre, out=d_pre)
    d_pre *= d_hidden
    d_pre_sum = d_pre.sum(axis=1)                                # (B, Dh)

    # d_pre and emb are fresh C-contiguous arrays, so both reshapes are views.
    dW_tok = d_pre.reshape(-1, d_h).T @ fw.emb.reshape(-1, d_emb)  # (Dh, De)
    dW_ctx = d_pre_sum.T @ fw.ctx                                # (Dh, De)
    dW1 = np.concatenate([dW_tok, dW_ctx], axis=1)
    db1 = d_pre_sum.sum(axis=0)

    d_emb_direct = d_pre @ w_tok                                 # (B, L, De)
    d_ctx = d_pre_sum @ w_ctx                                    # (B, De)
    # ctx is the masked mean of embeddings, so its gradient spreads uniformly
    # over non-PAD positions; the scatter below reads only those rows.
    d_emb_total = d_emb_direct + (d_ctx / fw.counts[:, None])[:, None, :]

    # One bincount over the flat index token * d_emb + column sums each entry
    # of E in input order from 0.0, as np.add.at into zeros would; it sums in
    # float64, and float32 parameters get the sums rounded once.
    index = (fw.tokens[fw.mask] * d_emb)[:, None] + np.arange(d_emb)
    dE = np.bincount(index.ravel(), weights=d_emb_total[fw.mask].ravel(),
                     minlength=params.E.size).reshape(params.E.shape)
    return dE.astype(params.E.dtype, copy=False), dW1, db1


def _grad_primary_raw(params: ModelParams, batch):
    """Gradient of the classification loss; aux-head blocks stay exactly zero."""
    fw, _, _, d_logits = _primary_pass(params, _labelled(params, batch))
    dC = d_logits.T @ fw.rep
    dc0 = d_logits.sum(axis=0)
    d_rep = d_logits @ params.C                                  # (B, Dh)
    pool = (fw.mask / fw.counts[:, None])                        # (B, L)
    d_hidden = d_rep[:, None, :] * pool[..., None]
    dE, dW1, db1 = _backprop_encoder(params, fw, d_hidden)
    return dE, dW1, db1, dC, dc0


def _grad_aux_raw(params: ModelParams, masked: MaskedBatch):
    """Gradient of the masked-token loss; classifier blocks stay exactly zero."""
    fw, h_tgt, _, d_logits = _aux_pass(params, masked)
    si, pos, _ = masked.target_arrays
    dP = d_logits.T @ h_tgt
    dp0 = d_logits.sum(axis=0)
    d_h_tgt = d_logits @ params.P                                # (T, Dh)
    d_hidden = np.zeros_like(fw.hidden)
    # The (si, pos) targets are unique, so += adds each row once into 0.0.
    d_hidden[si, pos] += d_h_tgt
    dE, dW1, db1 = _backprop_encoder(params, fw, d_hidden)
    return dE, dW1, db1, dP, dp0


def _add_blocks(params: ModelParams, grad: FlatGradient | None, weight: float, names,
                arrays) -> FlatGradient:
    """Add weight * each block into the gradient's slice for it; with grad None,
    into a new zero gradient, allocated only now that the branch's backward
    pass has freed its temporaries. The blocks are the fresh arrays a raw
    gradient helper returns, so each is scaled in place; at weight 1.0 scaling
    would leave every bit as it is."""
    if grad is None:
        grad = FlatGradient.zeros(params.layout(), dtype=params.E.dtype)
    slices = grad.layout.slices
    for name, arr in zip(names, arrays):
        if weight != 1.0:
            arr *= weight
        grad.values[slices[name]] += arr.ravel()
    return grad


def _check_finite(grad: FlatGradient, op: str) -> FlatGradient:
    if not np.all(np.isfinite(grad.values)):
        for name, offset, length, _ in grad.layout.blocks:
            if not np.all(np.isfinite(grad.values[offset : offset + length])):
                raise NumericalError(f"{op} produced non-finite entries in block {name}")
    return grad


def grad_primary(params: ModelParams, batch) -> FlatGradient:
    """Exact gradient of primary_loss w.r.t. encoder and classifier blocks.

    Predictor-head blocks of the result are exactly zero: the classification
    path never touches them.
    """
    blocks = _grad_primary_raw(params, batch)
    grad = FlatGradient.zeros(params.layout(), dtype=params.E.dtype)
    slices = grad.layout.slices
    # Assigned, not added: the result keeps each block's bits, -0.0 included.
    for name, arr in zip(PRIMARY_BLOCKS, blocks):
        grad.values[slices[name]] = arr.ravel()
    return _check_finite(grad, "grad_primary")


def grad_total(params: ModelParams, support_batch, masked_support,
               aux_weight: float) -> FlatGradient:
    """Exact gradient of total_loss over all parameter blocks."""
    if not 0.0 <= aux_weight <= 1.0:
        raise ValueError(f"aux_weight must be in [0, 1], got {aux_weight}")
    aux_active = aux_weight > 0.0 and masked_support is not None and masked_support.num_targets > 0

    # Blocks are added into the zero vector, not assigned: 0.0 + x turns a
    # -0.0 entry into +0.0, and the outputs depend on those bits.
    # Each branch's blocks are let go before the next branch computes its own.
    grad = None
    if aux_weight < 1.0 or not aux_active:
        grad = _add_blocks(params, grad, 1.0 - aux_weight, PRIMARY_BLOCKS,
                           _grad_primary_raw(params, support_batch))
    if aux_active:
        grad = _add_blocks(params, grad, aux_weight, ENCODER_BLOCKS + PREDICTOR_BLOCKS,
                           _grad_aux_raw(params, masked_support))
    return _check_finite(grad, "grad_total")


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line, then the flat parameter vector and
# any further sections of the same length, little-endian in the parameters'
# own dtype; the header names the dtype unless it is float64, so float64 files
# keep the bytes they had before dtypes were recorded

_PARAMS_FORMAT = "metatext-params"


def save_params(path, params: ModelParams, fmt: str = _PARAMS_FORMAT,
                sections: dict | None = None, **header_fields) -> None:
    """Write params, then each named section of the same length, under a
    header of the format, the shapes, the blocks, the section names (when there
    are sections) and header_fields."""
    blocks = [[name, offset, length] for name, offset, length, _ in params.layout().blocks]
    header = {"format": fmt, "vocab_size": params.vocab_size, "d_emb": params.d_emb,
              "d_h": params.d_h, "n_way": params.n_way, "blocks": blocks}
    if params.E.dtype != np.float64:
        header["dtype"] = params.E.dtype.name
    if sections:
        header["sections"] = ["psi", *sections]
    header.update(header_fields)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for vec in (params.flat, *(sections or {}).values()):
            fh.write(np.ascontiguousarray(vec, params.E.dtype.newbyteorder("<")).tobytes())


def read_checkpoint(path, fmt: str = _PARAMS_FORMAT) -> tuple[dict, ModelParams, list]:
    """Read what save_params wrote: (header, params, the further sections in
    order), in the dtype they were written in."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    if header.get("format") != fmt:
        raise ValueError(f"{path}: not a {fmt} checkpoint")
    layout = ParamLayout.build(header["vocab_size"], header["d_emb"],
                               header["d_h"], header["n_way"])
    dtype = np.dtype(header.get("dtype", "float64"))
    n_sections = len(header.get("sections", ["psi"]))
    expected = layout.size * n_sections * dtype.itemsize
    if dtype not in (np.float64, np.float32) or len(payload) != expected:
        raise ValueError(f"{path}: {dtype} payload has {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype=dtype.newbyteorder("<")).astype(dtype)
    psi, *rest = np.split(flat, n_sections)
    return header, ModelParams.from_flat(psi, layout), rest


def load_params(path) -> ModelParams:
    return read_checkpoint(path)[1]
