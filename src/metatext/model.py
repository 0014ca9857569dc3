r"""Two-headed text encoder: classification head plus masked-token prediction head.

The encoder is deliberately small: token embeddings, a mean-pooled context
vector, and a single tanh layer producing per-token hidden states. Both heads
are linear softmax classifiers over those hidden states. All losses come with
exact analytic gradients, returned as flat vectors in the parameter layout's
order, so the meta-learning loop never needs an autodiff framework.

Parameter blocks, in fixed flat order:
    E  (vocab, d_emb)   token embeddings        \
    W1 (d_h, 2*d_emb)   hidden layer weights     | encoder (shared)
    b1 (d_h,)           hidden layer bias       /
    C  (n_way, d_h)     classifier weights      \  primary head
    c0 (n_way,)         classifier bias         /
    P  (vocab, d_h)     token predictor weights \  auxiliary head
    p0 (vocab,)         token predictor bias    /

A layout may give E and P different row counts: a descent on a support set
works on a compact layout holding only the E rows its batches read, with P
and p0 at full vocabulary when the masked-token branch runs and at no rows
otherwise (see meta._descend).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
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
    def build(cls, e_rows: int, d_emb: int, d_h: int, n_way: int, p_rows: int) -> "ParamLayout":
        """The layout for these shapes, E over e_rows token rows and P and p0
        over p_rows (both the vocabulary size except in a descent's compact
        layout)."""
        shapes = {
            "E": (e_rows, d_emb),
            "W1": (d_h, 2 * d_emb),
            "b1": (d_h,),
            "C": (n_way, d_h),
            "c0": (n_way,),
            "P": (p_rows, d_h),
            "p0": (p_rows,),
        }
        blocks = []
        offset = 0
        for name in BLOCK_NAMES:
            shape = shapes[name]
            length = math.prod(shape)
            blocks.append((name, offset, length, shape))
            offset += length
        return cls(blocks=tuple(blocks), size=offset)

    def primary(self, values: np.ndarray) -> np.ndarray:
        """The PRIMARY_BLOCKS of a flat vector in this layout, its prefix: a
        view marked read-only, so that writing to it cannot change the vector
        it views."""
        if values.shape != (self.size,):
            raise ValueError(f"flat vector has length {values.shape}, layout expects {self.size}")
        view = values[:self.slices[PRIMARY_BLOCKS[-1]].stop]
        view.flags.writeable = False
        return view


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
        return ParamLayout.build(self.vocab_size, self.d_emb, self.d_h, self.n_way,
                                 self.vocab_size)

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
    flat, laid out by the layout from_flat was given, and from_flat is the one
    way to build an instance. Treat instances as immutable; ops never mutate,
    and batches memoise passes by the identity of the instance."""

    E: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    C: np.ndarray
    c0: np.ndarray
    P: np.ndarray
    p0: np.ndarray
    flat: np.ndarray = field(repr=False)
    flat_layout: ParamLayout = field(repr=False)

    @property
    def vocab_size(self) -> int:
        """E's row count: the vocabulary size, or a compact layout's rows."""
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
        return self.flat_layout

    def to_flat(self) -> np.ndarray:
        """A copy of the flat vector."""
        return self.flat.copy()

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout: ParamLayout) -> "ModelParams":
        """Blocks as reshaped views into flat, which the instance keeps: the
        caller hands over a vector that nothing writes afterwards."""
        if flat.shape != (layout.size,):
            raise ValueError(f"flat vector has length {flat.shape}, layout expects {layout.size}")
        # The blocks in BLOCK_NAMES order, which is the fields' order.
        return cls(*[flat[offset : offset + length].reshape(shape)
                     for _, offset, length, shape in layout.blocks], flat, layout)

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.layout())


@dataclass
class MaskedBatch:
    """Masked copies of token sequences plus the positions to predict.

    targets holds (sequence index, position, original token id) triples; under
    the default all-mask replacement strategy every target position carries
    MASK_ID in the masked sequence. The padded arrays are derived once per
    instance, and the last pass of the masked-token branch alone is memoised
    on it, so treat an instance as immutable.
    """

    sequences: list
    targets: list
    n_skipped: int = 0
    memo: tuple | None = field(default=None, init=False, repr=False, compare=False)
    plan: _Plan | None = field(default=None, init=False, repr=False, compare=False)

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


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise ValueError unless value is a finite number, or an integer with
    integer set; a bool is neither."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a finite number")
    if isinstance(value, bool) or not isinstance(value, kind) or not (
            isinstance(value, numbers.Integral) or math.isfinite(value)):
        raise ValueError(f"{name} must be {what}, got {value!r}")


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


@dataclass(eq=False, slots=True)
class _Plan:
    """The arrays of one padded (B, L) token batch that depend on the batch
    alone, for one shape of E and one dtype: a batch derives its plan on
    first use and keeps it, so every pass over it reads them. The
    first split rows are a PackedBatch's and the rest a MaskedBatch's; a plan
    kept by a PackedBatch holds the MaskedBatch stacked under it, if any, in
    stacked."""

    tokens: np.ndarray   # (B, L) int
    e_shape: tuple       # the shape of the E it indexes
    split: int
    stacked: MaskedBatch | None
    counts: np.ndarray   # (B,) non-PAD tokens per sequence, in the params' dtype
    pool: np.ndarray     # (B, 1, L) pooling weights mask / counts
    # (B * L * d_emb,) token id * d_emb + column at each position and column,
    # and E.size + column at PAD: the embedding scatter's index into flat E,
    # which sends PAD rows past dE.
    index: np.ndarray

    @classmethod
    def build(cls, tokens: np.ndarray, mask: np.ndarray, params: ModelParams, split: int,
              stacked: MaskedBatch | None = None) -> _Plan:
        counts = mask.sum(axis=1).astype(params.E.dtype)
        if np.any(counts == 0):
            bad = int(np.flatnonzero(counts == 0)[0])
            raise EncodingError(f"sequence {bad if bad < split else bad - split} "
                                "is empty after PAD removal")
        base = np.where(mask, tokens * params.d_emb, params.E.size)
        index = (base[..., None] + np.arange(params.d_emb)).ravel()
        return cls(tokens=tokens, e_shape=params.E.shape, split=split, stacked=stacked,
                   counts=counts, pool=(mask / counts[:, None])[:, None, :], index=index)


@dataclass(slots=True)
class _Forward:
    """Cached intermediates for one batched forward pass."""

    plan: _Plan
    emb: np.ndarray      # (B, L, d_emb)
    ctx: np.ndarray      # (B, d_emb)
    hidden: np.ndarray   # (B, L, d_h)
    rep: np.ndarray      # (split, d_h)


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


@dataclass(eq=False, slots=True)
class PackedBatch:
    """(sequence, label) pairs padded once; the losses and gradients accept it
    in place of the pairs, so a batch used for many steps is packed once, and
    a gradient taken after its loss at the same params and masked batch
    reuses the pass."""

    tokens: np.ndarray   # (B, L) int
    mask: np.ndarray     # (B, L) bool, False at PAD
    labels: np.ndarray   # (B,) int
    memo: tuple | None = field(default=None, init=False, repr=False)
    plan: _Plan | None = field(default=None, init=False, repr=False)
    # The classifier width the labels were last checked against.
    labels_fit: int | None = field(default=None, init=False, repr=False)

    @classmethod
    def pack(cls, batch) -> "PackedBatch":
        """Pack (sequence, label) pairs; a packed batch is returned as it is."""
        if isinstance(batch, cls):
            return batch
        seqs = [pair[0] for pair in batch]
        labels = np.asarray([pair[1] for pair in batch], dtype=np.int64)
        return cls(*_pack(seqs), labels)


def _plan_of(params: ModelParams, holder, stacked: MaskedBatch | None) -> _Plan:
    """The plan kept by holder (a PackedBatch, with stacked under it or None,
    or a MaskedBatch alone), built when it has none for stacked and the
    shape and dtype of the params' E."""
    plan = holder.plan
    if (plan is None or plan.stacked is not stacked or plan.e_shape != params.E.shape
            or plan.counts.dtype != params.E.dtype):
        if isinstance(holder, MaskedBatch):
            tokens, mask, split = *holder.packed, 0
        elif stacked is None:
            tokens, mask, split = holder.tokens, holder.mask, len(holder.tokens)
        else:
            tokens, mask = _pack([*holder.tokens, *stacked.packed[0]])
            split = len(holder.tokens)
        plan = holder.plan = _Plan.build(tokens, mask, params, split, stacked)
    return plan


def _forward(params: ModelParams, plan: _Plan) -> _Forward:
    d_emb = params.d_emb
    # Both masked means are one batched matmul with the pooling weights.
    emb = params.E[plan.tokens]                                 # (B, L, De)
    ctx = (plan.pool @ emb)[:, 0]                               # (B, De)
    w_tok = params.W1[:, :d_emb]
    w_ctx = params.W1[:, d_emb:]
    hidden = emb @ w_tok.T                                      # (B, L, Dh)
    hidden += (ctx @ w_ctx.T)[:, None, :]
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    # Sentence representations of the rows that are classified, the first
    # split.
    rep = (plan.pool[:plan.split] @ hidden[:plan.split])[:, 0]  # (split, Dh)
    return _Forward(plan=plan, emb=emb, ctx=ctx, hidden=hidden, rep=rep)


def encode(params: ModelParams, sequence) -> tuple[np.ndarray, np.ndarray]:
    """Encode one sequence.

    Returns per-token hidden states (length x d_h) and the sentence
    representation (mean hidden state over non-PAD positions).
    """
    seq = np.asarray(sequence, dtype=np.int64)
    if seq.ndim != 1 or not np.any((seq != PAD_ID)):
        raise EncodingError("sequence is empty after PAD removal")
    fw = _forward(params, _Plan.build(seq[None, :], (seq != PAD_ID)[None, :], params, 1))
    return fw.hidden[0], fw.rep[0]


# ---------------------------------------------------------------------------
# losses


def _labelled(params: ModelParams, batch) -> PackedBatch:
    """Pack (sequence, label) pairs, or take a packed batch, and check that its
    labels fit the classifier."""
    packed = PackedBatch.pack(batch)
    if packed.labels_fit != params.n_way:
        if np.any((packed.labels < 0) | (packed.labels >= params.n_way)):
            raise ValueError(f"labels must lie in 0..{params.n_way - 1}")
        packed.labels_fit = params.n_way
    return packed


def _softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. logits, numerically stable:
    one exponential of the shifted logits, taken in place, gives both the
    normaliser and the softmax. The loss is the mean of log(row sum) minus
    the label's shifted logit."""
    n = logits.shape[0]
    idx = np.arange(n)
    probs = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    picked = probs[idx, labels]
    np.exp(probs, out=probs)
    sums = np.add.reduce(probs, axis=1)
    loss = float(np.add.reduce(np.log(sums) - picked) / n)
    # probs / (sum * n), less 1/n at each label: (softmax - one-hot) / n.
    sums *= n
    probs /= sums[:, None]
    probs[idx, labels] -= 1.0 / n
    return loss, probs


def _pass(params: ModelParams, packed: PackedBatch | None, masked: MaskedBatch | None):
    """One forward pass over the rows of the active branches, the
    classification branch on packed and the masked-token branch on masked
    (either may be None), with each branch's logits, loss and d loss/d logits:
    (fw, (logits, loss, d_logits) or None, (target hidden states, loss,
    d_logits) or None). Memoised on packed (masked when packed is None) for
    the last params object and masked batch it saw."""
    holder, stacked = (masked, None) if packed is None else (packed, masked)
    slot = holder.memo
    if slot is None or slot[0] is not params or slot[1] is not stacked:
        plan = _plan_of(params, holder, stacked)
        fw = _forward(params, plan)
        primary = aux = None
        if packed is not None:
            logits = fw.rep @ params.C.T + params.c0
            primary = (logits, *_softmax_xent(logits, packed.labels))
        if masked is not None:
            si, pos, orig = masked.target_arrays
            h_tgt = fw.hidden[si + plan.split, pos]                   # (T, Dh)
            logits = h_tgt @ params.P.T                                # (T, V)
            logits += params.p0
            aux = (h_tgt, *_softmax_xent(logits, orig))
        slot = holder.memo = (params, stacked, (fw, primary, aux))
    return slot[2]


def _branches(params: ModelParams, support_batch, masked_support,
              aux_weight: float) -> tuple[PackedBatch | None, MaskedBatch | None]:
    """The branches total_loss weighs at aux_weight, as (packed support batch
    or None, masked batch or None): the masked-token branch runs when its
    weight is positive and masked_support has targets, the classification
    branch unless the other runs alone at weight 1."""
    if not 0.0 <= aux_weight <= 1.0:
        raise ValueError(f"aux_weight must be in [0, 1], got {aux_weight}")
    aux_active = aux_weight > 0.0 and masked_support is not None and masked_support.num_targets > 0
    packed = (_labelled(params, support_batch) if aux_weight < 1.0 or not aux_active
              else None)
    return packed, masked_support if aux_active else None


def primary_loss(params: ModelParams, batch) -> tuple[float, np.ndarray]:
    """Mean classification cross-entropy over (sequence, label) pairs or a
    PackedBatch.

    Returns (loss, logits) with logits of shape (batch, n_way).
    """
    logits, loss, _ = _pass(params, _labelled(params, batch), None)[1]
    return loss, logits


def aux_loss(params: ModelParams, masked: MaskedBatch) -> float:
    """Mean vocabulary cross-entropy over every masked-token target."""
    if masked.num_targets == 0:
        raise ValueError("masked batch has no targets; caller must filter")
    return _pass(params, None, masked)[2][1]


def total_loss(params: ModelParams, support_batch, masked_support,
               aux_weight: float) -> float:
    """Convex combination (1 - w) * primary + w * auxiliary; support_batch is
    (sequence, label) pairs or a PackedBatch.

    The auxiliary term is dropped when masked_support is None or holds no
    targets, and the primary term keeps its weight 1 - w: such an episode's
    loss is (1 - w) * primary, not the primary loss itself.
    """
    packed, masked = _branches(params, support_batch, masked_support, aux_weight)
    _, primary, aux = _pass(params, packed, masked)
    loss = 0.0
    if primary is not None:
        loss += (1.0 - aux_weight) * primary[1]
    if aux is not None:
        loss += aux_weight * aux[1]
    return loss


# ---------------------------------------------------------------------------
# analytic gradients


def _backprop_encoder(params: ModelParams, fw: _Forward, d_hidden: np.ndarray) -> np.ndarray:
    """Push a gradient on the per-token hidden states back to E, W1, b1: a new
    flat vector in params' layout with those blocks written and the others
    left for the caller to write. It is allocated once the embedding
    scatter's temporaries are gone.

    d_hidden must already be zero at PAD positions. It is overwritten with
    the gradient on the pre-activations, so that no array of its size outlives
    this line besides it.
    """
    d_emb, d_h = params.d_emb, params.d_h
    w_tok = params.W1[:, :d_emb]
    w_ctx = params.W1[:, d_emb:]
    layout = params.layout()

    tanh_grad = fw.hidden ** 2
    d_pre = d_hidden                                             # (B, L, Dh)
    d_pre *= np.subtract(1.0, tanh_grad, out=tanh_grad)
    del tanh_grad
    d_pre_sum = np.add.reduce(d_pre, axis=1)                     # (B, Dh)

    # ctx is the masked mean of embeddings, so its gradient spreads uniformly
    # over non-PAD positions; the scatter below drops the PAD rows.
    d_emb_total = d_pre @ w_tok                                  # (B, L, De)
    d_emb_total += ((d_pre_sum @ w_ctx) / fw.plan.counts[:, None])[:, None, :]

    # One bincount over the plan's flat index token * d_emb + column sums each
    # entry of E in input order from 0.0, as np.add.at into zeros would; PAD
    # rows land in d_emb bins past E, which are dropped. It sums in float64,
    # and float32 parameters get the sums rounded once.
    dE = np.bincount(fw.plan.index, weights=d_emb_total.ravel(),
                     minlength=params.E.size + d_emb)
    del d_emb_total
    values = np.empty(layout.size, dtype=params.E.dtype)
    values[layout.slices["E"]] = dE[:params.E.size]
    del dE

    # d_pre and emb are fresh C-contiguous arrays, so both reshapes are views;
    # each half of dW1 is written in place.
    dW1 = values[layout.slices["W1"]].reshape(d_h, 2 * d_emb)
    np.matmul(d_pre.reshape(-1, d_h).T, fw.emb.reshape(-1, d_emb), out=dW1[:, :d_emb])
    np.matmul(d_pre_sum.T, fw.ctx, out=dW1[:, d_emb:])
    np.add.reduce(d_pre_sum, axis=0, out=values[layout.slices["b1"]])
    return values


def _check_finite(values: np.ndarray, layout: ParamLayout, op: str) -> np.ndarray:
    # A finite dot product means no inf or NaN entry, without a flat-sized
    # temporary; one that overflows falls through to the scan, which names
    # the block.
    with np.errstate(over="ignore"):
        square = values @ values
    if not np.isfinite(square):
        for name, offset, length, _ in layout.blocks:
            if not np.all(np.isfinite(values[offset : offset + length])):
                raise NumericalError(f"{op} produced non-finite entries in block {name}")
    return values


def _gradient(params: ModelParams, packed: PackedBatch | None, masked: MaskedBatch | None,
              aux_weight: float, op: str) -> np.ndarray:
    """The flat gradient of (1 - aux_weight) * classification loss +
    aux_weight * masked-token loss over the branches _pass runs, checked
    finite for op.

    The encoder's backward pass allocates the one vector; each block's
    product is written into its slice, and the blocks no branch touches are
    zero-filled. A single branch's blocks are its own loss's gradient, scaled
    by the branch's weight in place (skipped at weight 1.0). With both, one
    backward pass runs over a d_hidden whose rows already carry their
    branch's weight, and only the head blocks are scaled. A last 0.0 + x over
    the vector turns -0.0 into +0.0: the outputs depend on those bits."""
    fw, primary, aux = _pass(params, packed, masked)
    plan = fw.plan
    layout = params.layout()
    both = primary is not None and aux is not None
    d_hidden = None
    if primary is not None:
        d_rep = primary[2] @ params.C                            # (B, Dh)
        if both:
            d_rep *= 1.0 - aux_weight
        pool = plan.pool[:plan.split, 0, :, None]
        if aux is None:
            d_hidden = d_rep[:, None, :] * pool
        else:
            d_hidden = np.zeros_like(fw.hidden)
            np.multiply(d_rep[:, None, :], pool, out=d_hidden[:plan.split])
    if aux is not None:
        d_h_tgt = aux[2] @ params.P                              # (T, Dh)
        if both:
            d_h_tgt *= aux_weight
        if d_hidden is None:
            d_hidden = np.zeros_like(fw.hidden)
        # The (si, pos) targets are unique, so += adds each row once into 0.0.
        si, pos, _ = masked.target_arrays
        d_hidden[si + plan.split, pos] += d_h_tgt
    values = _backprop_encoder(params, fw, d_hidden)
    # Each head as (weight block, bias block, the branch's weight, and the
    # branch's d loss/d logits and what its logits were taken from, or None).
    heads = (("C", "c0", 1.0 - aux_weight, None if primary is None else (primary[2], fw.rep)),
             ("P", "p0", aux_weight, None if aux is None else (aux[2], aux[0])))
    for weights, bias, weight, branch in heads:
        w_block, b_block = values[layout.slices[weights]], values[layout.slices[bias]]
        if branch is None:
            w_block.fill(0.0)
            b_block.fill(0.0)
            continue
        d_logits, inputs = branch
        np.matmul(d_logits.T, inputs, out=w_block.reshape(getattr(params, weights).shape))
        np.add.reduce(d_logits, axis=0, out=b_block)
        if both:
            w_block *= weight
            b_block *= weight
    if not both:
        weight = 1.0 - aux_weight if aux is None else aux_weight
        if weight != 1.0:
            values *= weight
    values += 0.0
    return _check_finite(values, layout, op)


def grad_primary(params: ModelParams, batch) -> np.ndarray:
    """Exact gradient of primary_loss w.r.t. encoder and classifier blocks.

    Predictor-head blocks of the result are exactly zero: the classification
    path never touches them.
    """
    return _gradient(params, _labelled(params, batch), None, 0.0, "grad_primary")


def grad_total(params: ModelParams, support_batch, masked_support,
               aux_weight: float) -> np.ndarray:
    """Exact gradient of total_loss over all parameter blocks."""
    packed, masked = _branches(params, support_batch, masked_support, aux_weight)
    return _gradient(params, packed, masked, aux_weight, "grad_total")


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
    layout = ParamLayout.build(header["vocab_size"], header["d_emb"], header["d_h"],
                               header["n_way"], header["vocab_size"])
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
