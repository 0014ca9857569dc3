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

    def block_shape(self, name: str) -> tuple[int, ...]:
        for bname, _, _, shape in self.blocks:
            if bname == name:
                return shape
        raise KeyError(f"unknown parameter block {name!r}")

    def subset(self, values: np.ndarray, names) -> np.ndarray:
        """Concatenate the given blocks of a flat vector, in layout order."""
        wanted = set(names)
        parts = [
            values[offset : offset + length]
            for name, offset, length, _ in self.blocks
            if name in wanted
        ]
        return np.concatenate(parts) if parts else np.empty(0, dtype=values.dtype)

    def header_blocks(self):
        return [[name, offset, length] for name, offset, length, _ in self.blocks]


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

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def layout(self) -> ParamLayout:
        return ParamLayout.build(self.vocab_size, self.d_emb, self.d_h, self.n_way)

    def zeros(self) -> "ModelParams":
        return ModelParams.from_flat(np.zeros(self.layout().size, dtype=self.np_dtype), self.layout())

    def init_params(self, rng: np.random.Generator) -> "ModelParams":
        """Small random init; biases start at zero."""
        dt = self.np_dtype
        return ModelParams(
            E=rng.normal(0.0, 0.1, (self.vocab_size, self.d_emb)).astype(dt),
            W1=rng.normal(0.0, 1.0 / np.sqrt(2 * self.d_emb), (self.d_h, 2 * self.d_emb)).astype(dt),
            b1=np.zeros(self.d_h, dtype=dt),
            C=rng.normal(0.0, 1.0 / np.sqrt(self.d_h), (self.n_way, self.d_h)).astype(dt),
            c0=np.zeros(self.n_way, dtype=dt),
            P=rng.normal(0.0, 1.0 / np.sqrt(self.d_h), (self.vocab_size, self.d_h)).astype(dt),
            p0=np.zeros(self.vocab_size, dtype=dt),
        )


@dataclass
class ModelParams:
    """Partitioned parameter store. Treat instances as immutable; ops never mutate."""

    E: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    C: np.ndarray
    c0: np.ndarray
    P: np.ndarray
    p0: np.ndarray

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

    def config(self) -> ModelConfig:
        return ModelConfig(self.vocab_size, self.d_emb, self.d_h, self.n_way,
                           dtype=str(self.E.dtype))

    def layout(self) -> ParamLayout:
        return ParamLayout.build(self.vocab_size, self.d_emb, self.d_h, self.n_way)

    def validate(self) -> None:
        layout = self.layout()
        for name in BLOCK_NAMES:
            arr = getattr(self, name)
            if arr.shape != layout.block_shape(name):
                raise ValueError(f"block {name} has shape {arr.shape}, expected {layout.block_shape(name)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"block {name} contains non-finite entries")

    def to_flat(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).ravel() for name in BLOCK_NAMES])

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout: ParamLayout) -> "ModelParams":
        """Blocks as reshaped views into flat, not copies: the caller hands
        over a vector that nothing writes afterwards."""
        if flat.shape != (layout.size,):
            raise ValueError(f"flat vector has length {flat.shape}, layout expects {layout.size}")
        return cls(**{name: flat[offset : offset + length].reshape(shape)
                      for name, offset, length, shape in layout.blocks})

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: getattr(self, name).copy() for name in BLOCK_NAMES})


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
    instance, so treat an instance as immutable.
    """

    sequences: list
    targets: list
    n_skipped: int = 0

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
    if not 0.0 < mask_prob <= 1.0:
        raise ValueError(f"mask_prob must be in (0, 1], got {mask_prob}")
    strategy = tuple(float(p) for p in strategy)
    if len(strategy) != 3 or any(p < 0 for p in strategy) or abs(sum(strategy) - 1.0) > 1e-9:
        raise ValueError(f"strategy proportions must be non-negative and sum to 1, got {strategy}")
    p_mask, p_same, p_random = strategy
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
    in place of the pairs, so a batch used for many steps is packed once."""

    tokens: np.ndarray   # (B, L) int
    mask: np.ndarray     # (B, L) bool, False at PAD
    labels: np.ndarray   # (B,) int

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
    emb = params.E[tokens]                                      # (B, L, De)
    ctx = (emb * mask[..., None]).sum(axis=1) / counts[:, None]  # (B, De)
    w_tok = params.W1[:, :d_emb]
    w_ctx = params.W1[:, d_emb:]
    pre = emb @ w_tok.T + (ctx @ w_ctx.T)[:, None, :] + params.b1
    hidden = np.tanh(pre)                                       # (B, L, Dh)
    rep = (hidden * mask[..., None]).sum(axis=1) / counts[:, None]
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


def primary_loss(params: ModelParams, batch) -> tuple[float, np.ndarray]:
    """Mean classification cross-entropy over (sequence, label) pairs or a
    PackedBatch.

    Returns (loss, logits) with logits of shape (batch, n_way).
    """
    packed = _labelled(params, batch)
    fw = _forward(params, packed.tokens, packed.mask)
    logits = fw.rep @ params.C.T + params.c0
    loss, _ = _softmax_xent(logits, packed.labels)
    return loss, logits


def aux_loss(params: ModelParams, masked: MaskedBatch) -> float:
    """Mean vocabulary cross-entropy over every masked-token target."""
    if masked.num_targets == 0:
        raise ValueError("masked batch has no targets; caller must filter")
    fw = _forward(params, *masked.packed)
    si, pos, orig = masked.target_arrays
    h_tgt = fw.hidden[si, pos]                      # (T, Dh)
    logits = h_tgt @ params.P.T + params.p0          # (T, V)
    loss, _ = _softmax_xent(logits, orig)
    return loss


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
    d_emb = params.d_emb
    w_tok = params.W1[:, :d_emb]
    w_ctx = params.W1[:, d_emb:]

    d_pre = d_hidden * (1.0 - fw.hidden ** 2)                    # (B, L, Dh)
    d_pre_sum = d_pre.sum(axis=1)                                # (B, Dh)

    dW_tok = np.einsum("bld,ble->de", d_pre, fw.emb)
    dW_ctx = d_pre_sum.T @ fw.ctx                                # (Dh, De)
    dW1 = np.concatenate([dW_tok, dW_ctx], axis=1)
    db1 = d_pre_sum.sum(axis=0)

    d_emb_direct = d_pre @ w_tok                                 # (B, L, De)
    d_ctx = d_pre_sum @ w_ctx                                    # (B, De)
    # ctx is the masked mean of embeddings, so its gradient spreads uniformly
    # over non-PAD positions.
    d_emb_total = d_emb_direct + (d_ctx / fw.counts[:, None])[:, None, :] * fw.mask[..., None]

    dE = np.zeros_like(params.E)
    np.add.at(dE, fw.tokens[fw.mask], d_emb_total[fw.mask])
    return dE, dW1, db1


def _grad_primary_raw(params: ModelParams, batch):
    """Gradient of the classification loss; aux-head blocks stay exactly zero."""
    packed = _labelled(params, batch)
    fw = _forward(params, packed.tokens, packed.mask)
    logits = fw.rep @ params.C.T + params.c0
    loss, d_logits = _softmax_xent(logits, packed.labels)

    dC = d_logits.T @ fw.rep
    dc0 = d_logits.sum(axis=0)
    d_rep = d_logits @ params.C                                  # (B, Dh)
    pool = (fw.mask / fw.counts[:, None])                        # (B, L)
    d_hidden = d_rep[:, None, :] * pool[..., None]
    dE, dW1, db1 = _backprop_encoder(params, fw, d_hidden)
    return loss, dE, dW1, db1, dC, dc0


def _grad_aux_raw(params: ModelParams, masked: MaskedBatch):
    """Gradient of the masked-token loss; classifier blocks stay exactly zero."""
    fw = _forward(params, *masked.packed)
    si, pos, orig = masked.target_arrays
    h_tgt = fw.hidden[si, pos]
    logits = h_tgt @ params.P.T + params.p0
    loss, d_logits = _softmax_xent(logits, orig)

    dP = d_logits.T @ h_tgt
    dp0 = d_logits.sum(axis=0)
    d_h_tgt = d_logits @ params.P                                # (T, Dh)
    d_hidden = np.zeros_like(fw.hidden)
    np.add.at(d_hidden, (si, pos), d_h_tgt)
    dE, dW1, db1 = _backprop_encoder(params, fw, d_hidden)
    return loss, dE, dW1, db1, dP, dp0


def _add_blocks(grad: FlatGradient, weight: float, names, arrays) -> None:
    """Add weight * each block into the gradient's slice for it."""
    slices = grad.layout.slices
    for name, arr in zip(names, arrays):
        view = grad.values[slices[name]]
        view += weight * arr.ravel()


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
    _, *blocks = _grad_primary_raw(params, batch)
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
    grad = FlatGradient.zeros(params.layout(), dtype=params.E.dtype)
    aux_active = aux_weight > 0.0 and masked_support is not None and masked_support.num_targets > 0

    # Blocks are added into the zero vector, not assigned: 0.0 + x turns a
    # -0.0 entry into +0.0, and the outputs depend on those bits.
    if aux_weight < 1.0 or not aux_active:
        _, *blocks = _grad_primary_raw(params, support_batch)
        _add_blocks(grad, 1.0 - aux_weight, PRIMARY_BLOCKS, blocks)
    if aux_active:
        _, *blocks = _grad_aux_raw(params, masked_support)
        _add_blocks(grad, aux_weight, ENCODER_BLOCKS + PREDICTOR_BLOCKS, blocks)
    return _check_finite(grad, "grad_total")


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line, then the flat vector as
# little-endian float64 bytes

_MAGIC = "metatext-params"


def save_params(path, params: ModelParams) -> None:
    layout = params.layout()
    header = {
        "format": _MAGIC,
        "vocab_size": params.vocab_size,
        "d_emb": params.d_emb,
        "d_h": params.d_h,
        "n_way": params.n_way,
        "blocks": layout.header_blocks(),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(params.to_flat(), dtype="<f8").tobytes())


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format") != _MAGIC:
        raise ValueError(f"{path}: not a parameter checkpoint")
    layout = ParamLayout.build(header["vocab_size"], header["d_emb"],
                               header["d_h"], header["n_way"])
    expected = layout.size * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return ModelParams.from_flat(flat, layout)
