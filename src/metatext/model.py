r"""Two-headed text encoder: classification head plus masked-token prediction head.

The encoder is deliberately small: token embeddings, a mean-pooled context
vector, and a single tanh layer producing per-token hidden states. Both heads
are linear softmax classifiers over those hidden states: the classifier over
their mean, the token predictor at each masked position. A pass computes
hidden states only where a head reads them, and the context means, the mean
and their gradients are small matmuls against pooling matrices built once per
batch (see _Plan). All losses come with exact analytic gradients, returned as
flat vectors in the parameter layout's order, so the meta-learning loop never
needs an autodiff framework.

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

import json
import math
import numbers
from dataclasses import dataclass, field, fields

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


class ConfigError(ValueError):
    """A configuration setting is invalid."""


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

    def __post_init__(self):
        check_fields(self)
        if self.vocab_size < FIRST_REAL_ID:
            raise ConfigError("vocab_size must cover the reserved PAD/UNK/MASK ids")
        for name in ("d_emb", "d_h", "n_way"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    def layout(self) -> ParamLayout:
        return ParamLayout.build(self.vocab_size, self.d_emb, self.d_h, self.n_way,
                                 self.vocab_size)

    def zeros(self) -> "ModelParams":
        return ModelParams.from_flat(np.zeros(self.layout().size), self.layout())

    def init_params(self, rng: np.random.Generator) -> "ModelParams":
        """Small random init; biases start at zero."""
        blocks = (rng.normal(0.0, 0.1, (self.vocab_size, self.d_emb)),
                  rng.normal(0.0, 1.0 / np.sqrt(2 * self.d_emb), (self.d_h, 2 * self.d_emb)),
                  np.zeros(self.d_h),
                  rng.normal(0.0, 1.0 / np.sqrt(self.d_h), (self.n_way, self.d_h)),
                  np.zeros(self.n_way),
                  rng.normal(0.0, 1.0 / np.sqrt(self.d_h), (self.vocab_size, self.d_h)),
                  np.zeros(self.vocab_size))
        flat = np.concatenate([b.ravel() for b in blocks])
        return ModelParams.from_flat(flat, self.layout())


@dataclass
class ModelParams:
    """Partitioned parameter store: the seven blocks are reshaped views into
    flat, laid out by the layout from_flat was given, and from_flat is the one
    way to build an instance. Treat instances as immutable; ops never mutate,
    and a batch's plan memoises its last pass by the identity of the instance;
    meta._descend alone moves its own gathered vector, dropping that memo."""

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
    MASK_ID in the masked sequence. plan is what the masked-token branch alone
    derives from the batch, kept on first use (see _Plan), so treat an
    instance as immutable.
    """

    sequences: list
    targets: list
    plan: _Plan | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    @classmethod
    def build(cls, sequences, rng: np.random.Generator, mask_prob: float = 0.30,
              strategy=(1.0, 0.0, 0.0), vocab_size: int | None = None) -> "MaskedBatch":
        """Mask each sequence independently; sequences with nothing maskable are
        kept in place (so indices line up) but contribute no targets."""
        masked_seqs = []
        targets = []
        for si, seq in enumerate(sequences):
            entry = mask_tokens(seq, rng, mask_prob=mask_prob, strategy=strategy,
                                vocab_size=vocab_size)
            if entry is None:
                masked_seqs.append(np.asarray(seq, dtype=np.int64))
                continue
            mseq, seq_targets = entry
            masked_seqs.append(mseq)
            targets.extend((si, pos, orig) for pos, orig in seq_targets)
        return cls(sequences=masked_seqs, targets=targets)


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise ConfigError unless value is a finite number, or an integer with
    integer set; a bool is neither."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a finite number")
    if isinstance(value, bool) or not isinstance(value, kind) or not (
            isinstance(value, numbers.Integral) or math.isfinite(value)):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


_KINDS = {"bool": bool, "str": str, "tuple": (list, tuple)}


def _checked(name: str, value, annotation: str):
    """value as a field annotated so stores it, or ConfigError."""
    kind, _, optional = annotation.partition(" | ")
    kind, _, item = kind.partition("[")
    if value is None and optional == "None":
        return value
    if kind in ("int", "float"):
        check_number(name, value, integer=kind == "int")
    elif not isinstance(value, _KINDS[kind]):
        raise ConfigError(f"{name} must be a {kind}, got {value!r}")
    return tuple(_checked(name, v, item.partition(",")[0]) for v in value) if item else value


def check_fields(config) -> None:
    """Check every field of a frozen dataclass config against its annotation
    (a string, as annotations are postponed): int and float through
    check_number, bool and str by type, tuple[X, ...] as a list or tuple of X,
    stored as a tuple; X | None also takes None. Raises ConfigError naming
    the field."""
    for f in fields(config):
        object.__setattr__(config, f.name, _checked(f.name, getattr(config, f.name), f.type))


def check_masking(mask_prob: float, strategy) -> tuple[float, float, float]:
    """Check a masking probability and (mask, same, random) replacement
    proportions; returns the proportions as floats."""
    if not 0.0 < mask_prob <= 1.0:
        raise ConfigError(f"mask_prob must be in (0, 1], got {mask_prob}")
    strategy = tuple(float(p) for p in strategy)
    if len(strategy) != 3 or any(p < 0 for p in strategy) or abs(sum(strategy) - 1.0) > 1e-9:
        raise ConfigError("mask_strategy must be 3 non-negative proportions summing to 1, "
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


_BLOCK_ROWS = 32  # the most rows a dense pooling matrix spans


class _BlockRows:
    """A matrix zero off its (row slice, column slice, dense block) blocks;
    @ and .T act as on the dense matrix, and a ufunc handed one (np.matmul
    and np.add among them) raises TypeError."""

    __array_ufunc__ = None

    def __init__(self, blocks: list, shape: tuple):
        self.blocks, self.shape = blocks, shape

    @property
    def T(self) -> _BlockRows:
        return _BlockRows([(cols, rows, m.T) for rows, cols, m in self.blocks], self.shape[::-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[0], x.shape[1]))
        for rows, cols, m in self.blocks:
            out[rows] += m @ x[cols]
        return out


def _pooling(shape: tuple, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """The matrix of this shape holding values at (rows, cols): dense up to
    _BLOCK_ROWS rows, else a _BlockRows of blocks of that many rows, each as
    wide as its entries' columns span, so that it grows with the batch, not
    with its square."""
    if shape[0] <= _BLOCK_ROWS:
        dense = np.zeros(shape)
        dense[rows, cols] = values
        return dense
    order = np.argsort(rows, kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    blocks = []
    for r0 in range(0, shape[0], _BLOCK_ROWS):
        at = slice(*np.searchsorted(rows, [r0, r0 + _BLOCK_ROWS]))
        if at.start < at.stop:
            c0 = cols[at].min()
            block = np.zeros((min(_BLOCK_ROWS, shape[0] - r0), cols[at].max() + 1 - c0))
            block[rows[at] - r0, cols[at] - c0] = values[at]
            blocks.append((slice(r0, r0 + _BLOCK_ROWS), slice(c0, c0 + block.shape[1]), block))
    return _BlockRows(blocks, shape)


@dataclass(eq=False, slots=True)
class _Plan:
    """Everything derived from one batch of B rows, for one shape of E and
    one classifier width: a batch derives its plan on first use and keeps it,
    so every pass over it reads the plan, and the plan keeps the batch's last
    pass. The first split rows are a PackedBatch's and the rest a
    MaskedBatch's; a plan kept by a PackedBatch holds the MaskedBatch stacked
    under it, if any, in stacked. A descent reads its working set off the
    plan and re-keys the plan onto those E rows (see rekey).

    A pass encodes only its R read positions: the non-PAD positions of the
    classified rows, row by row, then the masked-token targets in order.
    The masked rows' non-PAD positions follow them in tokens, as the
    rows' context means read every non-PAD position: ctx = ctx_pool @
    E[tokens]. The pooling matrices are _pooling's, dense up to _BLOCK_ROWS
    rows. No shape here depends on E's row count, so a pass on a descent's
    compact layout sums what it sums on the full one, in the same order."""

    e_shape: tuple        # the shape of the E it indexes
    n_way: int            # the classifier width the labels were checked against
    stacked: MaskedBatch | None
    # (R + N,) the id at each read position, then at the N non-PAD positions
    # of the masked rows.
    tokens: np.ndarray
    rows: np.ndarray      # (R,) the row each read position lies in
    ctx_pool: np.ndarray | _BlockRows  # (B, R + N) 1 / row length where a column lies in the row
    pool: np.ndarray | _BlockRows      # (split, n_c) its classified block, which rep reads too
    row_sum: np.ndarray | _BlockRows   # (B, R) 1.0 where a read position lies in the row
    # ((R + N) * d_emb,) id * d_emb + column for each of tokens and each
    # column: the embedding scatter's index into flat E.
    index: np.ndarray
    labels: np.ndarray    # (T,) the masked-token targets' original ids
    # The last pass over the rows: (params, fw, primary, aux) as _pass
    # returns them, for the params object it ran at.
    memo: tuple | None = None

    @property
    def n_c(self) -> int:
        """How many read positions the classified rows hold."""
        return self.pool.shape[1]

    @classmethod
    def build(cls, tokens: np.ndarray, params: ModelParams, split: int,
              stacked: MaskedBatch | None = None, targets=()) -> _Plan:
        """The plan of PAD-padded (B, L) tokens whose first split rows are
        classified, with the (sequence index, position, original id) targets
        of the rows after them; an empty row or an id outside E's rows raises,
        naming the sequence (the rows from split on numbered from 0 again)."""
        mask = tokens != PAD_ID
        counts = mask.sum(axis=1)
        e_rows, d_emb = params.E.shape
        if not counts.all() or tokens.min() < 0 or tokens.max() >= e_rows:
            row, pos = np.argwhere((counts == 0)[:, None] | (tokens < 0) | (tokens >= e_rows))[0]
            name = f"sequence {row if row < split else row - split}"
            if counts[row] == 0:
                raise EncodingError(f"{name} is empty after PAD removal")
            raise ValueError(f"{name} holds token id {tokens[row, pos]}, outside 0..{e_rows - 1}")
        targets = np.array(targets, dtype=np.int64).reshape(-1, 3)
        row_of, _ = np.nonzero(mask)
        nonpad = tokens[mask]
        n_c = int(counts[:split].sum())
        n_read = n_c + len(targets)
        rows = np.concatenate([row_of[:n_c], targets[:, 0] + split])
        read = np.concatenate([nonpad[:n_c], tokens[rows[n_c:], targets[:, 1]], nonpad[n_c:]])
        # The columns of the non-PAD positions: the classified rows' read
        # positions, then the masked rows' positions past the targets.
        columns = np.arange(row_of.size)
        columns[n_c:] += len(targets)
        weights = 1.0 / counts[row_of]
        ctx_pool = _pooling((len(tokens), read.size), row_of, columns, weights)
        # A dense ctx_pool's corner is pool, as a view.
        pool = (ctx_pool[:split, :n_c] if isinstance(ctx_pool, np.ndarray)
                else _pooling((split, n_c), row_of[:n_c], columns[:n_c], weights[:n_c]))
        return cls(e_shape=params.E.shape, n_way=params.n_way, stacked=stacked, tokens=read,
                   rows=rows, ctx_pool=ctx_pool, pool=pool,
                   row_sum=_pooling((len(tokens), n_read), rows, np.arange(n_read),
                                    np.ones(n_read)),
                   index=(read[:, None] * d_emb + np.arange(d_emb)).ravel(),
                   labels=targets[:, 2])

    def rekey(self) -> np.ndarray:
        """The E rows the plan reads, ascending, PAD's among them: the plan is
        re-keyed onto them, each id becoming its index among those rows, and
        its last pass dropped, so that it serves params whose E holds only
        those rows, in that order."""
        present = np.zeros(self.e_shape[0], dtype=bool)
        present[PAD_ID] = present[self.tokens] = True
        rows = np.flatnonzero(present)
        self.tokens = rows.searchsorted(self.tokens)
        self.e_shape = (rows.size, self.e_shape[1])
        self.index = (self.tokens[:, None] * self.e_shape[1] + np.arange(self.e_shape[1])).ravel()
        self.memo = None
        return rows


@dataclass(slots=True)
class _Forward:
    """Cached intermediates for one forward pass over a plan's rows."""

    emb: np.ndarray      # (R, d_emb) at the read positions
    ctx: np.ndarray      # (B, d_emb)
    hidden: np.ndarray   # (R, d_h) at the read positions
    rep: np.ndarray      # (split, d_h)


def _pack(sequences) -> np.ndarray:
    """Pad variable-length sequences with PAD into a (B, L) int array."""
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    if not seqs:
        raise ValueError("batch is empty")
    max_len = max(1, max(s.size for s in seqs))
    tokens = np.full((len(seqs), max_len), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        if s.ndim != 1:
            raise ValueError(f"sequence {i} is not a 1-D array of token ids")
        tokens[i, : s.size] = s
    return tokens


@dataclass(eq=False, slots=True)
class PackedBatch:
    """(sequence, label) pairs padded with PAD once, which the losses and
    gradients accept in place of the pairs. plan is what a pass over it (with
    a masked batch stacked under it, or none) derives from the tokens, their
    non-PAD positions included, kept on first use (see _Plan), so a gradient
    taken after its loss at the same params and masked batch reuses the pass."""

    tokens: np.ndarray   # (B, L) int, PAD-padded
    labels: np.ndarray   # (B,) int
    plan: _Plan | None = field(default=None, init=False, repr=False)

    @classmethod
    def pack(cls, batch) -> "PackedBatch":
        """Pack (sequence, label) pairs; a packed batch is returned as it is."""
        if isinstance(batch, cls):
            return batch
        seqs = [pair[0] for pair in batch]
        labels = np.asarray([pair[1] for pair in batch], dtype=np.int64)
        return cls(_pack(seqs), labels)


def _plan_of(params: ModelParams, packed: PackedBatch | None,
             masked: MaskedBatch | None) -> _Plan:
    """The plan of packed's rows then masked's (either may be None), kept by
    packed (by masked when packed is None), built when it has none for
    masked, the shape of the params' E and their classifier width. Building
    one checks, besides the tokens, packed's labels against the classifier
    and each of masked's targets: a sequence index in range, a position on
    a non-PAD token of that row and an original id within P's rows."""
    holder, stacked = (masked, None) if packed is None else (packed, masked)
    plan = holder.plan
    if (plan is None or plan.stacked is not stacked or plan.e_shape != params.E.shape
            or plan.n_way != params.n_way):
        if packed is None:
            tokens, split = _pack(masked.sequences), 0
        else:
            if np.any((packed.labels < 0) | (packed.labels >= params.n_way)):
                raise ValueError(f"labels must lie in 0..{params.n_way - 1}")
            split = len(packed.tokens)
            tokens = (packed.tokens if masked is None
                      else _pack([*packed.tokens, *masked.sequences]))
        n_seq, p_rows = len(tokens) - split, params.P.shape[0]
        for s, p, o in () if masked is None else masked.targets:
            if not 0 <= s < n_seq:
                raise ValueError(f"a target names sequence {s}, outside 0..{n_seq - 1}")
            if not 0 <= o < p_rows:
                raise ValueError(f"sequence {s} holds token id {o}, outside 0..{p_rows - 1}")
            if not 0 <= p < tokens.shape[1] or tokens[split + s, p] == PAD_ID:
                raise ValueError(f"sequence {s} has no token at target position {p}")
        plan = holder.plan = _Plan.build(tokens, params, split, stacked,
                                         () if masked is None else masked.targets)
    return plan


def _forward(params: ModelParams, plan: _Plan) -> _Forward:
    d_emb = params.d_emb
    # Both masked means are matmuls with the plan's pooling matrices. Row
    # gathers go through take, which costs half what fancy indexing does.
    emb = params.E.take(plan.tokens, axis=0)                    # (R + N, De)
    ctx = plan.ctx_pool @ emb                                   # (B, De)
    emb = emb[:len(plan.rows)]
    pre_ctx = ctx @ params.W1[:, d_emb:].T                      # (B, Dh)
    pre_ctx += params.b1
    hidden = emb @ params.W1[:, :d_emb].T                       # (R, Dh)
    hidden += pre_ctx.take(plan.rows, axis=0)
    np.tanh(hidden, out=hidden)
    rep = plan.pool @ hidden[:plan.n_c]                         # (split, Dh)
    return _Forward(emb=emb, ctx=ctx, hidden=hidden, rep=rep)


def encode(params: ModelParams, sequences) -> np.ndarray:
    """The sentence representations of a batch of sequences, (len(sequences),
    d_h), from one pass: each the mean hidden state over its non-PAD
    positions."""
    tokens = _pack(sequences)
    return _forward(params, _Plan.build(tokens, params, len(tokens))).rep


# ---------------------------------------------------------------------------
# losses


def _softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. logits, numerically stable:
    one exponential of the shifted logits, taken in place, gives both the
    normaliser and the softmax. The loss is the mean of log(row sum) minus
    the label's shifted logit."""
    n, width = logits.shape
    picks = np.arange(0, n * width, width) + labels  # the labels' entries in flat
    probs = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    flat = probs.reshape(-1)
    picked = flat.take(picks)
    np.exp(probs, out=probs)
    sums = np.add.reduce(probs, axis=1)
    loss = float(np.add.reduce(np.log(sums) - picked) / n)
    # probs / (sum * n), less 1/n at each label: (softmax - one-hot) / n.
    sums *= n
    probs /= sums[:, None]
    flat[picks] -= 1.0 / n
    return loss, probs


def _pass(params: ModelParams, packed: PackedBatch | None, masked: MaskedBatch | None):
    """One forward pass over the rows of the active branches, the
    classification branch on packed and the masked-token branch on masked
    (either may be None), with each branch's logits, loss and d loss/d logits:
    (plan, fw, (logits, loss, d_logits) or None, (target hidden states, loss,
    d_logits) or None), plan being _plan_of's. The plan keeps the pass for
    the last params object it ran at."""
    plan = _plan_of(params, packed, masked)
    if plan.memo is None or plan.memo[0] is not params:
        fw = _forward(params, plan)
        primary = aux = None
        if packed is not None:
            logits = fw.rep @ params.C.T + params.c0
            primary = (logits, *_softmax_xent(logits, packed.labels))
        if masked is not None:
            h_tgt = fw.hidden[plan.n_c:]                               # (T, Dh)
            logits = h_tgt @ params.P.T                                # (T, V)
            logits += params.p0
            aux = (h_tgt, *_softmax_xent(logits, plan.labels))
        plan.memo = (params, fw, primary, aux)
    return plan, *plan.memo[1:]


def _branches(support_batch, masked_support,
              aux_weight: float) -> tuple[PackedBatch | None, MaskedBatch | None]:
    """The branches total_loss weighs at aux_weight, as (packed support batch
    or None, masked batch or None): the masked-token branch runs when its
    weight is positive and masked_support has targets, the classification
    branch unless the other runs alone at weight 1."""
    if not 0.0 <= aux_weight <= 1.0:
        raise ValueError(f"aux_weight must be in [0, 1], got {aux_weight}")
    aux_active = aux_weight > 0.0 and masked_support is not None and masked_support.num_targets > 0
    packed = PackedBatch.pack(support_batch) if aux_weight < 1.0 or not aux_active else None
    return packed, masked_support if aux_active else None


def primary_loss(params: ModelParams, batch) -> tuple[float, np.ndarray]:
    """Mean classification cross-entropy over (sequence, label) pairs or a
    PackedBatch.

    Returns (loss, logits) with logits of shape (batch, n_way).
    """
    logits, loss, _ = _pass(params, PackedBatch.pack(batch), None)[2]
    return loss, logits


def aux_loss(params: ModelParams, masked: MaskedBatch) -> float:
    """Mean vocabulary cross-entropy over every masked-token target."""
    if masked.num_targets == 0:
        raise ValueError("masked batch has no targets; caller must filter")
    return _pass(params, None, masked)[3][1]


def total_loss(params: ModelParams, support_batch, masked_support,
               aux_weight: float) -> float:
    """Convex combination (1 - w) * primary + w * auxiliary; support_batch is
    (sequence, label) pairs or a PackedBatch.

    The auxiliary term is dropped when masked_support is None or holds no
    targets, and the primary term keeps its weight 1 - w: such an episode's
    loss is (1 - w) * primary, not the primary loss itself.
    """
    packed, masked = _branches(support_batch, masked_support, aux_weight)
    _, _, primary, aux = _pass(params, packed, masked)
    loss = 0.0
    if primary is not None:
        loss += (1.0 - aux_weight) * primary[1]
    if aux is not None:
        loss += aux_weight * aux[1]
    return loss


# ---------------------------------------------------------------------------
# analytic gradients


def _backprop_encoder(params: ModelParams, plan: _Plan, fw: _Forward,
                      d_hidden: np.ndarray) -> np.ndarray:
    """Push a gradient on the hidden states at a pass's read positions back
    to E, W1, b1: a new flat vector in params' layout with those blocks
    written and the others 0.0, for the caller to write.

    d_hidden is overwritten with the gradient on the pre-activations, so that
    no array of its size outlives this line besides it.
    """
    d_emb, d_h = params.d_emb, params.d_h
    layout = params.layout()

    tanh_grad = fw.hidden ** 2
    d_pre = d_hidden                                             # (R, Dh)
    d_pre *= np.subtract(1.0, tanh_grad, out=tanh_grad)
    del tanh_grad
    d_pre_sum = plan.row_sum @ d_pre                             # (B, Dh)

    # The gradient on E's rows at each of the plan's tokens, through ctx =
    # ctx_pool @ E[tokens] and, at the read positions, the token path. One
    # bincount over the plan's flat index sums it into E, each entry in input
    # order from 0.0, and its output, the length of the layout, is the vector.
    d_rows = plan.ctx_pool.T @ (d_pre_sum @ params.W1[:, d_emb:])   # (R + N, De)
    d_rows[:len(plan.rows)] += d_pre @ params.W1[:, :d_emb]
    values = np.bincount(plan.index, weights=d_rows.ravel(), minlength=layout.size)
    del d_rows

    # Each half of dW1 is written in place.
    dW1 = values[layout.slices["W1"]].reshape(d_h, 2 * d_emb)
    np.matmul(d_pre.T, fw.emb, out=dW1[:, :d_emb])
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
    product is written into its slice, and the blocks no branch touches stay
    0.0. A single branch's blocks are its own loss's gradient, scaled
    by the branch's weight in place (skipped at weight 1.0). With both, one
    backward pass runs over a d_hidden whose rows already carry their
    branch's weight, and so do the inputs of each head's weight block; the
    bias blocks are scaled. A last 0.0 + x over
    the vector turns -0.0 into +0.0: the outputs depend on those bits."""
    plan, fw, primary, aux = _pass(params, packed, masked)
    layout = params.layout()
    both = primary is not None and aux is not None
    # The read positions of the classified rows, then the targets.
    d_hidden = np.empty_like(fw.hidden)                          # (R, Dh)
    if primary is not None:
        d_rep = primary[2] @ params.C                            # (split, Dh)
        if both:
            d_rep *= 1.0 - aux_weight
        d_hidden[:plan.n_c] = plan.pool.T @ d_rep
    if aux is not None:
        d_h_tgt = np.matmul(aux[2], params.P, out=d_hidden[plan.n_c:])
        if both:
            d_h_tgt *= aux_weight
    values = _backprop_encoder(params, plan, fw, d_hidden)
    # Each head as (weight block, bias block, the branch's weight, and the
    # branch's d loss/d logits and what its logits were taken from, or None).
    heads = (("C", "c0", 1.0 - aux_weight, None if primary is None else (primary[2], fw.rep)),
             ("P", "p0", aux_weight, None if aux is None else (aux[2], aux[0])))
    for weights, bias, weight, branch in heads:
        if branch is None:
            continue
        w_block, b_block = values[layout.slices[weights]], values[layout.slices[bias]]
        d_logits, inputs = branch
        if both:
            # The weight goes on the inputs, fewer entries than the block.
            inputs = inputs * weight
        np.matmul(d_logits.T, inputs, out=w_block.reshape(getattr(params, weights).shape))
        np.add.reduce(d_logits, axis=0, out=b_block)
        if both:
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
    return _gradient(params, PackedBatch.pack(batch), None, 0.0, "grad_primary")


def grad_total(params: ModelParams, support_batch, masked_support,
               aux_weight: float) -> np.ndarray:
    """Exact gradient of total_loss over all parameter blocks."""
    packed, masked = _branches(support_batch, masked_support, aux_weight)
    return _gradient(params, packed, masked, aux_weight, "grad_total")


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line, then the flat parameter vector and
# any further sections of the same length, as little-endian float64

_PARAMS_FORMAT = "metatext-params"


def save_params(path, params: ModelParams, fmt: str = _PARAMS_FORMAT,
                sections: dict | None = None, **header_fields) -> None:
    """Write params, then each named section of the same length, under a
    header of the format, the shapes, the blocks, the section names (when there
    are sections) and header_fields."""
    blocks = [[name, offset, length] for name, offset, length, _ in params.layout().blocks]
    header = {"format": fmt, "vocab_size": params.vocab_size, "d_emb": params.d_emb,
              "d_h": params.d_h, "n_way": params.n_way, "blocks": blocks}
    if sections:
        header["sections"] = ["psi", *sections]
    header.update(header_fields)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for vec in (params.flat, *(sections or {}).values()):
            fh.write(np.ascontiguousarray(vec, "<f8").tobytes())


def read_checkpoint(path, fmt: str = _PARAMS_FORMAT) -> tuple[dict, ModelParams, list]:
    """Read what save_params wrote: (header, params, the further sections in order).
    Any other header raises ValueError naming path, and the field if one is bad."""
    with open(path, "rb") as fh:
        line, payload = fh.readline(), fh.read()
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}: header is not JSON ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != fmt or "dtype" in header:
        raise ValueError(f"{path}: not a float64 {fmt} checkpoint")
    try:
        layout = ModelConfig(*(header.get(name) for name in
                               ("vocab_size", "d_emb", "d_h", "n_way"))).layout()
    except ConfigError as exc:
        raise ValueError(f"{path}: {exc}") from None
    sections = header.get("sections", ["psi"])
    if not isinstance(sections, list) or not sections:
        raise ValueError(f"{path}: sections must be a non-empty list, got {sections!r}")
    expected = layout.size * len(sections) * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, "<f8").astype(np.float64)
    psi, *rest = np.split(flat, len(sections))
    return header, ModelParams.from_flat(psi, layout), rest


def load_params(path) -> ModelParams:
    return read_checkpoint(path)[1]
