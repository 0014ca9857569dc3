"""Inner-loop adaptation and the cosine-gated meta-update, with the
first-order baselines as presets of it.

The meta-learner keeps an initialization psi. For each episode the base
learner takes plain gradient-descent steps on the support set (classification
plus, optionally, masked-token prediction). The query-set gradient at the
adapted parameters is then either added to the meta-gradient or discarded,
depending on its cosine against the support direction over the primary
blocks; gradients are flat vectors in the parameters' layout order. The
meta-update itself runs through Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) by
default; a plain-SGD mode exists so single steps can be checked against
hand-assembled sums.

One loop, _step, runs every method and reads its behaviour from a MetaConfig:
it adapts each episode through inner_adapt and takes the query loss, gradient
and gate itself. FOMAML (FOMAML_PRESET) and Reptile (REPTILE_PRESET) are
settings of the gated update. Besides the preset, the step functions set
whether the cosine is taken and logged (meta_step only) and whether the query
set joins the inner batch (reptile_step with reptile_use_query).

One routine, _descend, runs the support-set descent of both the inner loop
(inner_adapt) and test-time fine-tuning (fine_tune): it reads the rate and the
masking settings from a MetaConfig and draws the mask once, only when the
masked-token term is on. It descends on the entries of psi the support set
reaches (its _WorkingSet) and writes them back into one copy of psi at the
end; every other entry has a zero gradient on every step, so the result is
bitwise that of a descent on all of psi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    PAD_ID,
    MaskedBatch,
    ModelParams,
    PackedBatch,
    ParamLayout,
    _branches,
    _check_finite,
    check_masking,
    check_number,
    grad_primary,
    grad_total,
    primary_loss,
    read_checkpoint,
    save_params,
    total_loss,
)

# The baselines as settings of the gated meta-update: the MetaConfig fields
# fomaml_step and reptile_step replace before running it.
FOMAML_PRESET = dict(aux_weight=0.0, include_support=False, query_mode="always")
REPTILE_PRESET = dict(aux_weight=0.0, include_support=True, support_term="accumulated",
                      query_mode="never")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# The per-episode lists of a step's record, in metrics.jsonl's key order
# between "step" and "meta_grad_norm".
EPISODE_KEYS = ("cos", "gate_open", "query_used", "support_loss", "query_loss", "g_sup_norm",
                "g_qry_norm", "aux_targets")


class InnerLoopError(RuntimeError):
    """Inner-loop divergence; carries the 1-based step index that failed."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class MetaConfig:
    """Hyperparameters and strategy switches for the meta-learner.

    The defaults for inner_lr and meta_lr follow the reference fine-tuning
    protocol for large pretrained encoders; from-scratch desk-scale runs want
    far larger rates (see harness defaults).
    """

    inner_lr: float = 5e-5
    meta_lr: float = 2e-5
    inner_steps: int = 5
    aux_weight: float = 1e-3
    gate_threshold: float = 0.0
    mask_prob: float = 0.30
    mask_strategy: tuple = (1.0, 0.0, 0.0)
    # Direction compared against the query gradient: the accumulated
    # inner-loop movement (psi - theta_hat)/lr, or the first support gradient.
    support_direction: str = "accumulated"
    # Support term added to the meta-gradient: the accumulated movement (the
    # sum of the inner-loop gradients, whose later steps flow through an
    # already-fitted head) or the first support gradient. The first-step
    # variant memorizes support sets and erases the overfitting benefit at
    # from-scratch scale, so accumulated is the default.
    support_term: str = "accumulated"
    include_support: bool = True
    query_mode: str = "gated"        # gated | always | never
    meta_optimizer: str = "adam"     # adam | sgd (sgd exists for exact checks)
    reptile_use_query: bool = False

    def validate(self) -> None:
        for name in ("inner_lr", "meta_lr", "aux_weight", "gate_threshold", "mask_prob"):
            check_number(name, getattr(self, name))
        check_number("inner_steps", self.inner_steps, integer=True)
        if self.inner_lr < 0:
            raise ValueError("inner_lr must be non-negative")
        if self.meta_lr <= 0:
            raise ValueError("meta_lr must be positive")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be at least 1")
        if not 0.0 <= self.aux_weight <= 1.0:
            raise ValueError("aux_weight must be in [0, 1]")
        if self.support_direction not in ("accumulated", "first_step"):
            raise ValueError(f"unknown support_direction {self.support_direction!r}")
        if self.support_term not in ("first_step", "accumulated"):
            raise ValueError(f"unknown support_term {self.support_term!r}")
        if self.query_mode not in ("gated", "always", "never"):
            raise ValueError(f"unknown query_mode {self.query_mode!r}")
        if self.meta_optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown meta_optimizer {self.meta_optimizer!r}")
        check_masking(self.mask_prob, self.mask_strategy)


@dataclass
class MetaState:
    """Meta-parameters plus Adam moment buffers. Owned by the training driver;
    step functions return fresh states and never mutate their input."""

    psi: ModelParams
    m: np.ndarray
    v: np.ndarray
    step_count: int
    cfg: MetaConfig

    @classmethod
    def create(cls, psi: ModelParams, cfg: MetaConfig) -> "MetaState":
        cfg.validate()
        return cls(psi=psi, m=np.zeros_like(psi.flat), v=np.zeros_like(psi.flat),
                   step_count=0, cfg=cfg)


@dataclass(eq=False, slots=True)
class _WorkingSet:
    """The entries of a full parameter layout that one descent reads and
    moves, as a compact layout of their own: the E rows in rows (ascending,
    PAD's always among them so that it keeps id 0), then W1, b1, C and c0,
    then P and p0 when the masked-token branch runs (else the compact layout
    gives them no rows). Everything after E is one contiguous run in both
    layouts, starting at W1."""

    rows: np.ndarray
    full: ParamLayout
    compact: ParamLayout

    @classmethod
    def build(cls, psi: ModelParams, batch: PackedBatch, masked: MaskedBatch | None
              ) -> tuple[_WorkingSet, PackedBatch, MaskedBatch | None]:
        """The working set of a descent from psi on batch, plus masked when
        the masked-token branch runs (None otherwise), with both batches
        renumbered onto its rows; the targets keep their vocabulary ids, which
        P's full rows score."""
        present = np.zeros(psi.vocab_size, dtype=bool)
        present[PAD_ID] = True
        present[batch.tokens] = True
        if masked is not None:
            for seq in masked.sequences:
                present[seq] = True
        rows = np.flatnonzero(present)
        renumber = np.cumsum(present) - 1
        compact = ParamLayout.build(rows.size, psi.d_emb, psi.d_h, psi.n_way,
                                    0 if masked is None else psi.P.shape[0])
        batch = PackedBatch(renumber[batch.tokens], batch.mask, batch.labels)
        if masked is not None:
            masked = MaskedBatch(sequences=[renumber[seq] for seq in masked.sequences],
                                 targets=masked.targets)
        return cls(rows=rows, full=psi.layout(), compact=compact), batch, masked

    def _tails(self) -> tuple[slice, slice]:
        """The run after E, in the full layout and in the compact one."""
        e_size = self.compact.slices["E"].stop
        start = self.full.slices["W1"].start
        return slice(start, start + self.compact.size - e_size), slice(e_size, None)

    def gather(self, psi: ModelParams) -> ModelParams:
        """psi's working-set entries, in a new vector in the compact layout."""
        values = np.empty(self.compact.size, dtype=psi.flat.dtype)
        full_tail, tail = self._tails()
        np.take(psi.E, self.rows, axis=0,
                out=values[self.compact.slices["E"]].reshape(self.rows.size, -1))
        values[tail] = psi.flat[full_tail]
        return ModelParams.from_flat(values, self.compact)

    def scatter(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out, a flat vector in the full layout, with a compact vector's
        entries written over the working set's."""
        full_tail, tail = self._tails()
        rows = values[self.compact.slices["E"]].reshape(self.rows.size, -1)
        out[self.full.slices["E"]].reshape(-1, rows.shape[1])[self.rows] = rows
        out[full_tail] = values[tail]
        return out


@dataclass(frozen=True)
class AdaptResult:
    """One support-set descent from psi under cfg: an episode's inner loop or
    a fine-tune.

    The descent moved work's entries of psi, and first_step is its first
    gradient in work's compact layout. first_grad (that gradient in psi's
    layout, zero off the working set) and accumulated (the movement
    (psi - theta_hat)/inner_lr, zero at a zero rate) are computed on first
    read: FOMAML reads neither. g_sup, which the cosine compares against, is
    accumulated or first_grad, per cfg.support_direction.
    """

    psi: ModelParams
    cfg: MetaConfig
    theta_hat: ModelParams
    work: _WorkingSet
    first_step: np.ndarray
    loss_trace: list
    masked: MaskedBatch | None

    @functools.cached_property
    def first_grad(self) -> np.ndarray:
        return self.work.scatter(self.first_step, np.zeros_like(self.psi.flat))

    @functools.cached_property
    def accumulated(self) -> np.ndarray:
        lr = self.cfg.inner_lr
        return ((self.psi.flat - self.theta_hat.flat) / lr if lr != 0.0
                else np.zeros_like(self.psi.flat))

    @property
    def g_sup(self) -> np.ndarray:
        if self.cfg.support_direction == "first_step":
            return self.first_grad
        return self.accumulated


def _descend(psi: ModelParams, support, steps: int, aux_weight: float, cfg: MetaConfig,
             rng: np.random.Generator, masked: MaskedBatch | None = None) -> AdaptResult:
    """Gradient descent from psi on the total loss over a support set at
    cfg.inner_lr, with the mask (drawn here under cfg's settings and psi's
    full vocabulary when aux_weight > 0, unless passed in) fixed across
    steps. The steps run on the working set, gathered and renumbered once,
    and the result is scattered into one copy of psi."""
    if aux_weight > 0.0 and masked is None:
        masked = MaskedBatch.build([seq for seq, _ in support], rng, mask_prob=cfg.mask_prob,
                                   strategy=cfg.mask_strategy, vocab_size=psi.vocab_size)
    batch = PackedBatch.pack(support)
    _, aux = _branches(psi, batch, masked, aux_weight)
    work, batch, aux = _WorkingSet.build(psi, batch, aux)
    params = work.gather(psi)
    first = None
    trace = []
    for s in range(1, steps + 1):
        loss = total_loss(params, batch, aux, aux_weight)
        if not np.isfinite(loss):
            raise InnerLoopError(f"non-finite inner loss at step {s}", step=s)
        trace.append(loss)
        g = grad_total(params, batch, aux, aux_weight)
        # params.flat - inner_lr * g in one vector: the product is written
        # into g (into a new vector while g is the first gradient, which is
        # kept) and the difference taken in place.
        step = np.multiply(g, cfg.inner_lr, out=None if first is None else g)
        if first is None:
            first = g
        params = ModelParams.from_flat(np.subtract(params.flat, step, out=step), work.compact)
    # The batches' memo holds the last step's start point; it goes before the
    # copy of psi is made.
    del batch, aux
    theta = ModelParams.from_flat(work.scatter(params.flat, psi.flat.copy()), psi.layout())
    return AdaptResult(psi=psi, cfg=cfg, theta_hat=theta, work=work, first_step=first,
                       loss_trace=trace, masked=masked)


def inner_adapt(psi: ModelParams, episode, cfg: MetaConfig, rng: np.random.Generator, *,
                masked: MaskedBatch | None = None) -> AdaptResult:
    """Adapt psi to one episode's support set with cfg.inner_steps GD steps;
    the result's g_sup is the support direction the gate compares against."""
    if cfg.inner_steps < 1:
        raise ValueError("inner_steps must be at least 1")
    return _descend(psi, episode.support, cfg.inner_steps, cfg.aux_weight, cfg, rng, masked)


def gate(g_sup: np.ndarray, g_qry: np.ndarray, layout: ParamLayout, threshold: float = 0.0,
         eps: float = 1e-12) -> tuple[float, bool, tuple[float, float]]:
    """Cosine between support and query gradients over layout's primary
    blocks, whether it opens the gate, and the two primary-block norms it was
    taken with: (cos, open, (norm of g_sup, norm of g_qry)).

    The predictor-head blocks are excluded: the query gradient is structurally
    zero there and would only drag the cosine toward zero. Degenerate norms
    (below eps) define a cosine of 0, which opens the gate at the default
    threshold. A vector of another length than layout's raises ValueError.
    """
    a = layout.primary(g_sup)
    b = layout.primary(g_qry)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < eps or nb < eps:
        cos = 0.0
    else:
        cos = float(np.clip(a @ b / (na * nb), -1.0, 1.0))
    return cos, cos >= threshold, (float(na), float(nb))


def _apply_update(state: MetaState, meta_grad: np.ndarray) -> MetaState:
    """One optimizer step on the flat meta-parameters; returns a new state."""
    _check_finite(meta_grad, state.psi.layout(), "meta-gradient assembly")
    cfg = state.cfg
    t = state.step_count + 1
    if cfg.meta_optimizer == "sgd":
        new_flat = state.psi.flat - cfg.meta_lr * meta_grad
        m, v = state.m.copy(), state.v.copy()
    else:
        m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * meta_grad
        v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * meta_grad ** 2
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        new_flat = state.psi.flat - cfg.meta_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return MetaState(psi=ModelParams.from_flat(new_flat, state.psi.layout()), m=m, v=v,
                     step_count=t, cfg=cfg)


def _step(state: MetaState, episode_batch, rng: np.random.Generator,
          cfg: MetaConfig, *, cosine: bool, query_in_inner: bool = False
          ) -> tuple[MetaState, dict]:
    """The meta-update of every step function, under cfg (state.cfg or a
    baseline preset of it): per episode, adapt on the support set (plus the
    query set with query_in_inner), take the query gradient at the adapted
    parameters where the update or the cosine reads it, and add the support
    term and the query gradient cfg lets in; then one optimizer step. cosine
    gates the query gradient by its cosine against the support direction; an
    episode without a query set gets no gradient, no cosine and a closed gate.
    Returns the new state and the step's metrics.jsonl record: step, one list
    per EPISODE_KEYS entry with an item per episode, and meta_grad_norm."""
    if not episode_batch:
        raise ValueError("episode batch is empty")
    meta_grad = np.zeros_like(state.psi.flat)
    layout = state.psi.layout()
    rows = []  # one per episode, in EPISODE_KEYS order
    for ep in episode_batch:
        if query_in_inner:
            ep = replace(ep, support=list(ep.support) + list(ep.query))
        res = inner_adapt(state.psi, ep, cfg, rng)
        if cfg.include_support:
            term = res.first_grad if cfg.support_term == "first_step" else res.accumulated
            meta_grad += term
        cos = gate_open = query_loss = g_qry = norms = None
        if ep.query and (cosine or cfg.query_mode != "never"):
            query = PackedBatch.pack(ep.query)
            query_loss, _ = primary_loss(res.theta_hat, query)
            g_qry = grad_primary(res.theta_hat, query)
            if cosine:
                cos, gate_open, norms = gate(res.g_sup, g_qry, layout, cfg.gate_threshold)
        include_query = g_qry is not None and (
            cfg.query_mode == "always"
            or (cfg.query_mode == "gated" and gate_open))
        if include_query:
            meta_grad += g_qry
        # The gate's norms where it ran; else each norm the record shows.
        norms = norms or (
            float(np.linalg.norm(layout.primary(res.g_sup))) if cosine else None,
            float(np.linalg.norm(layout.primary(g_qry))) if g_qry is not None else None)
        rows.append((cos, gate_open, include_query or query_in_inner, res.loss_trace[-1],
                     query_loss, *norms, res.masked.num_targets if res.masked is not None else 0))
    new_state = _apply_update(state, meta_grad)
    columns = dict(zip(EPISODE_KEYS, map(list, zip(*rows))))
    return new_state, {"step": new_state.step_count, **columns,
                       "meta_grad_norm": float(np.linalg.norm(meta_grad))}


def meta_step(state: MetaState, episode_batch, rng: np.random.Generator
              ) -> tuple[MetaState, dict]:
    """One adaptive meta-update over a batch of episodes.

    Per episode: adapt on the support set, take the query gradient at the
    adapted parameters, and gate it by cosine similarity. Gated-out episodes
    contribute their support term only, so deleting their query sets leaves
    the update bit-for-bit unchanged.
    """
    return _step(state, episode_batch, rng, state.cfg, cosine=True)


def fomaml_step(state: MetaState, episode_batch, rng: np.random.Generator
                ) -> tuple[MetaState, dict]:
    """First-order MAML, the meta-update under FOMAML_PRESET: adapt on the
    classification loss only, then apply the query gradient at the adapted
    parameters as the meta-gradient. An episode without a query set
    contributes nothing; no cosine is taken."""
    return _step(state, episode_batch, rng, replace(state.cfg, **FOMAML_PRESET), cosine=False)


def reptile_step(state: MetaState, episode_batch, rng: np.random.Generator
                 ) -> tuple[MetaState, dict]:
    """Reptile, the meta-update under REPTILE_PRESET: move psi toward the
    inner-loop solution.

    The accumulated movement (psi - theta_hat)/inner_lr is fed to the meta
    optimizer as a gradient. The inner loop consumes the support set only
    unless reptile_use_query is set; no query gradient is taken.
    """
    if state.cfg.inner_lr <= 0.0:
        raise ValueError("reptile requires a positive inner_lr")
    return _step(state, episode_batch, rng, replace(state.cfg, **REPTILE_PRESET),
                 cosine=False, query_in_inner=state.cfg.reptile_use_query)


def fine_tune(psi: ModelParams, support, steps: int, use_mtp: bool, cfg: MetaConfig,
              rng: np.random.Generator) -> ModelParams:
    """Gradient-descend from psi on a support set; psi is never mutated and,
    with no steps, returned as it is. With use_mtp the objective keeps the
    masked-token term at cfg.aux_weight; otherwise it is plain classification."""
    if steps < 0:
        raise ValueError("fine-tune steps must be non-negative")
    if steps == 0:
        return psi
    aux_weight = cfg.aux_weight if use_mtp else 0.0
    return _descend(psi, support, steps, aux_weight, cfg, rng).theta_hat


def meta_test(psi: ModelParams, episode, steps: int, use_mtp: bool, cfg: MetaConfig,
              rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Fast adaptation on a test episode: fine-tune from psi on the support
    set, then classify the query set.

    Returns (accuracy, predicted local labels); argmax ties resolve to the
    lowest label index.
    """
    theta = fine_tune(psi, episode.support, steps, use_mtp, cfg, rng)
    query = PackedBatch.pack(episode.query)
    _, logits = primary_loss(theta, query)
    preds = logits.argmax(axis=1)
    accuracy = float((preds == query.labels).mean())
    return accuracy, preds


# ---------------------------------------------------------------------------
# meta-state checkpointing: the parameter format with Adam moments appended

_META_FORMAT = "metatext-meta"


def save_meta_state(path, state: MetaState) -> None:
    save_params(path, state.psi, _META_FORMAT, {"adam_m": state.m, "adam_v": state.v},
                step_count=state.step_count)


def load_meta_state(path, cfg: MetaConfig) -> MetaState:
    header, psi, (m, v) = read_checkpoint(path, _META_FORMAT)
    return MetaState(psi=psi, m=m, v=v, step_count=int(header["step_count"]), cfg=cfg)
