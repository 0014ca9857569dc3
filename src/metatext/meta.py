"""Inner-loop adaptation, cosine-gated meta-updates, and first-order baselines.

The meta-learner keeps an initialization psi. For each episode the base
learner takes plain gradient-descent steps on the support set (classification
plus, optionally, masked-token prediction). The query-set gradient at the
adapted parameters is then either added to the meta-gradient or discarded,
depending on the sign of its cosine against the support direction. The
meta-update itself runs through Adam by default; a plain-SGD mode exists so
single steps can be checked against hand-assembled sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import (
    FlatGradient,
    MaskedBatch,
    ModelParams,
    NumericalError,
    PackedBatch,
    ParamLayout,
    PRIMARY_BLOCKS,
    grad_primary,
    grad_total,
    primary_loss,
    total_loss,
)


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    reptile_use_query: bool = False

    def validate(self) -> None:
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
        size = psi.layout().size
        dtype = psi.E.dtype
        return cls(psi=psi, m=np.zeros(size, dtype=dtype), v=np.zeros(size, dtype=dtype),
                   step_count=0, cfg=cfg)


@dataclass
class AdaptResult:
    """Output of one inner loop: adapted parameters and what the gate needs."""

    theta_hat: ModelParams
    g_sup: FlatGradient       # support direction used for the cosine
    first_grad: FlatGradient  # gradient of the total loss at the start point
    loss_trace: list
    masked: MaskedBatch | None


@dataclass
class InnerLoopResult:
    """Everything one episode contributes to a meta step.

    cos_value and gate_open are None when the episode has no query set; the
    predictor-head blocks of g_qry are exactly zero whenever it exists.
    """

    theta_hat: ModelParams
    g_sup: FlatGradient
    g_qry: FlatGradient | None
    cos_value: float | None
    gate_open: bool | None
    loss_trace: list
    query_loss: float | None
    first_grad: FlatGradient
    masked: MaskedBatch | None


@dataclass
class StepReport:
    """Scalars for one meta step, JSONL-ready via to_dict()."""

    step: int
    cos_values: list
    gates: list
    query_used: list
    support_losses: list
    query_losses: list
    g_sup_norms: list
    g_qry_norms: list
    aux_targets: list
    meta_grad_norm: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "cos": self.cos_values,
            "gate_open": self.gates,
            "query_used": self.query_used,
            "support_loss": self.support_losses,
            "query_loss": self.query_losses,
            "g_sup_norm": self.g_sup_norms,
            "g_qry_norm": self.g_qry_norms,
            "aux_targets": self.aux_targets,
            "meta_grad_norm": self.meta_grad_norm,
        }


def _adapt_batch(psi: ModelParams, batch, masked, inner_lr: float, steps: int,
                 aux_weight: float):
    """Plain gradient descent on the total loss from psi; the batch is packed
    once and, like the masked batch, fixed across steps. Returns (flat adapted
    params, first gradient, trace)."""
    layout = psi.layout()
    flat = psi.to_flat()
    batch = PackedBatch.pack(batch)
    first = None
    trace = []
    for s in range(1, steps + 1):
        params = ModelParams.from_flat(flat, layout)
        loss = total_loss(params, batch, masked, aux_weight)
        if not np.isfinite(loss):
            raise InnerLoopError(f"non-finite inner loss at step {s}", step=s)
        trace.append(loss)
        g = grad_total(params, batch, masked, aux_weight)
        if first is None:
            first = g
        flat = flat - inner_lr * g.values
    return flat, first, trace


def inner_adapt(psi: ModelParams, episode, inner_lr: float, inner_steps: int,
                aux_weight: float, rng: np.random.Generator, *,
                mask_prob: float = 0.30, mask_strategy=(1.0, 0.0, 0.0),
                support_direction: str = "accumulated",
                masked: MaskedBatch | None = None) -> AdaptResult:
    """Adapt psi to one episode's support set with inner_steps GD steps.

    When the auxiliary weight is positive, the masking pattern is drawn once
    here (or passed in) and reused for every step. The support direction for
    the gate is either the accumulated movement (psi - theta_hat)/inner_lr or
    the first-step gradient, per support_direction.
    """
    if inner_steps < 1:
        raise ValueError("inner_steps must be at least 1")
    if aux_weight > 0.0 and masked is None:
        masked = MaskedBatch.build([seq for seq, _ in episode.support], rng,
                                   mask_prob=mask_prob, strategy=mask_strategy,
                                   vocab_size=psi.vocab_size)
    layout = psi.layout()
    psi_flat = psi.to_flat()
    flat, first, trace = _adapt_batch(psi, episode.support, masked, inner_lr,
                                      inner_steps, aux_weight)
    if support_direction == "first_step":
        g_sup = first
    elif inner_lr == 0.0:
        g_sup = FlatGradient.zeros(layout, dtype=psi_flat.dtype)
    else:
        g_sup = FlatGradient((psi_flat - flat) / inner_lr, layout)
    return AdaptResult(theta_hat=ModelParams.from_flat(flat, layout), g_sup=g_sup,
                       first_grad=first, loss_trace=trace, masked=masked)


def gate(g_sup: FlatGradient, g_qry: FlatGradient, threshold: float = 0.0,
         eps: float = 1e-12) -> tuple[float, bool]:
    """Cosine between support and query gradients over the primary blocks.

    The predictor-head blocks are excluded: the query gradient is structurally
    zero there and would only drag the cosine toward zero. Degenerate norms
    (below eps) define a cosine of 0, which opens the gate at the default
    threshold.
    """
    if g_sup.layout != g_qry.layout:
        raise ValueError("gradient layouts differ")
    a = g_sup.subset(PRIMARY_BLOCKS)
    b = g_qry.subset(PRIMARY_BLOCKS)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < eps or nb < eps:
        cos = 0.0
    else:
        cos = float(np.clip(a @ b / (na * nb), -1.0, 1.0))
    return cos, cos >= threshold


def _apply_update(state: MetaState, meta_grad: np.ndarray) -> MetaState:
    """One optimizer step on the flat meta-parameters; returns a new state."""
    if not np.all(np.isfinite(meta_grad)):
        raise NumericalError("meta-gradient contains non-finite entries")
    cfg = state.cfg
    layout = state.psi.layout()
    flat = state.psi.to_flat()
    t = state.step_count + 1
    if cfg.meta_optimizer == "sgd":
        new_flat = flat - cfg.meta_lr * meta_grad
        m, v = state.m.copy(), state.v.copy()
    else:
        m = cfg.adam_beta1 * state.m + (1.0 - cfg.adam_beta1) * meta_grad
        v = cfg.adam_beta2 * state.v + (1.0 - cfg.adam_beta2) * meta_grad ** 2
        m_hat = m / (1.0 - cfg.adam_beta1 ** t)
        v_hat = v / (1.0 - cfg.adam_beta2 ** t)
        new_flat = flat - cfg.meta_lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return MetaState(psi=ModelParams.from_flat(new_flat, layout), m=m, v=v,
                     step_count=t, cfg=cfg)


def evaluate_episode(psi: ModelParams, episode, cfg: MetaConfig,
                     rng: np.random.Generator) -> InnerLoopResult:
    """Run one episode's inner loop and gate its query gradient.

    Episodes without a query set get no gradient, no cosine, and a closed
    gate, so they can only contribute their support term.
    """
    adapt = inner_adapt(psi, episode, cfg.inner_lr, cfg.inner_steps,
                        cfg.aux_weight, rng, mask_prob=cfg.mask_prob,
                        mask_strategy=cfg.mask_strategy,
                        support_direction=cfg.support_direction)
    if episode.query:
        query = PackedBatch.pack(episode.query)
        query_loss, _ = primary_loss(adapt.theta_hat, query)
        g_qry = grad_primary(adapt.theta_hat, query)
        cos, gate_open = gate(adapt.g_sup, g_qry, cfg.gate_threshold)
    else:
        query_loss, g_qry, cos, gate_open = None, None, None, False
    return InnerLoopResult(theta_hat=adapt.theta_hat, g_sup=adapt.g_sup,
                           g_qry=g_qry, cos_value=cos, gate_open=gate_open,
                           loss_trace=adapt.loss_trace, query_loss=query_loss,
                           first_grad=adapt.first_grad, masked=adapt.masked)


def meta_step(state: MetaState, episode_batch, rng: np.random.Generator
              ) -> tuple[MetaState, StepReport]:
    """One adaptive meta-update over a batch of episodes.

    Per episode: adapt on the support set, take the query gradient at the
    adapted parameters, and gate it by cosine similarity. Gated-out episodes
    contribute their support term only, so deleting their query sets leaves
    the update bit-for-bit unchanged.
    """
    if not episode_batch:
        raise ValueError("episode batch is empty")
    cfg = state.cfg
    layout = state.psi.layout()
    psi_flat = state.psi.to_flat()
    meta_grad = np.zeros(layout.size, dtype=psi_flat.dtype)

    cos_values, gates, used, sup_losses, qry_losses = [], [], [], [], []
    sup_norms, qry_norms, aux_targets = [], [], []
    for ep in episode_batch:
        res = evaluate_episode(state.psi, ep, cfg, rng)
        if cfg.include_support:
            if cfg.support_term == "first_step":
                meta_grad += res.first_grad.values
            elif cfg.inner_lr > 0.0:
                meta_grad += (psi_flat - res.theta_hat.to_flat()) / cfg.inner_lr
        include_query = res.g_qry is not None and (
            cfg.query_mode == "always"
            or (cfg.query_mode == "gated" and res.gate_open))
        if include_query:
            meta_grad += res.g_qry.values

        cos_values.append(res.cos_value)
        gates.append(res.gate_open if res.g_qry is not None else None)
        used.append(include_query)
        sup_losses.append(res.loss_trace[-1])
        qry_losses.append(res.query_loss)
        sup_norms.append(res.g_sup.norm(PRIMARY_BLOCKS))
        qry_norms.append(res.g_qry.norm(PRIMARY_BLOCKS) if res.g_qry is not None else None)
        aux_targets.append(res.masked.num_targets if res.masked is not None else 0)

    new_state = _apply_update(state, meta_grad)
    report = StepReport(step=new_state.step_count, cos_values=cos_values,
                        gates=gates, query_used=used, support_losses=sup_losses,
                        query_losses=qry_losses, g_sup_norms=sup_norms,
                        g_qry_norms=qry_norms, aux_targets=aux_targets,
                        meta_grad_norm=float(np.linalg.norm(meta_grad)))
    return new_state, report


def fomaml_step(state: MetaState, episode_batch, rng: np.random.Generator
                ) -> tuple[MetaState, StepReport]:
    """First-order MAML: adapt on the classification loss only, then apply the
    query gradient at the adapted parameters as the meta-gradient. An episode
    without a query set contributes nothing."""
    if not episode_batch:
        raise ValueError("episode batch is empty")
    cfg = state.cfg
    layout = state.psi.layout()
    meta_grad = np.zeros(layout.size, dtype=state.psi.E.dtype)
    used, sup_losses, qry_losses, qry_norms = [], [], [], []
    for ep in episode_batch:
        adapt = inner_adapt(state.psi, ep, cfg.inner_lr, cfg.inner_steps, 0.0, rng)
        sup_losses.append(adapt.loss_trace[-1])
        used.append(bool(ep.query))
        if not ep.query:
            qry_losses.append(None)
            qry_norms.append(None)
            continue
        query = PackedBatch.pack(ep.query)
        q_loss, _ = primary_loss(adapt.theta_hat, query)
        g_qry = grad_primary(adapt.theta_hat, query)
        meta_grad += g_qry.values
        qry_losses.append(q_loss)
        qry_norms.append(g_qry.norm(PRIMARY_BLOCKS))
    new_state = _apply_update(state, meta_grad)
    n = len(episode_batch)
    report = StepReport(step=new_state.step_count, cos_values=[None] * n,
                        gates=[None] * n, query_used=used,
                        support_losses=sup_losses, query_losses=qry_losses,
                        g_sup_norms=[None] * n, g_qry_norms=qry_norms,
                        aux_targets=[0] * n,
                        meta_grad_norm=float(np.linalg.norm(meta_grad)))
    return new_state, report


def reptile_step(state: MetaState, episode_batch, rng: np.random.Generator
                 ) -> tuple[MetaState, StepReport]:
    """Reptile: move psi toward the inner-loop solution.

    The accumulated movement (psi - theta_hat)/inner_lr is fed to the meta
    optimizer as a gradient. The inner loop consumes the support set only
    unless reptile_use_query is set.
    """
    if not episode_batch:
        raise ValueError("episode batch is empty")
    cfg = state.cfg
    if cfg.inner_lr <= 0.0:
        raise ValueError("reptile requires a positive inner_lr")
    psi_flat = state.psi.to_flat()
    meta_grad = np.zeros_like(psi_flat)
    sup_losses = []
    for ep in episode_batch:
        batch = list(ep.support) + (list(ep.query) if cfg.reptile_use_query else [])
        flat_hat, _, trace = _adapt_batch(state.psi, batch, None, cfg.inner_lr,
                                          cfg.inner_steps, 0.0)
        meta_grad += (psi_flat - flat_hat) / cfg.inner_lr
        sup_losses.append(trace[-1])
    new_state = _apply_update(state, meta_grad)
    n = len(episode_batch)
    report = StepReport(step=new_state.step_count, cos_values=[None] * n,
                        gates=[None] * n, query_used=[cfg.reptile_use_query] * n,
                        support_losses=sup_losses, query_losses=[None] * n,
                        g_sup_norms=[None] * n, g_qry_norms=[None] * n,
                        aux_targets=[0] * n,
                        meta_grad_norm=float(np.linalg.norm(meta_grad)))
    return new_state, report


def fine_tune(psi: ModelParams, support, steps: int, use_mtp: bool,
              inner_lr: float, aux_weight: float, rng: np.random.Generator, *,
              mask_prob: float = 0.30, mask_strategy=(1.0, 0.0, 0.0)) -> ModelParams:
    """Gradient-descend a copy of psi on a support set; psi is never mutated.

    With use_mtp the objective keeps the masked-token term (one mask draw,
    fixed across steps); otherwise it is plain classification.
    """
    if steps < 0:
        raise ValueError("fine-tune steps must be non-negative")
    if steps == 0:
        return psi
    effective_aux = aux_weight if use_mtp else 0.0
    masked = None
    if effective_aux > 0.0:
        masked = MaskedBatch.build([seq for seq, _ in support], rng,
                                   mask_prob=mask_prob, strategy=mask_strategy,
                                   vocab_size=psi.vocab_size)
    flat, _, _ = _adapt_batch(psi, support, masked, inner_lr, steps, effective_aux)
    return ModelParams.from_flat(flat, psi.layout())


def meta_test(psi: ModelParams, episode, fine_tune_steps: int, use_mtp: bool,
              inner_lr: float, aux_weight: float, rng: np.random.Generator, *,
              mask_prob: float = 0.30, mask_strategy=(1.0, 0.0, 0.0)
              ) -> tuple[float, np.ndarray]:
    """Fast adaptation on a test episode: fine-tune a copy of psi on the
    support set, then classify the query set.

    Returns (accuracy, predicted local labels); argmax ties resolve to the
    lowest label index.
    """
    theta = fine_tune(psi, episode.support, fine_tune_steps, use_mtp, inner_lr,
                      aux_weight, rng, mask_prob=mask_prob, mask_strategy=mask_strategy)
    _, logits = primary_loss(theta, episode.query)
    preds = logits.argmax(axis=1)
    labels = np.asarray([lbl for _, lbl in episode.query], dtype=np.int64)
    accuracy = float((preds == labels).mean())
    return accuracy, preds


# ---------------------------------------------------------------------------
# meta-state checkpointing: the parameter format with Adam moments appended

_META_MAGIC = "metatext-meta"


def save_meta_state(path, state: MetaState) -> None:
    psi = state.psi
    layout = psi.layout()
    header = {
        "format": _META_MAGIC,
        "vocab_size": psi.vocab_size,
        "d_emb": psi.d_emb,
        "d_h": psi.d_h,
        "n_way": psi.n_way,
        "blocks": layout.header_blocks(),
        "sections": ["psi", "adam_m", "adam_v"],
        "step_count": state.step_count,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for vec in (psi.to_flat(), state.m, state.v):
            fh.write(np.ascontiguousarray(vec, dtype="<f8").tobytes())


def load_meta_state(path, cfg: MetaConfig) -> MetaState:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    if header.get("format") != _META_MAGIC:
        raise ValueError(f"{path}: not a meta-state checkpoint")
    layout = ParamLayout.build(header["vocab_size"], header["d_emb"],
                               header["d_h"], header["n_way"])
    expected = layout.size * 8 * 3
    if len(payload) != expected:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    n = layout.size
    return MetaState(psi=ModelParams.from_flat(flat[:n], layout),
                     m=flat[n:2 * n].copy(), v=flat[2 * n:].copy(),
                     step_count=int(header["step_count"]), cfg=cfg)
