"""Inner-loop adaptation and the cosine-gated meta-update, with the
first-order baselines as settings of it.

The meta-learner keeps an initialization psi. For each episode the base
learner takes plain gradient-descent steps on the support set (classification
plus, optionally, masked-token prediction). The query-set gradient at the
adapted parameters is then either added to the meta-gradient or discarded,
depending on its cosine against the support direction over the primary
blocks; gradients are flat vectors in the parameters' layout order. The
meta-update itself runs through Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) by
default; a plain-SGD mode exists so single steps can be checked against
hand-assembled sums.

One loop, _step, runs every method under the state's MetaConfig as given: it
adapts each episode through inner_adapt and takes the query loss, gradient and
gate itself. FOMAML and Reptile are settings of the gated update, rows of
harness.METHOD_PRESETS. Besides the config, the step functions set whether the
cosine is taken and logged (meta_step only) and whether the query set joins
the inner batch (reptile_step with reptile_use_query).

One routine, _descend, runs the support-set descent of both the inner loop
(inner_adapt) and test-time fine-tuning (fine_tune): it reads the rate and the
masking settings from a MetaConfig and draws the mask once, only when the
masked-token term is on. It descends on the entries of psi the support set
reaches (its _WorkingSet), which the batches' plan gives: built once at psi,
it checks the batches and re-keys itself onto the E rows it reads. The
descent's gathered vector is its own: each step moves it in place, the one
ModelParams written in place, and drops the plan's pass memo. The result is
written back into one copy of psi at the end; every other entry has a zero
gradient on every step, so it is bitwise that of a descent on all of psi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ConfigError,
    MaskedBatch,
    ModelParams,
    PackedBatch,
    ParamLayout,
    _branches,
    _check_finite,
    _plan_of,
    check_fields,
    check_masking,
    grad_primary,
    grad_total,
    primary_loss,
    read_checkpoint,
    save_params,
    total_loss,
)

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
    far larger rates (see harness defaults). An instance checks its fields
    when built and raises ConfigError.
    """

    inner_lr: float = 5e-5
    meta_lr: float = 2e-5
    inner_steps: int = 5
    aux_weight: float = 1e-3
    gate_threshold: float = 0.0
    mask_prob: float = 0.30
    mask_strategy: tuple[float, ...] = (1.0, 0.0, 0.0)
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

    def __post_init__(self):
        check_fields(self)
        if self.inner_lr < 0:
            raise ConfigError("inner_lr must be non-negative")
        if self.meta_lr <= 0:
            raise ConfigError("meta_lr must be positive")
        if self.inner_steps < 1:
            raise ConfigError("inner_steps must be at least 1")
        if not 0.0 <= self.aux_weight <= 1.0:
            raise ConfigError("aux_weight must be in [0, 1]")
        if self.support_direction not in ("accumulated", "first_step"):
            raise ConfigError(f"unknown support_direction {self.support_direction!r}")
        if self.support_term not in ("first_step", "accumulated"):
            raise ConfigError(f"unknown support_term {self.support_term!r}")
        if self.query_mode not in ("gated", "always", "never"):
            raise ConfigError(f"unknown query_mode {self.query_mode!r}")
        if self.meta_optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown meta_optimizer {self.meta_optimizer!r}")
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
        return cls(psi=psi, m=np.zeros_like(psi.flat), v=np.zeros_like(psi.flat),
                   step_count=0, cfg=cfg)


@dataclass(eq=False, slots=True)
class _WorkingSet:
    """The entries of a full parameter layout that one descent reads and
    moves, as a compact layout of their own: the E rows in rows (ascending:
    PAD's and those of the ids the descent's plan reads), then W1, b1, C and
    c0, then P and p0 when the masked-token branch runs (else the compact
    layout gives them no rows). Everything after E is one contiguous run in
    both layouts, starting at W1."""

    rows: np.ndarray
    full: ParamLayout
    compact: ParamLayout

    def _tails(self) -> tuple[slice, slice]:
        """The run after E, in the full layout and in the compact one."""
        e_size = self.compact.slices["E"].stop
        start = self.full.slices["W1"].start
        return slice(start, start + self.compact.size - e_size), slice(e_size, None)

    def gather(self, psi: ModelParams) -> ModelParams:
        """psi's working-set entries, in a new vector in the compact layout."""
        values = np.empty(self.compact.size)
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
    steps. The steps move the working set, gathered once, in place, and the
    result is scattered into one copy of psi."""
    if aux_weight > 0.0 and masked is None:
        masked = MaskedBatch.build([seq for seq, _ in support], rng, mask_prob=cfg.mask_prob,
                                   strategy=cfg.mask_strategy, vocab_size=psi.vocab_size)
    batch, aux = _branches(support, masked, aux_weight)
    # The plan of the branches' batches, built and checked once at psi, then
    # re-keyed onto the E rows it reads, for every step's pass on them.
    plan = _plan_of(psi, batch, aux)
    rows = plan.rekey()
    work = _WorkingSet(rows, psi.layout(), ParamLayout.build(
        rows.size, psi.d_emb, psi.d_h, psi.n_way, 0 if aux is None else psi.P.shape[0]))
    params = work.gather(psi)
    first = None
    trace = []
    for s in range(1, steps + 1):
        loss = total_loss(params, batch, aux, aux_weight)
        if not np.isfinite(loss):
            raise InnerLoopError(f"non-finite inner loss at step {s}", step=s)
        trace.append(loss)
        g = grad_total(params, batch, aux, aux_weight)
        # inner_lr * g goes into g (into a new vector while g is the first
        # gradient, which is kept); params moves by it in place, so the plan's
        # pass, keyed by the params object, goes.
        step = np.multiply(g, cfg.inner_lr, out=None if first is None else g)
        if first is None:
            first = g
        np.subtract(params.flat, step, out=params.flat)
        plan.memo = None
    # The plan, the last step and gradient go before psi is copied; the plan
    # leaves its batch too, which may outlive the descent (as result.masked).
    del plan, step, g
    (aux if batch is None else batch).plan = None
    theta = ModelParams.from_flat(work.scatter(params.flat, psi.flat.copy()), psi.layout())
    return AdaptResult(psi=psi, cfg=cfg, theta_hat=theta, work=work, first_step=first,
                       loss_trace=trace, masked=masked)


def inner_adapt(psi: ModelParams, episode, cfg: MetaConfig, rng: np.random.Generator, *,
                masked: MaskedBatch | None = None) -> AdaptResult:
    """Adapt psi to one episode's support set with cfg.inner_steps GD steps;
    the result's g_sup is the support direction the gate compares against."""
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
        # psi - meta_lr * m_hat / (sqrt(v_hat) + eps), operation by operation
        # in the order that expression takes, into m, v, new_flat and one
        # temporary: fresh full-size temporaries cost more than the arithmetic.
        tmp = np.multiply(meta_grad, 1.0 - ADAM_BETA1)
        m = np.multiply(state.m, ADAM_BETA1)
        m += tmp
        np.multiply(np.square(meta_grad, out=tmp), 1.0 - ADAM_BETA2, out=tmp)
        v = np.multiply(state.v, ADAM_BETA2)
        v += tmp
        new_flat = np.divide(v, 1.0 - ADAM_BETA2 ** t)
        np.sqrt(new_flat, out=new_flat)
        new_flat += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=tmp)
        tmp *= cfg.meta_lr
        np.divide(tmp, new_flat, out=tmp)
        np.subtract(state.psi.flat, tmp, out=new_flat)
    return MetaState(psi=ModelParams.from_flat(new_flat, state.psi.layout()), m=m, v=v,
                     step_count=t, cfg=cfg)


def _step(state: MetaState, episode_batch, rng: np.random.Generator, *, cosine: bool,
          query_in_inner: bool = False) -> tuple[MetaState, dict]:
    """The meta-update of every step function, under state.cfg: per episode,
    adapt on the support set (plus the query set with query_in_inner), take
    the query gradient at the adapted parameters where the update or the
    cosine reads it, and add the support term and the query gradient the
    config lets in; then one optimizer step. cosine gates the query gradient
    by its cosine against the support direction; an episode without a query
    set gets no gradient, no cosine and a closed gate.
    Returns the new state and the step's metrics.jsonl record: step, one list
    per EPISODE_KEYS entry with an item per episode, and meta_grad_norm."""
    if not episode_batch:
        raise ValueError("episode batch is empty")
    cfg = state.cfg
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
    return _step(state, episode_batch, rng, cosine=True)


def fomaml_step(state: MetaState, episode_batch, rng: np.random.Generator
                ) -> tuple[MetaState, dict]:
    """First-order MAML: the meta-update under state.cfg as given, with no
    cosine taken. Under FOMAML's settings (harness.METHOD_PRESETS["fomaml"])
    it adapts on the classification loss only and applies the query gradient
    at the adapted parameters; an episode without a query set adds nothing."""
    return _step(state, episode_batch, rng, cosine=False)


def reptile_step(state: MetaState, episode_batch, rng: np.random.Generator
                 ) -> tuple[MetaState, dict]:
    """Reptile: the meta-update under state.cfg as given, with no cosine
    taken and, with reptile_use_query, the query set in the inner batch.
    Under Reptile's settings (harness.METHOD_PRESETS["reptile"]) it moves psi
    toward the inner-loop solution, feeding the accumulated movement
    (psi - theta_hat)/inner_lr to the meta optimizer, and takes no query
    gradient."""
    if state.cfg.inner_lr <= 0.0:
        raise ValueError("reptile requires a positive inner_lr")
    return _step(state, episode_batch, rng, cosine=False,
                 query_in_inner=state.cfg.reptile_use_query)


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
    """The state save_meta_state wrote; a file whose sections are not psi,
    adam_m and adam_v, or whose step_count is not a non-negative integer,
    raises ValueError naming path."""
    header, psi, rest = read_checkpoint(path, _META_FORMAT)
    if header.get("sections") != ["psi", "adam_m", "adam_v"]:
        raise ValueError(f"{path}: sections must be psi, adam_m, adam_v, "
                         f"got {header.get('sections')!r}")
    step_count = header.get("step_count")
    if isinstance(step_count, bool) or not isinstance(step_count, int) or step_count < 0:
        raise ValueError(f"{path}: step_count must be a non-negative integer, "
                         f"got {step_count!r}")
    m, v = rest
    return MetaState(psi=psi, m=m, v=v, step_count=step_count, cfg=cfg)
