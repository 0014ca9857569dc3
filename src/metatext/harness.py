"""Experiment driver: config, training with early stopping, ablation sweeps,
synthetic corpora, and embedding export.

All randomness flows through named streams derived from (seed, stream tag), so
a (config, seed) pair fully determines every emitted number, and different
methods see identical episode draws at matching points of the protocol.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .episodes import ClassSplit, Corpus, Episode, load_corpus, load_split_file, make_splits, sample_episode
from .meta import MetaConfig, MetaState, fine_tune, fomaml_step, meta_step, meta_test, reptile_step
from .model import MaskedBatch, ModelConfig, ModelParams, check_number, encode, grad_primary, grad_total, primary_loss, save_params, total_loss

# Each method's MetaConfig: the experiment's values with these fields
# replaced. fomaml_step and reptile_step apply FOMAML_PRESET and
# REPTILE_PRESET themselves, so a baseline's config is checked as amgs's is.
METHOD_PRESETS = {"amgs": {}, "fomaml": {}, "reptile": {},
                  "amgs_que": dict(include_support=False, query_mode="always"),
                  "amgs_sup": dict(query_mode="never"),
                  "amgs_que_sup": dict(query_mode="always")}
METHODS = tuple(METHOD_PRESETS)
AMGS_FAMILY = ("amgs", "amgs_que", "amgs_sup", "amgs_que_sup")

# Stream tags for per-seed random generators.
_RNG_INIT = 0
_RNG_TRAIN_SAMPLE = 1
_RNG_TRAIN_STEP = 2
_RNG_SEEN_SAMPLE = 3
_RNG_SEEN_ADAPT = 4
_RNG_VAL_SAMPLE = 5
_RNG_VAL_ADAPT = 6
_RNG_TEST_SAMPLE = 7
_RNG_TEST_ADAPT = 8


class ConfigError(ValueError):
    """Experiment configuration is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: method, episode shape, model size, loop sizes, paths.

    Defaults are desk-scale: a from-scratch encoder wants far larger learning
    rates than the fine-tuning protocol this harness is modeled on (which used
    inner/meta rates of 5e-5 and 2e-5 on a large pretrained encoder).
    """

    method: str = "amgs"
    # episode shape
    n_way: int = 5
    k_shot: int = 1
    query_per_class: int = 5
    # adaptation
    inner_steps: int = 5
    inner_lr: float = 0.5
    meta_lr: float = 0.05
    aux_weight: float = 1e-3
    mask_prob: float = 0.30
    mask_strategy: tuple = (1.0, 0.0, 0.0)
    # model
    d_emb: int = 32
    d_h: int = 32
    max_len: int = 32
    min_freq: int = 0
    # training loop
    episodes_per_epoch_train: int = 50
    episodes_per_epoch_val: int = 50
    test_episodes: int = 200
    patience: int = 3
    max_epochs: int = 15
    meta_batch_size: int = 1
    seeds: tuple = (1, 2, 3, 4, 5)
    # strategy switches
    support_direction: str = "accumulated"
    support_term: str = "accumulated"
    gate_threshold: float = 0.0
    use_mtp_test: bool = True
    reptile_use_query: bool = False
    fine_tune_steps: int | None = None  # None: same as inner_steps
    # data
    corpus_path: str = ""
    split_path: str = ""

    def validate(self) -> None:
        """Check the types of the harness's counts and the meta-learner's
        config (its errors re-raised as ConfigError), then the harness's ranges."""
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not isinstance(self.seeds, (tuple, list)) or not self.seeds:
            raise ConfigError(f"seeds must be a non-empty list of integers, got {self.seeds!r}")
        positive = ("n_way", "k_shot", "query_per_class", "patience", "episodes_per_epoch_train",
                    "episodes_per_epoch_val", "test_episodes", "max_epochs", "meta_batch_size",
                    "d_emb", "d_h", "max_len")
        # A float or bool seed draws an integer seed's streams, and a float
        # count fails in range() mid-run, so both are rejected here.
        integers = [(name, getattr(self, name)) for name in (*positive, "min_freq")]
        integers += [("seeds", seed) for seed in self.seeds]
        if self.fine_tune_steps is not None:
            integers.append(("fine_tune_steps", self.fine_tune_steps))
        try:
            for name, value in integers:
                check_number(name, value, integer=True)
            self.meta_config().validate()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.inner_lr <= 0:
            raise ConfigError("inner_lr must be positive")
        if self.min_freq < 0:
            raise ConfigError("min_freq must be non-negative")
        repeated = [s for s in self.seeds if list(self.seeds).count(s) > 1]
        if repeated:
            raise ConfigError(f"seeds must be distinct; seed {repeated[0]} is repeated")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative; seed {min(self.seeds)} is negative")
        if self.fine_tune_steps is not None and self.fine_tune_steps < 0:
            raise ConfigError("fine_tune_steps must be non-negative")

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.field_names())
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        data = dict(data)
        for key in ("mask_strategy", "seeds"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["mask_strategy"] = list(self.mask_strategy)
        d["seeds"] = list(self.seeds)
        return d

    def effective_fine_tune_steps(self) -> int:
        return self.inner_steps if self.fine_tune_steps is None else self.fine_tune_steps

    def fine_tune_args(self) -> tuple[int, bool, MetaConfig]:
        """How evaluation fine-tunes: (steps, use_mtp, MetaConfig) for fine_tune
        and meta_test. Baselines carry no masked-token head usage at all."""
        return (self.effective_fine_tune_steps(),
                self.use_mtp_test and self.method in AMGS_FAMILY, self.meta_config())

    def meta_config(self) -> MetaConfig:
        return replace(MetaConfig(
            inner_lr=self.inner_lr, meta_lr=self.meta_lr, inner_steps=self.inner_steps,
            aux_weight=self.aux_weight, gate_threshold=self.gate_threshold,
            mask_prob=self.mask_prob, mask_strategy=tuple(self.mask_strategy),
            support_direction=self.support_direction, support_term=self.support_term,
            reptile_use_query=self.reptile_use_query), **METHOD_PRESETS[self.method])


@dataclass
class SeedResult:
    seed: int
    train_accuracy: list     # seen-class accuracy per epoch
    val_accuracy: list       # unseen-class accuracy per epoch
    best_epoch: int          # 1-based
    test_accuracy: float
    episode_accuracies: list
    epochs_run: int


@dataclass
class RunResult:
    method: str
    n_way: int
    k_shot: int
    seed_results: list
    mean_accuracy: float
    std_accuracy: float

    def summary_row(self) -> dict:
        return {
            "method": self.method,
            "n_way": self.n_way,
            "k_shot": self.k_shot,
            "mean_acc": self.mean_accuracy,
            "std_acc": self.std_accuracy,
            "seeds": ";".join(str(s.seed) for s in self.seed_results),
        }


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed)] + [int(t) for t in tags])


def _step_fn(method: str):
    if method == "fomaml":
        return fomaml_step
    if method == "reptile":
        return reptile_step
    return meta_step


def load_experiment_data(config: ExperimentConfig) -> tuple[Corpus, ClassSplit]:
    corpus = load_corpus(config.corpus_path, config.max_len, config.min_freq)
    names = load_split_file(config.split_path)
    split = make_splits(corpus, names["train"], names["val"], names["test"])
    return corpus, split


def _sample_episodes(corpus, split, part, config, n_episodes, rng) -> list:
    eps = []
    part_classes = set(split.part(part))
    for _ in range(n_episodes):
        ep = sample_episode(corpus, split, part, config.n_way, config.k_shot,
                            config.query_per_class, rng)
        # Re-assert split discipline at the harness level.
        if not set(ep.label_map) <= part_classes:
            raise AssertionError(f"episode classes escape the {part} split")
        eps.append(ep)
    return eps


def _evaluate(psi: ModelParams, eps: list, config: ExperimentConfig,
              rng_adapt: np.random.Generator) -> tuple[float, list]:
    args = config.fine_tune_args()
    accs = []
    for ep in eps:
        acc, _ = meta_test(psi, ep, *args, rng_adapt)
        accs.append(acc)
    return float(np.mean(accs)), accs


def _train_one_seed(config: ExperimentConfig, corpus: Corpus, split: ClassSplit,
                    seed: int, metrics_fh=None) -> tuple[SeedResult, ModelParams]:
    model_cfg = ModelConfig(vocab_size=corpus.vocab_size, d_emb=config.d_emb,
                            d_h=config.d_h, n_way=config.n_way)
    psi = model_cfg.init_params(_rng(seed, _RNG_INIT))
    state = MetaState.create(psi, config.meta_config())
    step_fn = _step_fn(config.method)
    rng_sample = _rng(seed, _RNG_TRAIN_SAMPLE)
    rng_step = _rng(seed, _RNG_TRAIN_STEP)

    train_curve, val_curve = [], []
    best_val = -np.inf
    best_epoch = 0
    best_psi = state.psi
    stale = 0
    epoch = 0
    for epoch in range(1, config.max_epochs + 1):
        for _ in range(config.episodes_per_epoch_train):
            batch = _sample_episodes(corpus, split, "train", config,
                                     config.meta_batch_size, rng_sample)
            state, report = step_fn(state, batch, rng_step)
            if metrics_fh is not None:
                line = {"seed": seed, "epoch": epoch, "method": config.method, **report}
                metrics_fh.write(json.dumps(line) + "\n")

        seen_eps = _sample_episodes(corpus, split, "train", config,
                                    config.episodes_per_epoch_val,
                                    _rng(seed, _RNG_SEEN_SAMPLE, epoch))
        seen_acc, _ = _evaluate(state.psi, seen_eps, config,
                                _rng(seed, _RNG_SEEN_ADAPT, epoch))
        val_eps = _sample_episodes(corpus, split, "val", config,
                                   config.episodes_per_epoch_val,
                                   _rng(seed, _RNG_VAL_SAMPLE, epoch))
        val_acc, _ = _evaluate(state.psi, val_eps, config,
                               _rng(seed, _RNG_VAL_ADAPT, epoch))
        train_curve.append(seen_acc)
        val_curve.append(val_acc)

        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_psi = state.psi
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    test_eps = _sample_episodes(corpus, split, "test", config, config.test_episodes,
                                _rng(seed, _RNG_TEST_SAMPLE))
    test_acc, per_episode = _evaluate(best_psi, test_eps, config,
                                      _rng(seed, _RNG_TEST_ADAPT))
    result = SeedResult(seed=seed, train_accuracy=train_curve, val_accuracy=val_curve,
                        best_epoch=best_epoch, test_accuracy=test_acc,
                        episode_accuracies=per_episode, epochs_run=epoch)
    return result, best_psi


def run_training(config: ExperimentConfig, out_dir=None) -> RunResult:
    """Train with early stopping, restore the best-validation parameters, and
    evaluate on the test split; repeated per seed and aggregated mean +/- std.

    When out_dir is given, writes metrics.jsonl (per-step reports), epochs.csv
    (seed, epoch, train_acc, val_acc), summary.csv, and a best-parameter
    checkpoint per seed.
    """
    config.validate()
    corpus, split = load_experiment_data(config)

    metrics_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_fh = open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8")
    try:
        seed_results = []
        for seed in config.seeds:
            result, best_psi = _train_one_seed(config, corpus, split, seed, metrics_fh)
            seed_results.append(result)
            if out_dir is not None:
                save_params(os.path.join(out_dir, f"psi_seed{seed}.bin"), best_psi)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    accs = np.asarray([r.test_accuracy for r in seed_results])
    run = RunResult(method=config.method, n_way=config.n_way, k_shot=config.k_shot,
                    seed_results=seed_results,
                    mean_accuracy=float(accs.mean()), std_accuracy=float(accs.std()))
    if out_dir is not None:
        _write_epochs_csv(os.path.join(out_dir, "epochs.csv"), seed_results)
        _write_summary_csv(os.path.join(out_dir, "summary.csv"), [run.summary_row()])
    return run


def _write_epochs_csv(path, seed_results) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("seed,epoch,train_acc,val_acc\n")
        for res in seed_results:
            for i, (tr, va) in enumerate(zip(res.train_accuracy, res.val_accuracy), start=1):
                fh.write(f"{res.seed},{i},{_fmt(tr)},{_fmt(va)}\n")


def _write_summary_csv(path, rows) -> None:
    if not rows:
        raise ValueError("no summary rows to write")
    columns = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


# ---------------------------------------------------------------------------
# ablation sweeps

DEFAULT_GRIDS = {
    # meta-learner strategy: query-only, support-only, both, adaptive gating
    "strategy": {"method": ["amgs_que", "amgs_sup", "amgs_que_sup", "amgs"]},
    # masked-token task on/off in training (aux weight) and in test fine-tuning
    "mtp": {"aux_weight": [1e-3, 0.0], "use_mtp_test": [True, False]},
    # masking probability x replacement strategy
    "masking": {"mask_prob": [0.15, 0.30, 0.45],
                "mask_strategy": [(1.0, 0.0, 0.0), (0.8, 0.1, 0.1)]},
    # auxiliary-loss trade-off sweep
    "aux_weight": {"aux_weight": [0.9, 0.5, 1e-1, 1e-3, 1e-5, 0.0]},
}


def _grid_value(value):
    if isinstance(value, list):
        return tuple(value)
    return value


def run_ablation(config: ExperimentConfig, grid: dict, out_dir=None) -> list:
    """Run the Cartesian product of a named parameter grid.

    Returns [(point dict, RunResult), ...] in product order and, when out_dir
    is given, writes one summary.csv row per grid point (no silent skips).
    """
    if not grid:
        raise ConfigError("ablation grid is empty")
    known = set(ExperimentConfig.field_names())
    bad = sorted(set(grid) - known)
    if bad:
        raise ConfigError(f"unknown grid keys: {bad}")
    keys = list(grid.keys())
    value_lists = []
    for key in keys:
        values = grid[key]
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"grid key {key!r} must map to a non-empty list")
        value_lists.append([_grid_value(v) for v in values])

    results = []
    rows = []
    for i, combo in enumerate(itertools.product(*value_lists)):
        point = dict(zip(keys, combo))
        point_config = replace(config, **point)
        point_dir = os.path.join(out_dir, f"point_{i:03d}") if out_dir is not None else None
        run = run_training(point_config, point_dir)
        results.append((point, run))
        row = {key: _point_str(point[key]) for key in keys}
        row.update(run.summary_row())
        rows.append(row)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_summary_csv(os.path.join(out_dir, "summary.csv"), rows)
    return results


def _point_str(value) -> str:
    if isinstance(value, tuple):
        return ":".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value)


# ---------------------------------------------------------------------------
# synthetic corpus

def gen_synthetic(path, num_classes: int, docs_per_class: int, tokens_per_class: int,
                  overlap: float, doc_len_range=(6, 12), seed: int = 0) -> list:
    """Write a JSONL corpus whose classes draw from class-specific token pools.

    overlap is the probability mass each class puts on a shared pool: 0 gives
    disjoint class vocabularies, 1 gives identical class-conditional
    distributions. Deterministic per seed. Returns the class names in order.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ConfigError(f"overlap must be in [0, 1], got {overlap}")
    if num_classes < 1 or docs_per_class < 1 or tokens_per_class < 1:
        raise ConfigError("num_classes, docs_per_class and tokens_per_class must be positive")
    lo, hi = int(doc_len_range[0]), int(doc_len_range[1])
    if lo < 1 or hi < lo:
        raise ConfigError(f"doc_len_range must satisfy 1 <= lo <= hi, got {doc_len_range}")

    rng = np.random.default_rng(seed)
    shared = [f"shr{j}" for j in range(tokens_per_class)]
    class_names = [f"class{c:03d}" for c in range(num_classes)]
    with open(path, "w", encoding="utf-8") as fh:
        for c, name in enumerate(class_names):
            own = [f"c{c:03d}t{j}" for j in range(tokens_per_class)]
            for _ in range(docs_per_class):
                length = int(rng.integers(lo, hi + 1))
                words = []
                for _ in range(length):
                    pool = shared if rng.random() < overlap else own
                    words.append(pool[int(rng.integers(len(pool)))])
                fh.write(json.dumps({"text": " ".join(words), "label": name}) + "\n")
    return class_names


def write_split_file(path, class_names, n_train: int, n_val: int, n_test: int) -> dict:
    """Assign the first classes to train, the next to val, the rest to test."""
    if min(n_train, n_val, n_test) < 0:
        raise ConfigError(f"split sizes {n_train}/{n_val}/{n_test} must be non-negative")
    if n_train + n_val + n_test > len(class_names):
        raise ConfigError(
            f"split sizes {n_train}+{n_val}+{n_test} exceed {len(class_names)} classes")
    names = {
        "train": list(class_names[:n_train]),
        "val": list(class_names[n_train:n_train + n_val]),
        "test": list(class_names[n_train + n_val:n_train + n_val + n_test]),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(names, fh, indent=0)
        fh.write("\n")
    return names


# ---------------------------------------------------------------------------
# embedding export

def export_embeddings(psi: ModelParams, episode: Episode, path, corpus: Corpus,
                      config: ExperimentConfig, rng: np.random.Generator) -> int:
    """Write one CSV row per query example: sentence representation after
    test-time fine-tuning as the config's evaluation runs it, local label,
    global class name. Values carry 17 significant digits so they round-trip.
    Returns the row count. A checkpoint of another n_way than the config's
    or another vocabulary than the corpus's raises ValueError."""
    if psi.n_way != config.n_way:
        raise ValueError(f"checkpoint was trained for n_way={psi.n_way}, "
                         f"config has n_way={config.n_way}")
    if psi.vocab_size != corpus.vocab_size:
        raise ValueError(f"checkpoint has vocab_size={psi.vocab_size}, the corpus "
                         f"vocabulary under this config has {corpus.vocab_size} tokens")
    theta = fine_tune(psi, episode.support, *config.fine_tune_args(), rng)
    d_h = psi.d_h
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = [f"rep_{i}" for i in range(d_h)] + ["local_label", "class_name"]
        fh.write(",".join(header) + "\n")
        count = 0
        for seq, label in episode.query:
            _, rep = encode(theta, seq)
            class_name = corpus.class_names[episode.label_map[label]]
            fh.write(",".join([_fmt(float(x)) for x in rep] + [str(label), class_name]) + "\n")
            count += 1
    return count


# ---------------------------------------------------------------------------
# gradient verification by central differences; the oracle calls only the
# loss it is given, never the analytic gradient code it checks

def central_diff(loss_fn, params: ModelParams, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of loss_fn(params) over the flat vector."""
    layout = params.layout()
    flat = params.to_flat()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss_fn(ModelParams.from_flat(up, layout))
                   - loss_fn(ModelParams.from_flat(down, layout))) / (2 * step)
    return grad


def max_rel_err(analytic, numeric) -> float:
    """Largest relative error, with the denominator floored at 1e-4 so tiny
    entries compare in absolute terms: a central difference of an O(1)
    float64 loss carries rounding noise near 1e-10, far below the floor."""
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float((np.abs(analytic - numeric) / scale).max())


def check_gradients(n_instances: int = 20, seed: int = 0, step: float = 1e-6) -> dict:
    """Compare analytic gradients with central finite differences on random
    small instances. Returns max relative error per loss."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=10, d_emb=4, d_h=3, n_way=3)
    worst = {"primary": 0.0, "aux": 0.0, "total": 0.0}
    for _ in range(n_instances):
        params = cfg.init_params(rng)
        batch = []
        for _ in range(4):
            length = int(rng.integers(2, 7))
            batch.append((rng.integers(3, 10, size=length), int(rng.integers(cfg.n_way))))
        masked = MaskedBatch.build([s for s, _ in batch], rng, mask_prob=0.5,
                                   vocab_size=cfg.vocab_size)
        aux_w = 0.3
        g = grad_primary(params, batch)
        worst["primary"] = max(worst["primary"], max_rel_err(g, central_diff(
            lambda p: primary_loss(p, batch)[0], params, step)))
        g = grad_total(params, batch, masked, 1.0)
        worst["aux"] = max(worst["aux"], max_rel_err(g, central_diff(
            lambda p: total_loss(p, batch, masked, 1.0), params, step)))
        g = grad_total(params, batch, masked, aux_w)
        worst["total"] = max(worst["total"], max_rel_err(g, central_diff(
            lambda p: total_loss(p, batch, masked, aux_w), params, step)))
    return worst
