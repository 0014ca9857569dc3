"""Benchmark workloads: a synthetic corpus and experiment configs per workload.

Every input is a pure function of the workload seed: the corpus is generated
with it and the training seeds of a pass's run_training calls derive from it.
The shapes follow the `bench` fixture of the acceptance suite (criterion 5);
only epoch and episode counts are cut. A pass makes one short call per method
and training seed, so that a run holds many timings of each call and the
accuracy averages over several seeds. `patience` never falls below
`max_epochs`, so early stopping cannot cut an epoch short and the work done by
a pass does not depend on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Corpus and config of the acceptance suite's `bench` fixture.
FIXTURE_CORPUS = dict(num_classes=45, docs_per_class=10, tokens_per_class=8,
                      overlap=0.5, doc_len_range=(6, 12))
FIXTURE_SPLIT = (30, 5, 10)
FIXTURE_CONFIG = dict(
    n_way=5, k_shot=1, query_per_class=5, inner_steps=5, inner_lr=1.5,
    meta_lr=0.05, aux_weight=0.1, d_emb=32, d_h=32, max_len=32,
    episodes_per_epoch_train=13, episodes_per_epoch_val=50, meta_batch_size=8,
    test_episodes=200, patience=5, max_epochs=12, fine_tune_steps=20)

BASELINES = ("amgs", "fomaml", "reptile")


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple
    corpus: dict
    config: dict          # ExperimentConfig fields other than method, seeds and paths
    chance_check: bool    # test accuracy must beat n-way chance
    train_seeds: int      # run_training calls per method in one pass, one seed each
    timed_passes: int     # passes whose fastest calls give run_s
    learning_check: bool = False   # meta-training must lower the adapted loss
    tiny: dict = field(default_factory=dict)   # overrides of the self-test size


# Shared by every tiny variant: a small corpus and one short epoch.
_TINY_CORPUS = dict(num_classes=15, docs_per_class=12)
_TINY_SPLIT = (5, 5, 5)
_TINY_CONFIG = dict(max_epochs=1, patience=1, episodes_per_epoch_train=2,
                    meta_batch_size=2, episodes_per_epoch_val=2, test_episodes=4)

WORKLOADS = {
    # The criterion-5 sweep, shortened: two epochs of one meta-step and 2 + 2
    # evaluation episodes, then 6 test episodes. That keeps the fixture's
    # ~0.1 meta-steps per evaluation episode, so evaluation does most of the
    # work, as in the full sweep.
    "sweep_k1": Workload(
        name="sweep_k1", methods=BASELINES, corpus=FIXTURE_CORPUS,
        config=dict(FIXTURE_CONFIG, max_epochs=2, episodes_per_epoch_train=1,
                    episodes_per_epoch_val=2, test_episodes=6),
        chance_check=True, train_seeds=4, timed_passes=10,
        tiny=dict(_TINY_CONFIG, fine_tune_steps=5)),
    # Same corpus, shapes and methods with meta-training doing the work:
    # sixteen meta-steps per seed, one validation episode and eight test
    # episodes, each fine-tuned for a single step. One step is enough to show
    # what meta-training bought (an untrained psi adapts far less in one step),
    # while evaluation stays a few percent of the run.
    "metatrain_k1": Workload(
        name="metatrain_k1", methods=BASELINES, corpus=FIXTURE_CORPUS,
        config=dict(FIXTURE_CONFIG, fine_tune_steps=1, episodes_per_epoch_val=1,
                    max_epochs=2, patience=2, episodes_per_epoch_train=8,
                    test_episodes=8),
        chance_check=False, train_seeds=4, timed_passes=5, learning_check=True,
        tiny=dict(_TINY_CONFIG)),
    # amgs alone on a ~1.8k-token vocabulary with long, variable-length
    # documents: the masked-token softmax over the vocabulary dominates.
    # One meta-step takes about a second here, so its calls cannot be short.
    "aux_vocab_k5": Workload(
        name="aux_vocab_k5", methods=("amgs",),
        corpus=dict(num_classes=45, docs_per_class=30, tokens_per_class=40,
                    overlap=0.5, doc_len_range=(8, 32)),
        config=dict(FIXTURE_CONFIG, k_shot=5, max_epochs=1,
                    episodes_per_epoch_train=1, episodes_per_epoch_val=1,
                    test_episodes=6),
        chance_check=True, train_seeds=1, timed_passes=3,
        tiny=dict(_TINY_CONFIG, fine_tune_steps=5)),
}


def training_seeds(workload: Workload, seed: int, tiny: bool) -> list:
    """Seeds of a pass's run_training calls; distinct across workload seeds."""
    n = 1 if tiny else workload.train_seeds
    return [seed * n + i for i in range(n)]


def config_fields(workload: Workload, method: str, seed: int, corpus_path: str,
                  split_path: str, tiny: bool) -> dict:
    """ExperimentConfig fields of one run of the workload."""
    fields = dict(workload.config, **(workload.tiny if tiny else {}))
    fields.update(method=method, seeds=(seed,), corpus_path=corpus_path,
                  split_path=split_path)
    return fields


def make_inputs(gen_synthetic, write_split_file, workload: Workload, seed: int,
                work_dir: str, tiny: bool) -> tuple[str, str]:
    """Generate the workload's corpus and split files from the seed."""
    corpus_kw = dict(workload.corpus, **(_TINY_CORPUS if tiny else {}))
    n_train, n_val, n_test = _TINY_SPLIT if tiny else FIXTURE_SPLIT
    corpus_path = os.path.join(work_dir, "corpus.jsonl")
    split_path = os.path.join(work_dir, "split.json")
    names = gen_synthetic(corpus_path, seed=seed, **corpus_kw)
    write_split_file(split_path, names, n_train, n_val, n_test)
    return corpus_path, split_path
