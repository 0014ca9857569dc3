"""Desk-scale gradient-based meta-learning for few-shot text classification."""

from .episodes import Corpus, ClassSplit, Episode, load_corpus, make_splits, sample_episode
from .harness import ExperimentConfig, RunResult, gen_synthetic, run_ablation, run_training
from .meta import MetaConfig, MetaState, fomaml_step, meta_step, meta_test, reptile_step
from .model import MaskedBatch, ModelConfig, ModelParams

__version__ = "0.1.0"

__all__ = [
    "ClassSplit", "Corpus", "Episode", "ExperimentConfig", "MaskedBatch",
    "MetaConfig", "MetaState", "ModelConfig", "ModelParams", "RunResult",
    "fomaml_step", "gen_synthetic", "load_corpus", "make_splits", "meta_step",
    "meta_test", "reptile_step", "run_ablation", "run_training", "sample_episode",
]
