"""Counted calls: one tiny run_training per method, under the benchmark's tracer
(bench/spans.py), makes exactly the calls that bench/checks.py derives from
its config. A change that routes around a counted function fails here as well
as in the benchmark. The bench modules are imported, not copied. The same
tiny runs leave no cyclic garbage, and each builds its MetaConfig once per seed."""

import gc
import os
import sys
from dataclasses import replace

import pytest

from metatext.harness import (AMGS_FAMILY, METHODS, ExperimentConfig, gen_synthetic,
                              run_training, write_split_file)
from metatext.meta import MetaConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
from checks import eval_episodes, expected_calls, meta_steps  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, config_fields, make_inputs  # noqa: E402


@pytest.fixture(scope="module")
def base_config(tmp_path_factory):
    """The sweep_k1 workload at the benchmark's self-test size."""
    workload = WORKLOADS["sweep_k1"]
    corpus_path, split_path = make_inputs(gen_synthetic, write_split_file, workload, 3,
                                          str(tmp_path_factory.mktemp("calls")), tiny=True)
    return ExperimentConfig(**config_fields(workload, "amgs", 5, corpus_path, split_path,
                                            tiny=True))


def traced_calls(config):
    with Tracer() as tracer:
        run = run_training(config)
    return run, tracer.take().calls()


@pytest.mark.parametrize("method, fine_tune_steps, extra", [
    *(pytest.param(m, 5, {}, id=f"{m}-5") for m in METHODS),
    pytest.param("amgs", 0, {}, id="amgs-0"),
    # The query_in_inner path of reptile_step, which reads the flag off state.cfg.
    pytest.param("reptile", 5, {"reptile_use_query": True}, id="reptile-5-use_query")])
def test_traced_calls_match_the_benchmark_contract(base_config, method, fine_tune_steps, extra):
    config = replace(base_config, method=method, fine_tune_steps=fine_tune_steps, **extra)
    run, calls = traced_calls(config)
    for name, want in expected_calls(config, run).items():
        assert calls[name] == want, (name, calls[name], want)
    episodes = sum(meta_steps(config, r) for r in run.seed_results) * config.meta_batch_size
    evals = sum(eval_episodes(config, r) for r in run.seed_results)
    assert calls["meta.inner_adapt"] == episodes
    # One mask per training episode of the masked-token methods, and one per
    # fine-tuned evaluation episode where the test objective keeps the term.
    masks = episodes * (method in AMGS_FAMILY)
    masks += evals * (fine_tune_steps > 0 and config.fine_tune_args()[1])
    assert calls["model.MaskedBatch.build"] == masks


@pytest.mark.parametrize("method", ["amgs", "fomaml", "reptile"])
def test_run_training_leaves_no_cyclic_garbage(base_config, method):
    """With the cyclic collector off, a run frees everything it made by
    reference counting: a collection afterwards finds nothing unreachable."""
    config = replace(base_config, method=method)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_training(config)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not garbage, f"{len(garbage)} objects, the first a {type(garbage[0]).__name__}"


@pytest.mark.parametrize("method", ["amgs", "fomaml", "reptile"])
def test_run_training_builds_one_meta_config_per_seed(base_config, method, monkeypatch):
    """The seed's meta-state and every evaluation share one MetaConfig: the
    baselines' step functions no longer lay their preset over it on every
    meta-step, and no evaluation rebuilds it."""
    one = replace(base_config, method=method)
    two = replace(one, seeds=(*one.seeds, one.seeds[0] + 1))
    built, check = [], MetaConfig.__post_init__
    monkeypatch.setattr(MetaConfig, "__post_init__", lambda cfg: built.append(check(cfg)))
    for config in (one, two):
        built.clear()
        run_training(config)
        assert len(built) == len(config.seeds)
