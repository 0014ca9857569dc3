"""Command-line entry points.

Subcommands: train, ablate, gen-corpus, export-embeddings, check-gradients.
Configuration comes from a JSON file plus --set key=value overrides; --seed
appends to the seed list. On failure the process exits nonzero after printing
a single machine-readable error line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import (
    DEFAULT_GRIDS,
    ConfigError,
    ExperimentConfig,
    check_gradients,
    check_split_sizes,
    export_embeddings,
    gen_synthetic,
    load_experiment_data,
    run_ablation,
    run_training,
    write_split_file,
)
from .episodes import sample_episode
from .model import load_params


def _parse_set(values) -> dict:
    overrides = {}
    for item in values or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"--config must hold a JSON object, got {type(data).__name__}")
    data.update(_parse_set(getattr(args, "set", None)))
    extra_seeds = getattr(args, "seed", None) or []
    if extra_seeds:
        seeds = data.get("seeds", [])
        if not isinstance(seeds, list):
            raise ConfigError(f"--seed appends to a list of seeds, got seeds={seeds!r}")
        data["seeds"] = seeds + [int(s) for s in extra_seeds]
    return ExperimentConfig.from_dict(data)


def _cmd_train(args) -> int:
    config = _load_config(args)
    run = run_training(config, args.out)
    print(f"method={run.method} mean_acc={run.mean_accuracy:.4f} "
          f"std={run.std_accuracy:.4f} seeds={len(run.seed_results)}")
    if args.out:
        print(f"outputs written to {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    config = _load_config(args)
    if args.grid in DEFAULT_GRIDS:
        grid = DEFAULT_GRIDS[args.grid]
    else:
        with open(args.grid, "r", encoding="utf-8") as fh:
            grid = json.load(fh)
    results = run_ablation(config, grid, args.out)
    for point, run in results:
        desc = ",".join(f"{k}={v}" for k, v in point.items())
        print(f"{desc}: mean_acc={run.mean_accuracy:.4f} std={run.std_accuracy:.4f}")
    if args.out:
        print(f"{len(results)} rows written to {args.out}/summary.csv")
    return 0


def _cmd_gen_corpus(args) -> int:
    if (args.split_out is None) != (args.split_counts is None):
        raise ValueError("--split-out and --split-counts TRAIN VAL TEST go together")
    if args.split_counts:
        check_split_sizes(args.classes, *args.split_counts)
    class_names = gen_synthetic(args.out, args.classes, args.docs_per_class,
                                args.tokens_per_class, args.overlap,
                                doc_len_range=tuple(args.doc_len), seed=args.seed)
    print(f"wrote {args.classes * args.docs_per_class} documents "
          f"({args.classes} classes) to {args.out}")
    if args.split_out:
        tr, va, te = args.split_counts
        write_split_file(args.split_out, class_names, tr, va, te)
        print(f"wrote split {tr}/{va}/{te} to {args.split_out}")
    return 0


def _cmd_export_embeddings(args) -> int:
    config = _load_config(args)
    corpus, split = load_experiment_data(config)
    psi = load_params(args.checkpoint)
    episode = sample_episode(corpus, split, args.part, config.n_way, config.k_shot,
                             config.query_per_class, np.random.default_rng([args.episode_seed, 0]))
    count = export_embeddings(psi, episode, args.out, corpus, config,
                              np.random.default_rng([args.episode_seed, 1]))
    print(f"wrote {count} rows to {args.out}")
    return 0


def _cmd_check_gradients(args) -> int:
    worst = check_gradients(n_instances=args.instances, seed=args.seed, step=args.step)
    ok = all(err < args.tolerance for err in worst.values())
    for name, err in worst.items():
        status = "ok" if err < args.tolerance else "FAIL"
        print(f"{name}: max relative error {err:.3e} [{status}]")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metatext",
                                     description="Few-shot text meta-learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (JSON-parsed value)")
        p.add_argument("--seed", action="append", metavar="N",
                       help="append a seed to the seed list")

    p = sub.add_parser("train", help="train one method and evaluate on the test split")
    add_config_args(p)
    p.add_argument("--out", help="output directory for metrics/epochs/summary files")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("ablate", help="run a parameter grid")
    add_config_args(p)
    p.add_argument("--grid", required=True,
                   help=f"named grid ({', '.join(DEFAULT_GRIDS)}) or a JSON file")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("gen-corpus", help="generate a synthetic JSONL corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--docs-per-class", type=int, required=True)
    p.add_argument("--tokens-per-class", type=int, required=True)
    p.add_argument("--overlap", type=float, required=True)
    p.add_argument("--doc-len", type=int, nargs=2, default=(6, 12), metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-out", help="also write a train/val/test split file")
    p.add_argument("--split-counts", type=int, nargs=3, metavar=("TRAIN", "VAL", "TEST"))
    p.set_defaults(fn=_cmd_gen_corpus)

    p = sub.add_parser("export-embeddings",
                       help="fine-tune on one episode and dump query representations")
    add_config_args(p)
    p.add_argument("--checkpoint", required=True, help="parameter checkpoint from train")
    p.add_argument("--part", default="test", choices=("train", "val", "test"))
    p.add_argument("--episode-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_embeddings)

    p = sub.add_parser("check-gradients",
                       help="verify analytic gradients against finite differences")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(fn=_cmd_check_gradients)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface one machine-readable line, exit nonzero
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
