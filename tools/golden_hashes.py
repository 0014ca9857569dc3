"""Golden hashes: sha256 of every output file of run_training on the benchmark's
workloads, so that a change meant to keep outputs bit-for-bit can be checked
with one diff.

    python3 tools/golden_hashes.py 5 > golden_5.txt      # at each commit
    diff golden_parent_5.txt golden_change_5.txt          # no output: same bits
    python3 tools/golden_hashes.py 5 --keep out_5         # keep the output tree too

For each workload in bench/workloads.py (full size), the corpus is generated
from SEED, and run_training is called once per method and per training seed
(the first two of the workload's seeds) with an output directory. On sweep_k1
the variants of the gated update run too: amgs_que, amgs_sup, amgs_que_sup,
reptile with reptile_use_query, amgs with support_term and with
support_direction set to first_step, amgs_sup with both, and amgs with
aux_weight 1.0 (the masked-token branch alone). Each line reads
`sha256  workload/method/seed/file`. With --keep DIR the output tree is
written under DIR (one DIR/workload/label-seed/ per call) and kept, so that
tools/output_drift.py can compare two trees whose bits differ. BLAS and
OpenMP are pinned to one thread, as in the benchmark, and the metatext package
is the one of this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from metatext import harness  # noqa: E402
from checks import file_hashes  # noqa: E402
from workloads import WORKLOADS, config_fields, make_inputs, training_seeds  # noqa: E402

TRAINING_SEEDS = 2
# (label, method, overrides) run on sweep_k1 besides the workload's methods.
SWEEP_VARIANTS = (
    ("amgs_que", "amgs_que", {}),
    ("amgs_sup", "amgs_sup", {}),
    ("amgs_que_sup", "amgs_que_sup", {}),
    ("reptile+use_query", "reptile", dict(reptile_use_query=True)),
    ("amgs+term_first", "amgs", dict(support_term="first_step")),
    ("amgs+direction_first", "amgs", dict(support_direction="first_step")),
    ("amgs_sup+both_first", "amgs_sup",
     dict(support_term="first_step", support_direction="first_step")),
    ("amgs+aux_only", "amgs", dict(aux_weight=1.0)),
)


def runs(workload):
    """(label, method, overrides) of every run_training call on the workload."""
    base = [(m, m, {}) for m in workload.methods]
    return base + list(SWEEP_VARIANTS) if workload.name == "sweep_k1" else base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int, help="workload seed (corpus and training seeds)")
    parser.add_argument("--keep", metavar="DIR",
                        help="write the output tree under DIR (created) and keep it")
    args = parser.parse_args(argv)
    if args.keep:
        os.makedirs(args.keep)
        tree = contextlib.nullcontext(args.keep)
    else:
        tree = tempfile.TemporaryDirectory(prefix="golden-")
    with tree as work:
        for workload in WORKLOADS.values():
            work_dir = os.path.join(work, workload.name)
            os.makedirs(work_dir)
            corpus_path, split_path = make_inputs(harness.gen_synthetic,
                                                  harness.write_split_file, workload,
                                                  args.seed, work_dir, tiny=False)
            for seed in training_seeds(workload, args.seed, tiny=False)[:TRAINING_SEEDS]:
                for label, method, overrides in runs(workload):
                    fields = config_fields(workload, method, seed, corpus_path, split_path,
                                           tiny=False)
                    config = harness.ExperimentConfig.from_dict(dict(fields, **overrides))
                    out_dir = os.path.join(work_dir, f"{label}-{seed}")
                    harness.run_training(config, out_dir)
                    for name, digest in file_hashes(out_dir).items():
                        print(f"{digest}  {workload.name}/{label}/{seed}/{name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
