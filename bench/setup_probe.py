"""Time one cold set-up in a fresh interpreter: import metatext and load a
workload's corpus and split with load_experiment_data.

    python3 bench/setup_probe.py SRC_DIR CONFIG_JSON

Prints the elapsed seconds. numpy, a dependency, is imported before the clock
starts, so the figure is the package's own import plus the data load.
"""

import json
import sys
import time

import numpy  # noqa: F401

if __name__ == "__main__":
    src_dir, config_path = sys.argv[1:3]
    sys.path.insert(0, src_dir)
    with open(config_path, encoding="utf-8") as fh:
        fields = json.load(fh)
    start = time.perf_counter()
    from metatext.harness import ExperimentConfig, load_experiment_data
    load_experiment_data(ExperimentConfig.from_dict(fields))
    print(repr(time.perf_counter() - start))
