"""Small child-process probes for the benchmark.

    python3 perfbench/probe.py host
        Print a JSON host stamp: cores, affinity, BLAS build, library
        versions, thread environment, and where gradridge was imported from.
    python3 perfbench/probe.py setup CONFIG_JSON SEED
        Import gradridge, resolve the config and build its model and measure,
        then exit. The benchmark times this process as ``setup_s``.
"""

import json
import os
import re
import sys


def host():
    import numpy
    import scipy

    import gradridge

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    max_threads = re.search(r"MAX_THREADS=(\d+)", config)
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "max_threads": int(max_threads.group(1)) if max_threads else None,
            "configuration": config,
        },
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "gradridge": os.path.dirname(os.path.abspath(gradridge.__file__)),
    }


def setup(config_path, seed):
    from gradridge.experiments import build_measure, build_model, resolve_config

    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = resolve_config(json.load(fh), seed_override=int(seed))
    build_measure(cfg, build_model(cfg))


if __name__ == "__main__":
    if sys.argv[1:2] == ["host"]:
        print(json.dumps(host()))
    elif sys.argv[1:2] == ["setup"] and len(sys.argv) == 4:
        setup(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
