"""
Reproducible experiment artifacts from the command line
=======================================================

Every study the library runs is also reachable through the ``gradridge``
command: a JSON config in, CSV/JSON artifacts out, every artifact
stamped with a canonical config hash and the seed that produced it.
Runs are byte-reproducible -- same config and seed give identical files,
regardless of the worker-thread count.  This script drives the CLI
in-process, prints the artifacts, and checks reproducibility.
"""

import filecmp
import json
import pathlib
import tempfile

from gradridge.cli import main

# removed, with everything the runs write into it, when the script exits
scratch = tempfile.TemporaryDirectory(prefix="gradridge_demo_")
workdir = pathlib.Path(scratch.name)

# A small error-curve study on a quadratic model: estimated bounds and
# validated errors along a rank ladder, optimal projector vs K-L.
config = {
    "model": {"kind": "quadratic", "matrix": [[2.0, 0.5, 0.0],
                                              [0.5, 1.0, 0.2],
                                              [0.0, 0.2, 0.4]]},
    "sampling": {"k": 500, "n_val": 400, "m": [1, 5], "seed": 314},
}
cfg_path = workdir / "curve.json"
cfg_path.write_text(json.dumps(config, indent=2))

out_a = workdir / "run_a"
out_b = workdir / "run_b"
code = main(["curve", "--config", str(cfg_path), "--out", str(out_a)])
print("first run exit code:", code)
code = main(["curve", "--config", str(cfg_path), "--out", str(out_b),
             "--threads", "4"])
print("second run (4 threads) exit code:", code)
print()

curve = (out_a / "curve.csv").read_text().splitlines()
print("curve.csv, metadata and first rows:")
for line in curve[:8]:
    print(" ", line)
print()

same = filecmp.cmp(out_a / "curve.csv", out_b / "curve.csv", shallow=False)
print("byte-identical across runs and thread counts:", same)
assert same
print()

# The sensitivity study emits JSON with the hash and seed at top level.
sens_cfg = {
    "model": {"kind": "sines",
              "amplitudes": [1.0, 0.6, 0.3],
              "frequencies": [0.8, 1.2, 2.0]},
    "sampling": {"seed": 11, "sobol_outer": 500, "dgsm_k": 2000},
}
sens_path = workdir / "sobol.json"
sens_path.write_text(json.dumps(sens_cfg))
out_s = workdir / "run_sobol"
code = main(["sobol", "--config", str(sens_path), "--out", str(out_s)])
print("sobol run exit code:", code)
doc = json.loads((out_s / "sobol.json").read_text())
print("config hash:", doc["config_hash"], " seed:", doc["seed"])
for row in doc["groups"]:
    print(f"  group {row['group']}: s_hat={row['s_hat']:.4f} "
          f"in [{row['s_lower']:.4f}, ...], t_hat={row['t_hat']:.4f} "
          f"<= {row['t_upper']:.4f}")
