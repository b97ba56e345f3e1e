"""gradridge benchmark: the CLI end to end on pinned workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; gradridge is imported from ./src.
Each measured run is a fresh ``python3 -m gradridge`` process, the one users
launch, and its artifacts are checked against the paper's guarantees
(checks.py). ``setup_s`` times fresh processes that only import gradridge and
build the workload's model and measure.

With ``--trace 0`` the runs are untraced and the result carries the
end-to-end metrics. With ``--trace 1`` untraced and traced runs alternate; a
traced run wraps gradridge from outside (tracer.py) and the result carries the
per-layer metrics, with ``trace.overhead_s`` the traced minus the untraced
median wall time. Traced artifacts must match the untraced ones byte for byte.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``. The line before it is a detail record: host stamp, artifact
digest, error rate, sample counts and spreads, and any failed checks.
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_RUNS = 5  # setup_s is the median of this many fresh processes


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int
    config: dict
    check: object


def _linspace(start, stop, num):
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num)]


# Why each workload was chosen is in BENCHMARK.json and README.md, which also
# maps each layer metric to the end-to-end metric and workload it should move.
WORKLOADS = {
    "curve-field-g12": Workload(
        command="curve",
        threads=1,
        config={"model": {"kind": "pde", "grid": 12, "scenario": "full_field"},
                "ranks": "all", "comparisons": {"kl": True},
                "sampling": {"k": 256, "m": []}},
        check=checks.check_curve_field,
    ),
    "curve-pair-g12": Workload(
        command="curve",
        threads=2,
        config={"model": {"kind": "pde", "grid": 12, "scenario": "point_pair"},
                "ranks": [2, 8, 32], "comparisons": {"kl": False},
                "sampling": {"k": 1024, "m": [1, 4], "n_val": 256}},
        check=checks.check_curve_pair,
    ),
    "sobol-sines-d16": Workload(
        command="sobol",
        threads=1,
        config={"model": {"kind": "sines",
                          "amplitudes": _linspace(1.0, 0.1, 16),
                          "frequencies": _linspace(0.5, 2.0, 16)},
                "groups": "singletons",
                "sampling": {"sobol_outer": 2000, "sobol_inner": 64, "dgsm_k": 2000}},
        check=checks.check_sobol_sines,
    ),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def spawn(argv, stderr_path):
    """Run argv to exit; (exit code, wall s, user+sys cpu s, peak rss MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would mix in
        # every earlier child.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _tail(path):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def host_stamp(work):
    err = os.path.join(work, "host.err")
    with open(err, "wb") as fh:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), "host"],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=fh, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"cannot import gradridge from {SRC}: {_tail(err)}")
    stamp = json.loads(proc.stdout)
    if os.path.realpath(stamp["gradridge"]) != os.path.realpath(os.path.join(SRC, "gradridge")):
        raise SetupError(f"gradridge imported from {stamp['gradridge']}, not {SRC}")
    return stamp


def n_ranks(out_dir):
    path = os.path.join(out_dir, "curve.csv")
    if not os.path.isfile(path):
        return 0
    return len({row["r"] for row in checks.read_csv(path)})


class Bench:
    """One benchmark invocation: a work directory, its runs and failures."""

    def __init__(self, name, seed, work):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.count = 0
        self.problems = []
        self.digest = None
        config = self.workload.config
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        # The config with the seed the CLI applies: what the checks read.
        self.resolved = dict(config, sampling=dict(config["sampling"], seed=seed))

    def _path(self, stem):
        self.count += 1
        return os.path.join(self.work, f"{self.count:03d}-{stem}")

    def setup(self):
        code, wall, _, _ = spawn(
            [sys.executable, os.path.join(HERE, "probe.py"), "setup",
             self.config_path, str(self.seed)],
            self._path("setup.err"))
        if code != 0:
            self.problems.append(f"setup exited {code}")
        return {"wall": wall, "ok": code == 0}

    def cli(self, traced):
        out = self._path("out")
        os.makedirs(out)
        cli_args = [self.workload.command, "--config", self.config_path, "--out", out,
                    "--seed", str(self.seed), "--threads", str(self.workload.threads)]
        spans_path = out + ".spans.json"
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path] + cli_args
        else:
            argv = [sys.executable, "-m", "gradridge"] + cli_args
        err = out + ".err"
        code, wall, cpu, rss = spawn(argv, err)
        run = {"wall": wall, "cpu": cpu, "rss": rss, "traced": traced, "ok": False, "out": out}
        kind = "traced run" if traced else "run"
        if code != 0:
            self.problems.append(f"{kind} exited {code}: {_tail(err)}")
            return run
        found = self.workload.check(out, self.resolved)
        digest = checks.artifact_digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            found.append(f"artifact digest {digest[:16]} differs from {self.digest[:16]}")
        self.problems.extend(f"{kind}: {p}" for p in found)
        run["ok"] = not found
        if traced:
            with open(spans_path, "r", encoding="utf-8") as fh:
                spans = json.load(fh)
            run["layers"] = tracer.layer_metrics(
                spans, wall, n_ranks(out), checks.artifact_bytes(out))
            run["workers"] = tracer.worker_busy(spans)
        return run


def spread(values):
    if not values:
        return None
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def measure(bench, seconds, trace):
    """Setup probes, then CLI runs for ``seconds``: untraced only, or
    untraced and traced alternating. A run starts only if one more run of
    the average length still ends inside the budget, once each kind has one."""
    setups = [bench.setup() for _ in range(SETUP_RUNS)]
    runs = []
    start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(bench.cli(traced))
        elapsed = time.perf_counter() - start
        have_all = any(not r["traced"] for r in runs) and (
            not trace or any(r["traced"] for r in runs))
        if have_all and elapsed * (len(runs) + 1) / len(runs) > seconds:
            return setups, runs


def summarize(bench, setups, runs, trace, host):
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    attempted = len(setups) + len(runs)
    failed = sum(not r["ok"] for r in setups + runs)
    plain_wall = statistics.median(r["wall"] for r in plain)
    if trace:
        layered = [r["layers"] for r in traced if "layers" in r]
        keys = layered[0] if layered else {}
        metrics = {k: statistics.median(layers[k] for layers in layered) for k in keys}
        metrics["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - plain_wall
    else:
        metrics = {
            "wall_s": plain_wall,
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "setup_s": statistics.median(s["wall"] for s in setups),
            "peak_rss_mb": statistics.median(r["rss"] for r in plain),
        }
    detail = {
        "workload": bench.name,
        "seed": bench.seed,
        "trace": int(trace),
        "digest": bench.digest,
        "error_rate": failed / attempted,
        "wall_s": spread([r["wall"] for r in plain]),
        "cpu_s": spread([r["cpu"] for r in plain]),
        "peak_rss_mb": spread([r["rss"] for r in plain]),
        "setup_s": spread([s["wall"] for s in setups]),
        "traced_wall_s": spread([r["wall"] for r in traced]),
        "pool_busy_per_worker_s": traced[0]["workers"] if traced else None,
        "problems": bench.problems[:20],
        "host": host,
    }
    if trace:
        selfs = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        detail["largest_self_layer"] = max(selfs, key=selfs.get).split(".")[0]
    return detail, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "gradridge", "__init__.py")):
        print(f"benchmark: no gradridge sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        host = host_stamp(work)
        bench = Bench(args.workload, args.seed, work)
        setups, runs = measure(bench, args.seconds, bool(args.trace))
        detail, result = summarize(bench, setups, runs, bool(args.trace), host)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return {"peak_rss_mb": "MB", "experiments.artifact_bytes": "bytes",
            "ridge.pool_eff": "ratio", "linalg.cholesky_failed": "ratio"}.get(name, "count")


if __name__ == "__main__":
    sys.exit(main())
