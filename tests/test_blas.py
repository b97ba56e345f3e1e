"""The CLI runs on one BLAS thread and hands the caller's setting back."""

import json
import os
import subprocess
import sys

import pytest

import gradridge
from gradridge import _blas, cli
from gradridge.errors import ConfigError, SolverFailure


def _write_cfg(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _cli_env(openblas_threads):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradridge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


def test_curve_artifacts_ignore_the_openblas_thread_setting(tmp_path):
    # on 2 cores, library calls give this curve different last digits with
    # 1 and 2 OpenBLAS threads at seed 7; the CLI must not
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "pde", "grid": 10, "scenario": "full_field"},
        "ranks": "all", "comparisons": {"kl": True}, "sampling": {"k": 16, "m": []},
    })
    artifacts = []
    for setting in (None, "1", "2"):
        out = tmp_path / f"out-{setting}"
        proc = subprocess.run(
            [sys.executable, "-m", "gradridge", "curve", "--config", str(cfg),
             "--out", str(out), "--seed", "7"],
            env=_cli_env(setting), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "curve.csv" in artifacts[0]
    assert artifacts[1] == artifacts[0]
    assert artifacts[2] == artifacts[0]


# Reads every OpenBLAS copy's thread count inside the curve runner and after
# main returns; the pde model, imported inside the runner, loads scipy's copy.
_LATE_COPY = """
import json, sys
from gradridge import _blas, cli

def counts():
    return {path: get() for path, (get, _) in _blas._copies().items()}

before, inside, curve = counts(), [], cli._RUNNERS["curve"]

def runner(cfg, out, threads):
    path = curve(cfg, out, threads=threads)
    inside.append(counts())
    return path

cli._RUNNERS["curve"] = runner
code = cli.main(["curve", "--config", sys.argv[1], "--out", sys.argv[2],
                 "--seed", "7", "--threads", "2"])
print(json.dumps({"code": code, "before": before, "inside": inside, "after": counts()}))
"""

# Each copy's thread count in a process that loads scipy.linalg unpinned.
_UNPINNED = """
import json
import scipy.linalg
from gradridge import _blas
print(json.dumps({path: get() for path, (get, _) in _blas._copies().items()}))
"""


def _run_script(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=_cli_env(None),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_pins_a_copy_that_loads_inside_the_run(tmp_path):
    # curve-pair-g12 of the benchmark: with OPENBLAS_NUM_THREADS unset,
    # scipy's copy loads on the default thread count inside the runner and
    # changed the seed-7 curve.csv when it was left there
    unpinned = _run_script(_UNPINNED)
    if len(unpinned) < 2:
        pytest.skip("scipy brings no OpenBLAS copy of its own here")
    if all(count == 1 for count in unpinned.values()):
        pytest.skip("every OpenBLAS copy starts on one thread here; a missed pin cannot show")
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "pde", "grid": 12, "scenario": "point_pair"},
        "ranks": [2, 8, 32], "comparisons": {"kl": False},
        "sampling": {"k": 1024, "m": [1, 4], "n_val": 256},
    })
    seen = _run_script(_LATE_COPY, cfg, tmp_path / "out")
    assert seen["code"] == 0
    late = set(seen["inside"][0]) - set(seen["before"])
    assert late, "no OpenBLAS copy loaded inside the run"
    assert seen["inside"] == [{path: 1 for path in seen["inside"][0]}]
    # back at what the caller's process gives each copy, the late one too
    assert seen["after"] == unpinned


# Counts the ctypes.CDLL calls on each OpenBLAS path over a pde curve run,
# which loads scipy's kernels one at a time inside the pin.
_OPENS = """
import ctypes, json, os, sys
from gradridge import _blas, cli

opened = {}
cdll = ctypes.CDLL

def counting(path, *args, **kwargs):
    if "openblas" in os.path.basename(str(path)):
        opened[path] = opened.get(path, 0) + 1
    return cdll(path, *args, **kwargs)

ctypes.CDLL = counting
code = cli.main(["curve", "--config", sys.argv[1], "--out", sys.argv[2]])
ctypes.CDLL = cdll
print(json.dumps({"code": code, "opened": opened, "mapped": _blas._paths()}))
"""


def test_a_pde_run_opens_each_openblas_copy_once(tmp_path):
    # pin_new_copies runs after each kernel load; it opens only a copy the
    # pin has not seen, where it used to open every mapped copy each time
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "pde", "grid": 3, "scenario": "point_pair"},
        "sampling": {"k": 20, "m": [1], "n_val": 20},
    })
    seen = _run_script(_OPENS, cfg, tmp_path / "out")
    assert seen["code"] == 0
    if not seen["mapped"]:
        pytest.skip("no OpenBLAS copy is mapped here")
    assert seen["opened"] == {path: 1 for path in seen["mapped"]}


# Counts the reads of the mapped OpenBLAS paths over a pde curve run.
_MAPS_READS = """
import json, sys
from gradridge import _blas, cli

reads = []
paths = _blas._paths

def counting():
    reads.append(1)
    return paths()

_blas._paths = counting
code = cli.main(["curve", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "reads": len(reads)}))
"""


def test_a_pde_run_reads_the_mapped_paths_once_per_extension_module(tmp_path):
    # once as the pin starts, then once after each of the two extension
    # modules that hold the run's kernels loads; it used to be once after
    # each of the six kernels was bound
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "pde", "grid": 3, "scenario": "point_pair"},
        "sampling": {"k": 20, "m": [1], "n_val": 20},
    })
    seen = _run_script(_MAPS_READS, cfg, tmp_path / "out")
    assert seen == {"code": 0, "reads": 3}


@pytest.fixture
def controls():
    """Every OpenBLAS copy set to two threads, as a caller might leave it."""
    found = list(_blas._copies().values())
    if not found:
        pytest.skip("no OpenBLAS copy with scipy_openblas thread controls is loaded")
    before = [get() for get, _ in found]
    for _, put in found:
        put(2)
    yield found
    for (_, put), count in zip(found, before):
        put(count)


def _counts(found):
    return [get() for get, _ in found]


def _recording_runner(found, seen, outcome):
    def runner(cfg, out, threads):
        seen.append(_counts(found))
        if outcome is not None:
            raise outcome
        return out
    return runner


@pytest.mark.parametrize("outcome, code", [
    (None, 0),
    (ConfigError("bad"), 2),
    (SolverFailure(float("inf")), 3),
])
def test_cli_pins_one_thread_and_restores_the_caller_count(
        tmp_path, monkeypatch, controls, outcome, code):
    seen = []
    monkeypatch.setitem(cli._RUNNERS, "curve", _recording_runner(controls, seen, outcome))
    cfg = _write_cfg(tmp_path, {"model": {"kind": "linear", "matrix": [[1.0, 1.0]]}})
    caller = _counts(controls)
    assert cli.main(["curve", "--config", str(cfg), "--out", str(tmp_path)]) == code
    assert seen == [[1] * len(controls)]
    assert _counts(controls) == caller


def test_cli_config_error_restores_the_caller_count(tmp_path, controls):
    caller = _counts(controls)
    assert cli.main(["curve", "--config", str(tmp_path / "missing.json")]) == 2
    assert _counts(controls) == caller


@pytest.mark.parametrize("maps", ["missing", "no-openblas"])
def test_pin_is_a_no_op_when_no_openblas_is_found(tmp_path, monkeypatch, controls, maps):
    path = tmp_path / "maps"
    if maps == "no-openblas":
        with open(_blas.MAPS, "r", encoding="utf-8") as fh:
            path.write_text("".join(line for line in fh if "openblas" not in line))
    monkeypatch.setattr(_blas, "MAPS", str(path))
    seen = []
    monkeypatch.setitem(cli._RUNNERS, "curve", _recording_runner(controls, seen, None))
    cfg = _write_cfg(tmp_path, {"model": {"kind": "linear", "matrix": [[1.0, 1.0]]}})
    caller = _counts(controls)
    assert cli.main(["curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert seen == [caller]
    assert _counts(controls) == caller


# Runs the process entry as `python -m gradridge` does, then reads the
# process's OS thread count and the OpenBLAS setting the entry left.
_ENTRY = """
import json, os, runpy, sys
sys.argv = ["gradridge", *sys.argv[1:]]
try:
    runpy.run_module("gradridge", run_name="__main__")
except SystemExit as exc:
    code = exc.code
with open("/proc/self/status", "r", encoding="utf-8") as fh:
    threads = int(next(line.split()[1] for line in fh if line.startswith("Threads:")))
print(json.dumps({"code": code, "threads": threads,
                  "setting": os.environ["OPENBLAS_NUM_THREADS"]}))
"""


def test_process_entry_loads_openblas_on_one_thread(tmp_path):
    # the entry sets OPENBLAS_NUM_THREADS=1 before numpy and scipy load, over
    # the caller's 4, so neither copy starts a worker thread
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to count threads")
    cfg = _write_cfg(tmp_path, {
        "model": {"kind": "pde", "grid": 4, "scenario": "point_pair"},
        "ranks": [2], "sampling": {"k": 20, "m": [2], "n_val": 50},
    })
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, "curve", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--threads", "1"],
        env=_cli_env("4"), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "threads": 1, "setting": "1"}
