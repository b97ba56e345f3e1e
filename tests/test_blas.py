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
