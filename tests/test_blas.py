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


@pytest.fixture
def controls():
    """Every OpenBLAS copy set to two threads, as a caller might leave it."""
    found = _blas._thread_controls()
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
