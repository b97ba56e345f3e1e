"""Tests of the benchmark itself: its correctness checks, its tracer and its
result contract. They run the CLI, so they take a few minutes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracer

sys.path.insert(0, run.SRC)

from gradridge import (  # noqa: E402
    DiffusionModel,
    GaussianMeasure,
    SampleStream,
    SumOfSinesModel,
    estimate_h,
    measure,
    ridge,
)

SEEDS = (7, 11)  # the default seed and one other
BENCH_SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced CLI run per workload and seed: (name, seed) -> (bench, run)."""
    out = {}
    for name in run.WORKLOADS:
        for seed in SEEDS:
            bench = run.Bench(name, seed, str(tmp_path_factory.mktemp(f"{name}-{seed}")))
            out[name, seed] = bench, bench.cli(traced=False)
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_check_passes(runs, name, seed):
    bench, result = runs[name, seed]
    assert bench.problems == []
    assert result["ok"]


def _corrupt(runs, name, tmp_path, edit):
    """Copy the seed-7 artifacts of ``name``, apply ``edit`` to the rows of
    its CSV and return (out_dir, resolved config)."""
    bench, result = runs[name, SEEDS[0]]
    out = str(tmp_path / "out")
    shutil.copytree(result["out"], out)
    csv_name = "sobol.csv" if name.startswith("sobol") else "curve.csv"
    path = os.path.join(out, csv_name)
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[start].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[start + 1:]]
    edit(rows)
    body = [",".join(row[h] for h in header) for row in rows]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines[:start + 1] + body) + "\n")
    assert bench.workload.check(result["out"], bench.resolved) == []
    return out, bench.resolved


def test_curve_field_rejects_swapped_bound_columns(runs, tmp_path):
    def swap(rows):
        for row in rows:
            row["opt_bound"], row["kl_bound"] = row["kl_bound"], row["opt_bound"]

    out, cfg = _corrupt(runs, "curve-field-g12", tmp_path, swap)
    assert checks.check_curve_field(out, cfg)


def test_curve_pair_rejects_inflated_error(runs, tmp_path):
    def inflate(rows):
        row = rows[-1]  # r=32, M=4
        row["mse"] = repr(2.0 * float(row["opt_bound"]) ** 2 + 10.0 * float(row["mse_se"]))

    out, cfg = _corrupt(runs, "curve-pair-g12", tmp_path, inflate)
    assert checks.check_curve_pair(out, cfg)


@pytest.mark.parametrize("group", [0, 15])
def test_sobol_rejects_s_hat_shifted_by_ten_se(runs, tmp_path, group):
    def shift(rows):
        row = rows[group]
        row["s_hat"] = repr(float(row["s_hat"]) + 10.0 * float(row["s_se"]))

    out, cfg = _corrupt(runs, "sobol-sines-d16", tmp_path, shift)
    assert checks.check_sobol_sines(out, cfg)


def _model_outputs(model, mu, threads):
    xs = np.stack([SampleStream(3, k).standard_normal(model.input_dim) for k in range(4)])
    h = estimate_h(model, mu, SampleStream(5), 600, threads=threads).h.entries
    return [model.eval(xs[0]), model.jacobian(xs[0]),
            model.eval_batch(xs), model.jacobian_batch(xs), h]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["pde", "sines"])
def test_wrappers_leave_model_results_unchanged(kind, threads):
    if kind == "pde":
        model = DiffusionModel(4, scenario="point_pair")
        per_sample, batch = "pde.DiffusionModel.jacobian", "models.VectorValuedModel.jacobian_batch"
    else:
        model = SumOfSinesModel(np.linspace(1.0, 0.1, 6), np.linspace(0.5, 2.0, 6))
        per_sample, batch = "models.SumOfSinesModel.jacobian", "models.SumOfSinesModel.jacobian_batch"
    mu = GaussianMeasure.standard(model.input_dim)
    original_sample = measure.sample
    before = _model_outputs(model, mu, threads)
    t = tracer.Tracer().install()
    try:
        assert ridge.sample is measure.sample is not original_sample
        start = len(t.spans)
        h = estimate_h(model, mu, SampleStream(5), 600, threads=threads)
        window = t.spans[start:]
        after = _model_outputs(model, mu, threads)
    finally:
        t.uninstall()
    assert ridge.sample is measure.sample is original_sample
    for b, a in zip(before, after):
        np.testing.assert_array_equal(b, a)
    np.testing.assert_array_equal(h.h.entries, before[-1])
    # estimate_h keeps its dispatch: the batch Jacobian for the analytic
    # model, one adjoint Jacobian per sample for the PDE.
    names = [s[tracer.NAME] for s in window]
    if kind == "pde":
        assert names.count(per_sample) == 600 and batch not in names
    else:
        assert names.count(batch) == 2 and per_sample not in names
    pooled = [s for s in window if s[tracer.NAME] == "ridge.chunk" and s[tracer.AMOUNT]]
    assert len(pooled) == (2 if threads == 2 else 0)


def test_self_time_and_pool_accounting():
    # cli [0, 10] > estimate_h [1, 9] > pool [2, 8] > two pooled chunks
    # [2, 8] on two workers, each with a 4 s jacobian inside.
    spans = [
        [0, "experiments.cli", 1, 0.0, 10.0, -1, 0, 0],
        [1, "ridge.estimate_h", 1, 1.0, 9.0, 0, 0, 0],
        [2, "ridge.pool", 1, 2.0, 8.0, 1, 2, 0],
        [3, "ridge.chunk", 2, 2.0, 8.0, 2, 1, 0],
        [4, "ridge.chunk", 3, 2.0, 8.0, 2, 1, 0],
        [5, "pde.DiffusionModel.jacobian", 2, 3.0, 7.0, 3, 0, 0],
        [6, "pde.DiffusionModel.jacobian", 3, 3.0, 7.0, 4, 0, 0],
    ]
    m = tracer.layer_metrics(spans, wall_s=11.0, n_ranks=0, artifact_bytes=0)
    assert m["pde.jacobian_s"] == 8.0 and m["pde.jacobians"] == 2
    assert m["ridge.estimate_h_self_s"] == 2.0 + 2.0 + 2.0  # own, plus each chunk
    assert m["ridge.pool_busy_s"] == 12.0 and m["ridge.pool_eff"] == 1.0
    assert m["experiments.runner_self_s"] == 2.0
    assert m["trace.unattributed_s"] == 1.0  # 11 s wall, 10 s covered by spans


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    with open(BENCH_SPEC, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _run_bench(run.ROOT, "--workload", "sobol-sines-d16", "--seed", "11",
                      "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert detail["error_rate"] == 0.0 and len(detail["digest"]) == 64
    assert detail["host"]["cores"] >= 1 and "max_threads" in detail["host"]["blas"]
    if trace:
        assert detail["largest_self_layer"] == "measure"


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_SPEC, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(str(tmp_path), "--workload", "curve-field-g12", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
