"""The README's Python blocks run as printed."""

import os
import re

import numpy as np
import pytest

from gradridge import DimensionMismatch, GaussianMeasure, SampleStream, estimate_h

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.M | re.S)


def test_library_tour_runs(capsys):
    namespace = {}
    exec(_python_blocks()[0], namespace)
    assert np.isfinite(namespace["mse"]) and namespace["se"] > 0.0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "estimated squared-error bound", "validated squared error"]


def test_cubic_model_matches_its_closed_form_h():
    # x ~ N(0, I_3) and J = 3 x^2 as a row: H_ii = 9 E[x^4] = 27 and
    # H_ij = 9 E[x_i^2] E[x_j^2] = 9, with per-sample standard deviations
    # sqrt(81 * 96) = 88.2 (9 x^4) and sqrt(81 * 8) = 25.5 (9 x_i^2 x_j^2)
    namespace = {}
    exec(_python_blocks()[1], namespace)
    k = 20_000
    h = estimate_h(namespace["Cubic"](3), GaussianMeasure.standard(3), SampleStream(29), k)
    diag = np.eye(3, dtype=bool)
    want = np.where(diag, 27.0, 9.0)
    sd = np.where(diag, np.sqrt(7776.0), np.sqrt(648.0))
    assert np.all(np.abs(h.h.entries - want) <= 5.0 * sd / np.sqrt(k))
    with pytest.raises(DimensionMismatch, match="model takes 3$"):
        namespace["Cubic"](3).eval_batch(np.zeros((2, 2)))
