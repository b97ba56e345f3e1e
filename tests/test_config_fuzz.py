"""Property-based tests of the config resolver and the CLI over arbitrary configs.

Whatever the config holds, ``resolve_config`` must raise ConfigError or
return a finite config that resolves to itself, and ``main()`` must end with
exit 0 (success), 2 (bad config) or 3 (numerical failure) and at most one
line on stderr, never with an escaping exception or a traceback. Configs are
drawn well formed and then have a few entries corrupted. Every size the
strategy can draw is small (d <= 8, grid <= 4, counts <= 16, one or two
threads), so a run costs milliseconds; the corrupted values may be malformed,
negative, empty, non-finite or under unknown keys.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gradridge.cli import main  # noqa: E402
from gradridge.errors import ConfigError  # noqa: E402
from gradridge.experiments import resolve_config  # noqa: E402

MAX_DIM = 8
MAX_GRID = 4
MAX_COUNT = 16

# mostly moderate entries; now and then a huge, tiny, infinite or NaN one
reals = st.one_of(*[st.floats(-3.0, 3.0)] * 7, st.floats())
counts = st.integers(1, MAX_COUNT)
# built fresh per draw, since a corruption below may write into a drawn dict
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.builds(list), st.builds(dict),
    st.integers(-2, 0), st.floats(), st.lists(st.floats(-4.0, 4.0), max_size=3),
)


def _matrix(draw, rows, cols):
    return draw(st.lists(st.lists(reals, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def models(draw):
    """A well-formed model section and its input dimension."""
    kind = draw(st.sampled_from(["linear", "quadratic", "sines", "pde"]))
    if kind == "pde":
        grid = draw(st.integers(2, MAX_GRID))
        spec = {"kind": kind, "grid": grid,
                "scenario": draw(st.sampled_from(["full_field", "subdomain", "point_pair"]))}
        return spec, grid * grid
    d = draw(st.integers(1, MAX_DIM))
    if kind == "sines":
        return {"kind": kind, "amplitudes": _matrix(draw, 1, d)[0],
                "frequencies": _matrix(draw, 1, d)[0]}, d
    if draw(st.booleans()):
        seed = draw(st.integers(0, 5))
        if kind == "linear":
            return {"kind": kind, "random": {"rows": draw(st.integers(1, 3)), "cols": d,
                                             "seed": seed}}, d
        return {"kind": kind, "random": {"dim": d, "seed": seed}}, d
    rows = draw(st.integers(1, 3)) if kind == "linear" else d
    return {"kind": kind, "matrix": _matrix(draw, rows, d)}, d


@st.composite
def configs(draw):
    """A config that is well formed up to a few corrupted or unknown entries."""
    model, d = draw(models())
    cfg = {
        "model": model,
        "sampling": dict({key: draw(counts) for key in ("k", "k_ref", "sobol_inner", "dgsm_k")},
                         n_val=draw(st.integers(2, MAX_COUNT)),
                         sobol_outer=draw(st.integers(2, MAX_COUNT)),
                         m=draw(st.lists(counts, max_size=3)),
                         k_ladder=draw(st.lists(counts, min_size=1, max_size=3)),
                         seed=draw(st.integers(0, 1000))),
        "ranks": draw(st.one_of(st.just("all"),
                                st.lists(st.integers(1, d), min_size=1, max_size=4))),
        "groups": draw(st.one_of(st.just("singletons"), st.lists(
            st.lists(st.integers(1, d), max_size=3), min_size=1, max_size=3))),
        "comparisons": {"kl": draw(st.booleans())},
    }
    cov = draw(st.sampled_from(["identity", "diagonal", "matrix", "squared_exponential"]))
    if cov == "diagonal":
        cfg["measure"] = {"covariance": {"kind": cov, "values": draw(
            st.lists(st.floats(0.1, 4.0), min_size=d, max_size=d))}}
    elif cov == "matrix":
        cfg["measure"] = {"covariance": _matrix(draw, d, d)}
    elif cov == "squared_exponential" and model["kind"] == "pde":
        cfg["measure"] = {"covariance": {"kind": cov, "lengthscale": draw(st.floats(0.05, 1.0))}}
    # Corrupt a few entries: set a key (known or not) anywhere in the tree to
    # a malformed, negative, empty, huge or non-finite value.
    for _ in range(draw(st.integers(0, 2))):
        node = cfg
        path = draw(st.sampled_from([
            (), ("model",), ("sampling",), ("measure",), ("comparisons",),
            ("measure", "covariance"), ("model", "random"),
        ]))
        for key in path:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            keys = sorted(node) + ["extra"]
            node[draw(st.sampled_from(keys))] = draw(st.one_of(
                junk, st.lists(st.integers(-1, MAX_DIM + 2), max_size=3),
                st.builds(lambda: [[1.0, 2.0], [2.0, 1.0]])))
    return cfg


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["curve", "audit", "spectrum", "sobol"]),
    config=configs(),
    threads=st.sampled_from([1, 2]),
    seed=st.one_of(st.none(), st.integers(-1, 100)),
)
def test_cli_never_crashes_on_any_config(command, config, threads, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [command, "--config", path, "--out", os.path.join(tmp, "out"),
                "--threads", str(threads)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1)


def _floats(tree):
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return [f for item in tree for f in _floats(item)]
    return [tree] if isinstance(tree, float) else []


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(config=configs())
def test_resolved_config_is_finite_and_resolves_to_itself(config):
    try:
        cfg = resolve_config(config)
    except ConfigError:
        return
    assert all(math.isfinite(f) for f in _floats(cfg))
    assert resolve_config(cfg) == cfg
