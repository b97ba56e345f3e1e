"""The package namespace: each public name and submodule resolves on first read."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import gradridge

_SUBMODULES = ("cli", "errors", "experiments", "linalg", "measure", "models", "pde",
               "projector", "ridge", "sensitivity")


@pytest.mark.parametrize("name", gradridge.__all__)
def test_each_public_name_is_the_object_its_module_defines(name):
    obj = getattr(gradridge, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("gradridge.")
    assert getattr(home, name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gradridge import *", namespace)
    assert {name: namespace.get(name) for name in gradridge.__all__} == {
        name: getattr(gradridge, name) for name in gradridge.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gradridge.no_such_name
    assert not hasattr(gradridge, "numpy")


# Each submodule read as an attribute of a package imported bare, in a process
# that has imported nothing else of gradridge.
_SUBMODULE_ATTRIBUTES = """
import json, sys
import gradridge
print(json.dumps({n: getattr(gradridge, n).__name__ for n in sys.argv[1:]}))
"""


def test_submodules_resolve_after_a_bare_import():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradridge.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _SUBMODULE_ATTRIBUTES, *_SUBMODULES],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {n: f"gradridge.{n}" for n in _SUBMODULES}
    assert set(_SUBMODULES) <= set(dir(gradridge))
