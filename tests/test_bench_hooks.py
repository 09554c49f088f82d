"""The names the benchmark patches from outside the package still resolve.

``perfbench/spans.py`` (``SPANS``) and ``perfbench/laps.py`` (``POINTS``)
wrap functions by module and attribute name, in the namespace where the
caller looks them up, and ``perfbench/workloads.py`` calls
``evaluate.oracle_ap``. Renaming or deleting any of these in ``src/`` breaks
the benchmark without failing a package test; these tests resolve every
entry the way the two ``install()`` methods do, and install nothing.
"""

import builtins
import importlib
import sys
from pathlib import Path

import pytest

from soundloc import evaluate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_modules():
    # laps imports spans by its bare name; leave no bytecode in perfbench/
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        spans = importlib.import_module("spans")
        laps = importlib.import_module("laps")
    yield spans, laps
    for name in ("spans", "laps"):
        sys.modules.pop(name, None)


def _owner(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_span_targets_resolve(bench_modules):
    spans, _ = bench_modules
    for module_name, attr, _ in spans.SPANS:
        owner, leaf = _owner(module_name, attr)
        assert callable(getattr(owner, leaf, None)), f"{module_name}.{attr}"


def test_lap_points_resolve(bench_modules):
    _, laps = bench_modules
    for module_name, attr in laps.POINTS:
        owner, leaf = _owner(module_name, attr)
        # a name missing from the module is a builtin the module calls
        fn = owner.__dict__.get(leaf, getattr(builtins, leaf, None))
        assert callable(fn), f"{module_name}.{attr}"


def test_workloads_oracle_exists():
    assert callable(evaluate.oracle_ap)
