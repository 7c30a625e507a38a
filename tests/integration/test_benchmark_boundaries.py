"""Every layer boundary of the traced benchmark resolves.

A traced benchmark run wraps each ``repro`` function and method that
``perfbench/layers.py`` lists, looking it up with
``perfbench/spans.py``; a renamed or deleted target makes that lookup
raise and crashes every traced run.  This keeps the list and the
package in step without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
spans = _load("spans")

TARGETS = sorted({target
                  for boundaries in (layers.FLOW_BOUNDARIES,
                                     layers.SERVE_BOUNDARIES,
                                     layers.CLIENT_BOUNDARIES)
                  for _span, target, _observe in boundaries})


def test_every_boundary_is_a_package_target():
    assert TARGETS
    assert all(t.startswith("repro.") for t in TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_boundary_resolves(target):
    _owner, _attr, original = spans._resolve(target)
    assert callable(original)
