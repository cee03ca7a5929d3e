"""The benchmark harness in perfbench/ at toy size, so it cannot rot unnoticed.

Every (module, name) target the tracer wraps must resolve, so deleting
or renaming a traced public name fails here; and one toy pass of each
workload must pass its own checks (golden digests, certified
rejections, checked isomorphisms).  perfbench/ is imported, not changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TARGETS = [(module, name) for targets, _, _ in tracer.LAYERS.values()
           for module, name in targets]


@pytest.mark.parametrize("module,name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(module)
    for part in name.split("."):   # "Digraph.to_dgr" names a method
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_pass_passes_its_checks(workload):
    ops = workloads.make(workload, 1, run.load_golden(), toy=True)
    assert ops
    failures = [f"{op.name}: {reason}" for op in ops if (reason := op.check(op.call()))]
    assert not failures
