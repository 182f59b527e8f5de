"""The benchmark calls admira from outside the library: the traced run wraps
names listed in ``perfbench/layers.py``, and ``perfbench/workloads.py``
builds solver configs and reads their fields. A refactor that removes or
renames one of them breaks the benchmark. These tests load both files
unchanged and check that every name they wrap exists where they look for it
and that one small solve workload runs and passes its own checks."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name, path):
    """Execute ``path`` as module ``name``, registered in sys.modules for
    the test's duration (dataclasses look their module up while it runs)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class CheckingTracer:
    """Stands in for the benchmark tracer: records instead of wrapping."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, note=None):
        assert attr in vars(owner), f"{name}: {owner.__name__} has no {attr!r}"
        self.wrapped.append(name)


def test_every_traced_boundary_exists(monkeypatch):
    layers = load(monkeypatch, "perfbench_layers", PERFBENCH / "layers.py")
    tracer = CheckingTracer()
    layers.install(tracer)
    assert "harness.run_trial" in tracer.wrapped
    assert "solver.admira_solve" in tracer.wrapped


def test_solve_workload_passes_its_checks(monkeypatch):
    # workloads.py imports its sibling spec.py by bare name
    spec = load(monkeypatch, "spec", PERFBENCH / "spec.py")
    workloads = load(monkeypatch, "perfbench_workloads", PERFBENCH / "workloads.py")
    # 30x30 with p=700: the admira+svt task at a size that runs in a second
    workload = workloads.make(spec.SMOKE["complete-200"])
    out = workload.task(workload.setup(seed=0))
    failed, messages = workload.check(out)
    assert [s.algorithm for s in out.solves] == ["admira", "svt"]
    assert failed == 0, messages
