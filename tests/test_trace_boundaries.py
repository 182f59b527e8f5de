"""The traced benchmark wraps admira names from outside the library
(``perfbench/layers.py``); a refactor that removes or renames one of them
breaks the traced run. This test loads that file unchanged and checks that
every name it wraps still exists where it looks for it."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


class CheckingTracer:
    """Stands in for the benchmark tracer: records instead of wrapping."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, note=None):
        assert attr in vars(owner), f"{name}: {owner.__name__} has no {attr!r}"
        self.wrapped.append(name)


def test_every_traced_boundary_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = CheckingTracer()
    layers.install(tracer)
    assert "harness.run_trial" in tracer.wrapped
    assert "solver.admira_solve" in tracer.wrapped
