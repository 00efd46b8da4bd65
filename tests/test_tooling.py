"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py wraps program functions by name; a renamed function
would leave its layer reading 0 without any error.  The module is loaded
read-only: loading it wraps nothing.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for layer, owner, attr, _kind in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner.__name__}.{attr} is gone"
