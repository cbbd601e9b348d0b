"""The benchmark's tracer must find every binding it wraps.

perfbench/tracer.py wraps cusplab's public functions and methods by name at
every module binding that holds them.  Importing it by path and installing
it here makes a deleted or renamed binding fail this unit test, not only a
benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# one per (owner, attribute) the tracer patches on this tree; a binding that
# a caller stops importing would otherwise drop its spans without an error
BINDINGS = 62


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert len(patched) == BINDINGS
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
