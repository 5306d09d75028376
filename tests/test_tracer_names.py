"""The benchmark's tracer finds every name it patches in the package.

``perfbench/tracing.py`` wraps package functions and methods at the names
their callers look up, ``ksubmax.solvers.marginal_gain`` among them.  A
name deleted from the package raises a KeyError in every traced benchmark
run; this test sees it first.  The tracer is loaded from its file, as the
benchmark runs it, and every patch it makes is undone before the test
ends.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_removes_every_patch():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.remove()
    assert restored
