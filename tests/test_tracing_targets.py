"""Every function the benchmark's traced run wraps must exist.

``perfbench/tracing.py`` looks its targets up by name when it installs
its wrappers, so a renamed or deleted target would only show up as a
``KeyError`` in a ``--trace 1`` run.  This test repeats that lookup.
"""

import importlib
import importlib.util
from pathlib import Path

from affinetrees import harness
from affinetrees.trimat import TriMat

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    tracing = load_tracing()
    for metric, targets in tracing.SPANS.items():
        for module_name, dotted in targets:
            mod = importlib.import_module(f"affinetrees.{module_name}")
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            assert callable(vars(owner)[attr]), (metric, module_name, dotted)


def test_suite_bodies_and_constructor_resolve():
    tracing = load_tracing()
    for suite in tracing.SUITES:
        assert callable(harness._SUITE_BODIES[suite]), suite
    assert callable(vars(TriMat)["__init__"])
