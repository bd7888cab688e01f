"""The benchmark tracer's bindings name attributes the library still has.

``bench/run.py --trace 1`` rebinds each ``(module, attribute)`` of
``bench/tracing.py``'s ``BINDINGS`` and ``HOT_BINDINGS`` on
``choquetrn.<module>``; a rename or a removed import in the library would
break the traced run, so it fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
BOUND = sorted(
    {(entry[0], entry[1]) for entry in tracing.BINDINGS}
    | {(entry[0], entry[1]) for entry in tracing.HOT_BINDINGS}
)


def test_bindings_are_found():
    assert ("sigma_finite", "choquet_value") in BOUND
    assert len(BOUND) >= 20


@pytest.mark.parametrize("module, attribute", BOUND, ids=lambda x: x)
def test_bound_attribute_exists(module, attribute):
    namespace = importlib.import_module(f"choquetrn.{module}")
    assert callable(getattr(namespace, attribute, None))
