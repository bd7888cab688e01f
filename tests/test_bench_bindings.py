"""The benchmark tracer's bindings name attributes the library still has.

``bench/run.py --trace 1`` rebinds each ``(module, attribute)`` of
``bench/tracing.py``'s ``BINDINGS`` and ``HOT_BINDINGS`` on
``choquetrn.<module>``; a rename or a removed import in the library would
break the traced run, so it fails here first.  A CLI handler that reached a
library function other than through ``choquetrn.cli``'s attribute would
leave the traced counts silently short, so each of those is called here
through a rebound attribute.
"""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from choquetrn import cli

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


# one problem file that every command below can read
PROBLEM = {
    "atoms": ["a", "b"],
    "measures": {"mu": {"rule": "additive", "weights": {"a": "1", "b": "1"}},
                 "nu": {"rule": "additive", "weights": {"a": "1/2", "b": "1/3"}}},
    "functions": {"f": {"a": "2", "b": "3"}},
    "family": [{"alpha": "0", "set": ["a", "b"]}, {"alpha": "2", "set": ["b"]},
               {"alpha": "3", "set": []}],
    "truncations": {"N_max": 2, "measures": {"mu": {"rule": "max_element"},
                                             "nu": {"rule": "indicator_nonempty"}}},
}

# the command of one request that reaches each attribute of cli
REACHED_BY = {
    "load_problem": "props",
    "problem_to_dict": "props",
    "is_weakly_null_additive": "props",
    "is_null_additive": "props",
    "has_property_sigma": "props",
    "abs_continuous": "props",
    "strongly_abs_continuous": "props",
    "render_json": "props",
    "check_decomposition": "check-decomposition",
    "lemma_tail_check": "check-decomposition",
    "verify_rn": "verify",
    "dyadic_approximant": "dyadic",
    "solve_rn": "solve",
    "glue_derivative": "sigma-finite",
    "verify_sigma_finite": "sigma-finite",
    "choquet_integral": "integrate",
}
CLI_BOUND = [attribute for module, attribute in BOUND if module == "cli"]


def test_every_cli_binding_has_a_request():
    assert sorted(REACHED_BY) == sorted(CLI_BOUND)


@pytest.mark.parametrize("attribute", CLI_BOUND)
def test_cli_calls_the_rebound_attribute(monkeypatch, tmp_path, attribute):
    calls = []
    original = getattr(cli, attribute)

    def counting(*args, **kwargs):
        calls.append(attribute)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, attribute, counting)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([REACHED_BY[attribute], "--input", str(path)])
    assert status == cli.EXIT_PASS
    assert calls, f"{REACHED_BY[attribute]} did not call cli.{attribute}"
