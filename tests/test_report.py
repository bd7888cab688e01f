"""The report renderers against the former ``jsonable`` renderers.

``render_json`` and ``render_text`` walk a report once through one table of
conversion rules; ``tests/support.py`` keeps the former renderers (a full
converted copy, then ``json.dumps`` or the flat text walk) as the oracle.
Random report trees and every report of a small pass of each benchmark
workload must render byte for byte as the oracle renders them.
"""

import contextlib
import dataclasses
import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from choquetrn import INF, ExtReal, SimpleFunction, build_space, cli
from choquetrn.choquet import IntegralBreakdown
from choquetrn.decomposition import DecompositionReport, PairRecord, RnReport
from choquetrn.report import render_json, render_text
from choquetrn.results import Verdict, Witness
from choquetrn.sigma_finite import SigmaFiniteRecord
from choquetrn.solver import ChainRecord
from choquetrn.spaces import MeasurableSet

from support import json_report_oracle, text_report_oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"

NAMES = ["a", "b", "x0", "é", 'q"', "back\\slash", "tab\t", "☃", "1", "-2"]
SPACES = [
    build_space(["a", "b", "x0"]),
    build_space(["é", 'q"', "back\\slash", "☃"]),
    build_space(["a", "b", "c", "d", "e"], [["a", "c"], ["b"], ["d", "e"]]),
]
DATACLASSES = [Witness, Verdict, PairRecord, IntegralBreakdown,
               DecompositionReport, RnReport, SigmaFiniteRecord, ChainRecord]


@dataclasses.dataclass
class NoFields:
    """A dataclass with no field; with ``OneField``, the cases whose field
    getter is not an ``attrgetter`` of several names."""


@dataclasses.dataclass
class OneField:
    only: object


class Opaque:
    """A type the renderers know nothing of: printed as ``str(obj)``."""

    def __str__(self):
        return 'opaque "object"'


_strings = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x7f/')),
    max_size=8,
)
_extreals = st.one_of(
    st.just(INF),
    st.fractions(min_value=0, max_denominator=50).map(ExtReal),
)
_sets = st.sampled_from(SPACES).flatmap(
    lambda space: st.integers(0, space.n_subsets() - 1).map(
        lambda k: list(space.subsets())[k]))
_functions = st.sampled_from(SPACES).flatmap(
    lambda space: st.lists(_extreals, min_size=space.n_blocks,
                           max_size=space.n_blocks).map(
        lambda values: SimpleFunction(space, tuple(values))))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(4300, 4400).map(lambda d: 10 ** d - 1),  # past the digit limit
    st.integers(4300, 4400).map(lambda d: -(10 ** d)),
    _strings,
    _extreals,
    st.fractions(max_denominator=10 ** 6),
    _sets,
    _functions,
    st.sampled_from(SPACES),
    st.just(Opaque()),
)
# int keys, atom-name keys and keys that collide after str(): 1, "1", 1/1
_keys = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(NAMES),
    st.sampled_from([Fraction(1, 2), "1/2", ExtReal(1), INF, "inf"]),
    _strings,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.tuples(_keys, children), max_size=4).map(dict),
        st.sampled_from(DATACLASSES).flatmap(lambda cls: st.builds(
            cls, **{f.name: children for f in dataclasses.fields(cls)})),
    )


_trees = st.recursive(_leaves, _containers, max_leaves=25)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree=_trees)
def test_random_trees_render_as_the_oracle(tree):
    limit = sys.get_int_max_str_digits()
    assert render_json(tree) == json_report_oracle(tree)
    assert render_text(tree) == text_report_oracle(tree)
    assert sys.get_int_max_str_digits() == limit


# Each mask in every space, made twice: equal sets that are distinct objects,
# and one mask that names different atoms in different spaces.
_POOL = [MeasurableSet(space, mask) for space in SPACES
         for mask in (0, 0b101, space.full_mask) for _ in range(2)]


@st.composite
def _shared_trees(draw):
    """Trees that hold one set object at several places and depths, so at
    several indentations, next to equal sets that are other objects; and
    detail records, also at several depths, whose fields share that set, one
    Fraction object, one list object and infinity."""
    shared = draw(st.sampled_from(_POOL))
    fraction = draw(st.fractions(max_denominator=50))
    fields = st.sampled_from(
        [shared, fraction, [shared, fraction], INF, _POOL[0], 0, 3, True])
    records = st.builds(PairRecord, **{
        f.name: fields for f in dataclasses.fields(PairRecord)})
    leaves = st.one_of(st.just(shared), st.sampled_from(_POOL), _extreals,
                       records)
    tree = draw(st.recursive(leaves, _containers, max_leaves=15))
    record = draw(records)
    return {"tree": tree, "shared": shared, "nested": [shared, {"again": (shared,)}],
            "records": [record, [record, {"again": record}]]}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tree=_shared_trees())
def test_shared_sets_render_as_the_oracle(tree):
    assert render_json(tree) == json_report_oracle(tree)
    assert render_text(tree) == text_report_oracle(tree)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(tree=_trees, path=st.lists(st.integers(0, 3), max_size=3))
def test_floats_raise_wherever_they_sit(tree, path):
    # put 0.5 into the tree: as a value, a list item or a dataclass field
    holder = {"tree": tree, "float": 0.5}
    for step in path:
        holder = [holder] if step == 0 else (
            {"k": holder} if step == 1 else (
                Witness("w", sets=(holder,)) if step == 2 else (holder,)))
    for render in (render_json, render_text, json_report_oracle, text_report_oracle):
        with pytest.raises(TypeError, match="floats must never appear"):
            render(holder)


def test_edge_cases():
    collide = {"1": "str", 1: "int", Fraction(1, 2): "half", "1/2": "str half"}
    tree = {
        "empty": [{}, [], (), {"": []}],
        "collide": collide,
        "ascii": "é☃\x00\"\\",
        "set": SPACES[2].full_set,
        "space": SPACES[1],
        "verdict": Verdict(holds=False, witness=Witness("kind")),
        "class": Witness,
        "fields": [NoFields(), OneField(NoFields()), OneField([OneField(1)])],
    }
    for render, oracle in ((render_json, json_report_oracle),
                           (render_text, text_report_oracle)):
        assert render(tree) == oracle(tree)
        assert render({}) == oracle({})
    assert '"1": "int"' in render_json(tree)
    assert '"1/2": "str half"' in render_json(tree)


def _load_workloads():
    """``bench/workloads.py``, which imports its ``oracle`` by plain name and
    whose dataclasses look their module up in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("oracle", None)
        sys.modules.pop(spec.name, None)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_bench_reports_render_as_the_oracle(workload, tmp_path, monkeypatch):
    """Every report of a small pass of the workload, in both formats."""
    spec = workloads.WORKLOADS[workload]
    requests, _ = spec.build(1, str(tmp_path), **spec.warmup)
    rendered = []

    def checked(render, oracle):
        def run(report):
            text = render(report)
            assert text == oracle(report)
            rendered.append(text)
            return text
        return run

    monkeypatch.setattr(cli, "render_json", checked(render_json, json_report_oracle))
    monkeypatch.setattr(cli, "render_text", checked(render_text, text_report_oracle))
    for request in requests:
        for fmt in ("json", "text"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                status = cli.main(request.argv + ["--format", fmt])
            assert status == request.exit_status
            assert out.getvalue() == rendered[-1]
    assert len(rendered) == 2 * len(requests)
