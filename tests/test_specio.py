"""The JSON problem-description format: parsing, diagnostics, round trips."""

import json
from fractions import Fraction

import pytest

from choquetrn import SpecFileError, load_problem, parse_problem, problem_to_dict
from choquetrn.cli import EXIT_INPUT, main
from choquetrn.specio import MAX_ATOMS


BASIC = {
    "atoms": ["a", "b"],
    "measures": {
        "nu": {"rule": "additive", "weights": {"a": "1/2", "b": "1/3"}},
        "mu": {"rule": "explicit", "table": [
            {"set": [], "value": "0"},
            {"set": ["a"], "value": "1"},
            {"set": ["b"], "value": "5/3"},
            {"set": ["a", "b"], "value": "8/3"},
        ]},
    },
    "functions": {"f": {"a": "2", "b": "5"}},
    "family": [
        {"alpha": "0", "set": ["a", "b"]},
        {"alpha": "2", "set": ["b"]},
        {"alpha": "5", "set": []},
    ],
}


def test_parse_basic():
    spec = parse_problem(BASIC)
    assert spec.space.atoms == ("a", "b")
    assert spec.measures["nu"](spec.space.full_set) == Fraction(5, 6)
    assert spec.functions["f"]("b") == 5
    assert spec.family.thresholds == (Fraction(0), Fraction(2), Fraction(5))


def test_round_trip_through_problem_to_dict():
    spec = parse_problem(BASIC)
    assert problem_to_dict(spec) == BASIC
    spec2 = parse_problem(problem_to_dict(spec))
    assert spec2.space == spec.space
    for name in spec.measures:
        assert spec2.measures[name] == spec.measures[name]
    assert spec2.functions["f"] == spec.functions["f"]
    assert spec2.family == spec.family


def test_zero_plus_round_trip():
    data = dict(BASIC)
    data["zero_plus"] = ["b"]
    spec = parse_problem(data)
    assert spec.family.zero_plus.atom_names() == ("b",)
    assert problem_to_dict(spec) == data
    spec2 = parse_problem(problem_to_dict(spec))
    assert spec2.family == spec.family


def test_partition_round_trip():
    data = {
        "atoms": ["a", "b", "c"],
        "partition": [["a", "c"], ["b"]],
        "measures": {"nu": {"rule": "cardinality"}},
    }
    spec = parse_problem(data)
    assert spec.space.n_blocks == 2
    assert problem_to_dict(spec) == data
    spec2 = parse_problem(problem_to_dict(spec))
    assert spec2.space == spec.space


def test_truncation_block():
    data = {
        "truncations": {
            "N_max": 4,
            "measures": {
                "mu": {"rule": "max_element"},
                "nu": {"rule": "indicator_nonempty"},
            },
        }
    }
    spec = parse_problem(data)
    assert spec.model.deepest.atoms == ("0", "1", "2", "3", "4")
    # the block is echoed as written, without the defaulted family
    assert problem_to_dict(spec) == data
    data["truncations"]["family"] = {"rule": "threshold_tail"}
    assert problem_to_dict(parse_problem(data))["truncations"]["family"] == {
        "rule": "threshold_tail"
    }


def _rules_block(**block):
    block["measures"] = {"mu": {"rule": "max_element"},
                         "nu": {"rule": "indicator_nonempty"}}
    return {"truncations": block}


def test_n_max_honours_given_depths():
    spec = parse_problem(_rules_block(N_max=3, depths=[2]))
    assert spec.model.atoms == ("0", "1", "2", "3")
    assert spec.model.depths == (2,)
    assert spec.model.deepest.atoms == ("0", "1")
    # without depths, U_n = {0, ..., n} for n = 1..N_max
    assert parse_problem(_rules_block(N_max=3)).model.depths == (2, 3, 4)


def test_atoms_with_n_max():
    spec = parse_problem(_rules_block(atoms=["0", "1", "2"], N_max=2))
    assert spec.model.depths == (1, 2, 3)
    for n_max, message in ((3, "N_max must be len(atoms) - 1 = 2; got 3"),
                           ("1", "N_max must be len(atoms) - 1 = 2; got '1'"),
                           ("abc", "invalid literal for int() with base 10: 'abc'")):
        with pytest.raises(SpecFileError) as err:
            parse_problem(_rules_block(atoms=["0", "1", "2"], N_max=n_max))
        assert err.value.location == "truncations"
        assert str(err.value) == f"truncations: {message}"


def test_error_locations():
    with pytest.raises(SpecFileError) as err:
        parse_problem({"atoms": ["a", "a"]})
    assert err.value.location == "atoms/partition"

    with pytest.raises(SpecFileError) as err:
        parse_problem({"atoms": ["a"], "measures": {"m": {"rule": "nope"}}})
    assert err.value.location == "measures.m"

    with pytest.raises(SpecFileError) as err:
        parse_problem({"atoms": ["a"], "functions": {"f": {}}})
    assert err.value.location == "functions.f"

    with pytest.raises(SpecFileError) as err:
        parse_problem({"atoms": ["a"], "family": [{"alpha": "1", "set": ["a"]}]})
    assert err.value.location == "family"

    with pytest.raises(SpecFileError) as err:
        parse_problem({"truncations": {"measures": {}}})
    assert err.value.location == "truncations"


@pytest.mark.parametrize("data, location", [
    ({"atoms": ["a"], "measures": {"m": {"rule": "additive", "weights": {"a": 0.5}}}},
     "measures.m"),
    ({"atoms": ["a"], "measures": {"m": {"rule": "cardinality", "scale": "1/0"}}},
     "measures.m"),
    ({"atoms": ["a"], "measures": ["m"]}, "measures"),
    ({"atoms": ["a"], "measures": {"m": "additive"}}, "measures.m"),
    ({"atoms": ["a"], "measures": {"m": {"rule": "max_weight", "weights": "a"}}},
     "measures.m"),
    ({"atoms": ["a"], "functions": {"f": 2}}, "functions.f"),
    ({"atoms": 3}, "atoms/partition"),
    ({"truncations": []}, "truncations"),
    ({"truncations": {"N_max": 0, "measures": {"mu": {"rule": "max_element"},
                                               "nu": {"rule": "max_element"}}}},
     "truncations"),
    ({"truncations": {"N_max": 2, "measures": {"mu": 1, "nu": {}}}},
     "truncations.measures.mu"),
    ({"atoms": ["a"], "family": [{"alpha": 0, "set": ["a"]},
                                 {"alpha": 0.5, "set": []}]},
     "family"),
    ({"truncations": {"N_max": 6.0, "measures": {"mu": {"rule": "max_element"},
                                                 "nu": {"rule": "max_element"}}}},
     "truncations"),
    ({"atoms": [str(k) for k in range(MAX_ATOMS + 1)],
      "measures": {"m": {"rule": "cardinality"}}},
     "atoms/partition"),
    ({"truncations": {"N_max": MAX_ATOMS, "measures": {"mu": {"rule": "max_element"},
                                                       "nu": {"rule": "cardinality"}}}},
     "truncations"),
    ({"truncations": {"atoms": [str(k) for k in range(MAX_ATOMS + 1)], "depths": [1],
                      "measures": {"mu": {"rule": "max_element"},
                                   "nu": {"rule": "cardinality"}}}},
     "truncations"),
    # fewer explicit tables than levels, fewer weights than atoms
    ({"truncations": {"atoms": ["0", "1"], "depths": [1, 2], "measures": {
        "mu": {"rule": "explicit", "tables": [[{"set": [], "value": "0"},
                                               {"set": ["0"], "value": "1"}]]},
        "nu": {"rule": "cardinality"}}}},
     "truncations"),
    ({"truncations": {"N_max": 3, "measures": {
        "mu": {"rule": "additive_sequence", "weights": ["1", "2"]},
        "nu": {"rule": "cardinality"}}}},
     "truncations"),
    # the truncation family is the threshold tail, whose thresholds are the
    # atom names
    ({"truncations": {"N_max": 3, "family": [1, 2], "measures": {
        "mu": {"rule": "cardinality"}, "nu": {"rule": "cardinality"}}}},
     "truncations"),
    ({"truncations": {"atoms": ["a", "b"], "measures": {
        "mu": {"rule": "cardinality"}, "nu": {"rule": "cardinality"}}}},
     "truncations"),
    # a string where the format expects a list is not split into characters
    ({"atoms": "x10"}, "atoms/partition"),
    ({"atoms": ["a", "b"], "partition": "ab"}, "atoms/partition"),
    ({"atoms": ["a", "b"], "partition": ["a", "b"]}, "atoms/partition"),
    ({"atoms": ["a", "b"], "measures": {"m": {"rule": "explicit", "table": [
        {"set": [], "value": "0"}, {"set": ["a"], "value": "1"},
        {"set": ["b"], "value": "1"}, {"set": "ab", "value": "2"}]}}},
     "measures.m"),
    ({"atoms": ["a", "b"], "family": [{"alpha": "0", "set": "ab"},
                                      {"alpha": "1", "set": []}]},
     "family"),
    ({"atoms": ["a", "b"], "zero_plus": "ab",
      "family": [{"alpha": "0", "set": ["a", "b"]}, {"alpha": "1", "set": []}]},
     "family"),
    ({"truncations": {"atoms": "012", "depths": [1, 2, 3], "measures": {
        "mu": {"rule": "cardinality"}, "nu": {"rule": "cardinality"}}}},
     "truncations"),
    ({"truncations": {"atoms": ["0", "1"], "depths": [1, 2], "measures": {
        "mu": {"rule": "explicit", "tables": [
            [{"set": [], "value": "0"}, {"set": ["0"], "value": "1"}],
            [{"set": [], "value": "0"}, {"set": ["0"], "value": "1"},
             {"set": ["1"], "value": "1"}, {"set": "01", "value": "2"}]]},
        "nu": {"rule": "cardinality"}}}},
     "truncations"),
    ({"truncations": {"N_max": 2, "measures": {
        "mu": {"rule": "additive_sequence", "weights": "123"},
        "nu": {"rule": "cardinality"}}}},
     "truncations"),
    # a JSON boolean is not the number 0 or 1
    ({"atoms": ["a", "b"], "measures": {"m": {"rule": "cardinality", "scale": True}}},
     "measures.m"),
    ({"truncations": {"N_max": True, "measures": {
        "mu": {"rule": "max_element"}, "nu": {"rule": "indicator_nonempty"}}}},
     "truncations"),
    ({"atoms": ["a", "b"], "functions": {"f": {"a": True, "b": False}}},
     "functions.f"),
    # nor is an object a list of its keys
    ({"atoms": {"a": 1, "b": 2}}, "atoms/partition"),
    ({"atoms": ["a", "b"], "partition": [{"a": 0}, ["b"]]}, "atoms/partition"),
    ({"atoms": ["a", "b"], "partition": {"a": ["a"], "b": ["b"]}}, "atoms/partition"),
    ({"atoms": ["a", "b"], "measures": {"m": {"rule": "explicit", "table": [
        {"set": [], "value": "0"}, {"set": ["a"], "value": "1"},
        {"set": ["b"], "value": "1"}, {"set": {"a": 0, "b": 0}, "value": "2"}]}}},
     "measures.m"),
    ({"atoms": ["a", "b"], "family": [{"alpha": "0", "set": {"a": 0, "b": 0}},
                                      {"alpha": "1", "set": []}]},
     "family"),
    ({"atoms": ["a", "b"], "zero_plus": {"a": 0, "b": 0},
      "family": [{"alpha": "0", "set": ["a", "b"]}, {"alpha": "1", "set": []}]},
     "family"),
    ({"truncations": {"atoms": {"0": 0, "1": 1}, "depths": [1, 2], "measures": {
        "mu": {"rule": "cardinality"}, "nu": {"rule": "cardinality"}}}},
     "truncations"),
    # an explicit table lists each set once, whatever the order of its atoms
    ({"atoms": ["a", "b"], "measures": {"m": {"rule": "explicit", "table": [
        {"set": [], "value": "0"}, {"set": ["a"], "value": "1"},
        {"set": ["b"], "value": "1"}, {"set": ["a", "b"], "value": "2"},
        {"set": ["a"], "value": "2"}]}}},
     "measures.m"),
    ({"truncations": {"atoms": ["0", "1"], "depths": [1, 2], "measures": {
        "mu": {"rule": "explicit", "tables": [
            [{"set": [], "value": "0"}, {"set": ["0"], "value": "1"}],
            [{"set": [], "value": "0"}, {"set": ["0"], "value": "1"},
             {"set": ["1"], "value": "1"}, {"set": ["0", "1"], "value": "2"},
             {"set": ["1", "0"], "value": "2"}]]},
        "nu": {"rule": "cardinality"}}}},
     "truncations"),
    # N_max next to atoms counts them; depths next to N_max are kept
    ({"truncations": {"atoms": ["0", "1"], "N_max": [1], "measures": {
        "mu": {"rule": "cardinality"}, "nu": {"rule": "cardinality"}}}},
     "truncations"),
    ({"truncations": {"N_max": 3, "depths": [5], "measures": {
        "mu": {"rule": "cardinality"}, "nu": {"rule": "cardinality"}}}},
     "truncations"),
])
def test_malformed_entries_are_located(data, location):
    """Wrong types and values in any entry give a located SpecFileError,
    whose message is the library's own, never a Python repr."""
    with pytest.raises(SpecFileError) as err:
        parse_problem(data)
    assert err.value.location == location
    assert "Fraction(" not in str(err.value)


def _truncations(mu_rule):
    return {"truncations": {"N_max": 3, "measures": {
        "mu": mu_rule, "nu": {"rule": "cardinality"}}}}


def _explicit_tables(tables):
    return {"truncations": {"atoms": ["0", "1"], "depths": [1, 2], "measures": {
        "mu": {"rule": "explicit", "tables": tables}, "nu": {"rule": "cardinality"}}}}


@pytest.mark.parametrize("command, data, message", [
    ("sigma-finite", _truncations({"rule": "additive_sequence", "weights": ["1", "2"]}),
     "truncations: additive_sequence needs 'weights' to list 4 weights, one per "
     "atom; got 2"),
    ("sigma-finite", _truncations({"rule": "additive_sequence", "weights": {"0": "1"}}),
     "truncations: additive_sequence needs 'weights' to list 4 weights, one per "
     "atom; got dict"),
    ("sigma-finite", _explicit_tables([[{"set": [], "value": "0"},
                                        {"set": ["0"], "value": "1"}]]),
     "truncations: explicit needs 'tables' to list 2 tables, one per level; got 1"),
    ("sigma-finite", _explicit_tables("tables"),
     "truncations: explicit needs 'tables' to list 2 tables, one per level; got str"),
    ("props", {"atoms": ["a"], "measures": {"m": {"rule": "additive",
                                                  "weights": {"q": "1"}}}},
     "measures.m: unknown atom 'q'"),
    ("props", {"atoms": ["a"], "measures": {"m": {"rule": "max_weight"}}},
     "measures.m: missing key 'weights'"),
    ("props", {"atoms": ["a"], "measures": {"m": {"rule": "cardinality", "scale": "1/0"}}},
     "measures.m: '1/0': a denominator may not be 0"),
    ("props", {"atoms": ["a"], "functions": {"f": {"a": "2/0"}}},
     "functions.f: '2/0': a denominator may not be 0"),
    ("sigma-finite", _truncations({"rule": "additive_sequence",
                                   "weights": ["1", "0/0", "1", "1"]}),
     "truncations: '0/0': a denominator may not be 0"),
], ids=["too-few-weights", "weight-object", "too-few-tables", "tables-string",
        "unknown-atom", "missing-weights", "zero-scale-denominator",
        "zero-value-denominator", "zero-weight-denominator"])
def test_malformed_rules_say_what_they_expected(capsys, tmp_path, command, data,
                                                message):
    """A malformed rule names what it expected, and the CLI exits 3 with it."""
    with pytest.raises(SpecFileError) as err:
        parse_problem(data)
    assert str(err.value) == message
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(data))
    assert main([command, "--input", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_floats_rejected_when_loading(tmp_path):
    path = tmp_path / "float.json"
    path.write_text('{"atoms": ["a"], "note": 1.5}')
    with pytest.raises(SpecFileError) as err:
        load_problem(str(path))
    assert "floats are not allowed" in str(err.value)


def test_load_problem_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SpecFileError):
        load_problem(str(missing))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError) as err:
        load_problem(str(bad))
    assert "line" in str(err.value)

    array = tmp_path / "array.json"
    array.write_text("[]")
    with pytest.raises(SpecFileError):
        load_problem(str(array))


def test_load_problem_reads_files(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(BASIC))
    spec = load_problem(str(path))
    assert spec.space.atoms == ("a", "b")


def test_atom_bound_counts_algebra_atoms():
    # the bound is on algebra atoms, the measures' power-set exponent
    names = [f"x{k}" for k in range(40)]
    spec = parse_problem({
        "atoms": names,
        "partition": [names[:20], names[20:]],
        "measures": {"m": {"rule": "cardinality"}},
    })
    assert spec.space.n_blocks == 2
    spec = parse_problem({"atoms": names[:MAX_ATOMS]})
    assert spec.space.n_blocks == MAX_ATOMS
