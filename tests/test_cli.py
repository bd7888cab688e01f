"""The command-line surface: subcommands, exit statuses, report rendering."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from choquetrn.cli import (
    EXIT_FAIL, EXIT_INPUT, EXIT_PASS, EXIT_USAGE, MAX_N, main,
)


SOLVABLE = {
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
    "functions": {
        "f": {"a": "2", "b": "5"},
        "g": {"a": "1", "b": "3"},
    },
    "family": [
        {"alpha": "0", "set": ["a", "b"]},
        {"alpha": "2", "set": ["b"]},
        {"alpha": "5", "set": []},
    ],
}

UNSOLVABLE = {
    "atoms": ["1", "2"],
    "measures": {
        "nu": {"rule": "indicator_full"},
        "mu": {"rule": "cardinality", "scale": "1/2"},
    },
}


@pytest.fixture
def solvable_path(tmp_path):
    path = tmp_path / "solvable.json"
    path.write_text(json.dumps(SOLVABLE))
    return str(path)


@pytest.fixture
def unsolvable_path(tmp_path):
    path = tmp_path / "unsolvable.json"
    path.write_text(json.dumps(UNSOLVABLE))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitStatuses:
    def test_pass_is_zero(self, capsys, solvable_path):
        code, out, _ = run(capsys, "verify", "--input", solvable_path)
        assert code == EXIT_PASS
        assert json.loads(out)["verdicts"]["radon_nikodym"] is True

    def test_failing_verdict_is_one(self, capsys, unsolvable_path):
        code, out, _ = run(capsys, "solve", "--input", unsolvable_path)
        assert code == EXIT_FAIL
        report = json.loads(out)
        assert report["verdicts"]["solvable"] is False
        assert report["tables"]["chains_refuted"] == 2

    def test_usage_error_is_two(self, capsys):
        code, _, err = run(capsys, "not-a-command")
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_input_error_is_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--input", str(tmp_path / "x.json"))
        assert code == EXIT_INPUT
        assert "input error" in err

    def test_malformed_input_is_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms": ["a", "a"]}')
        code, _, err = run(capsys, "props", "--input", str(bad))
        assert code == EXIT_INPUT


    @pytest.mark.parametrize("command, problem", [
        ("props", {"atoms": [f"x{k}" for k in range(40)],
                   "measures": {"nu": {"rule": "cardinality"}}}),
        ("sigma-finite", {"truncations": {
            "N_max": 40, "measures": {"mu": {"rule": "cardinality"},
                                      "nu": {"rule": "cardinality"}}}}),
    ], ids=["40-atoms", "N_max-40"])
    def test_oversized_problem_is_three(self, capsys, tmp_path, command, problem):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(problem))
        code, _, err = run(capsys, command, "--input", str(path))
        assert code == EXIT_INPUT
        assert "more than 17" in err


class TestCommands:
    def test_props(self, capsys, solvable_path):
        code, out, _ = run(capsys, "props", "--input", solvable_path)
        assert code == EXIT_PASS
        report = json.loads(out)
        assert report["verdicts"]["abs_continuous"] is True
        assert report["verdicts"]["nu.null_additive"] is True
        assert report["tables"]["modulus"]

    def test_integrate(self, capsys, solvable_path):
        code, out, _ = run(capsys, "integrate", "--input", solvable_path)
        assert code == EXIT_PASS
        assert json.loads(out)["tables"]["value"] == "8/3"

    def test_integrate_over_set(self, capsys, solvable_path):
        code, out, _ = run(
            capsys, "integrate", "--input", solvable_path, "--set", "a"
        )
        assert json.loads(out)["tables"]["value"] == "1"

    def test_comonotone(self, capsys, solvable_path):
        code, out, _ = run(
            capsys, "comonotone", "--input", solvable_path, "--f", "f", "--g", "g"
        )
        assert code == EXIT_PASS
        assert json.loads(out)["verdicts"]["comonotone"] is True

    def test_check_decomposition(self, capsys, solvable_path):
        code, out, _ = run(capsys, "check-decomposition", "--input", solvable_path)
        assert code == EXIT_PASS
        report = json.loads(out)
        assert report["verdicts"]["decomposition"] is True
        assert report["verdicts"]["tail"] is True

    def test_derive_and_dyadic(self, capsys, solvable_path):
        code, out, _ = run(capsys, "derive", "--input", solvable_path)
        assert json.loads(out)["tables"]["function"] == {"a": "2", "b": "5"}
        code, out, _ = run(capsys, "dyadic", "--input", solvable_path, "--n", "3")
        assert code == EXIT_PASS
        assert json.loads(out)["tables"]["function"] == {"a": "2", "b": "3"}

    def test_solve(self, capsys, solvable_path):
        code, out, _ = run(capsys, "solve", "--input", solvable_path)
        assert code == EXIT_PASS
        assert json.loads(out)["tables"]["function"] == {"a": "2", "b": "5"}

    def test_classical(self, capsys, solvable_path):
        code, out, _ = run(capsys, "classical", "--input", solvable_path)
        assert code == EXIT_PASS
        report = json.loads(out)
        assert report["verdicts"]["holds"] is True
        assert report["verdicts"]["solver_agrees"] is True

    def test_sigma_finite(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text(json.dumps({
            "truncations": {
                "N_max": 5,
                "measures": {
                    "mu": {"rule": "max_element"},
                    "nu": {"rule": "indicator_nonempty"},
                },
            }
        }))
        code, out, _ = run(capsys, "sigma-finite", "--input", str(path))
        assert code == EXIT_PASS
        report = json.loads(out)
        assert report["verdicts"]["glue"] is True
        assert report["verdicts"]["verify"] is True

    def test_examples(self, capsys):
        for name in ("ex-3-6", "ex-4-4", "classical"):
            code, out, _ = run(capsys, "example", name)
            assert code == EXIT_PASS, name
            assert json.loads(out)["pass"] is True

    def test_missing_name_is_input_error(self, capsys, solvable_path):
        code, _, err = run(
            capsys, "integrate", "--input", solvable_path, "--f", "missing"
        )
        assert code == EXIT_INPUT


class TestReports:
    def test_deterministic_output(self, capsys, solvable_path):
        _, out1, _ = run(capsys, "solve", "--input", solvable_path)
        _, out2, _ = run(capsys, "solve", "--input", solvable_path)
        assert out1 == out2

    def test_digest_and_input_echo(self, capsys, solvable_path):
        _, out, _ = run(capsys, "verify", "--input", solvable_path)
        report = json.loads(out)
        assert report["input_digest"].startswith("sha256:")
        # the echoed input re-parses to an equivalent problem
        from choquetrn import parse_problem

        spec = parse_problem(report["input"])
        assert spec.functions["f"]("b") == 5

    def test_text_format_carries_the_same_facts(self, capsys, solvable_path):
        _, out_json, _ = run(capsys, "verify", "--input", solvable_path)
        _, out_text, _ = run(
            capsys, "verify", "--input", solvable_path, "--format", "text"
        )
        assert "verdicts.radon_nikodym: True" in out_text
        assert "input_digest" in out_text
        report = json.loads(out_json)
        assert report["verdicts"]["radon_nikodym"] is True

    def test_out_file(self, capsys, tmp_path, solvable_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--input", solvable_path, "--out", str(target)
        )
        assert code == EXIT_PASS
        assert out == ""
        assert json.loads(target.read_text())["pass"] is True

    def test_seed_echoed(self, capsys, solvable_path):
        _, out, _ = run(capsys, "verify", "--input", solvable_path, "--seed", "7")
        assert json.loads(out)["seed"] == 7

    def test_no_floats_anywhere(self, capsys, solvable_path):
        _, out, _ = run(capsys, "check-decomposition", "--input", solvable_path)

        def scan(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    scan(v)
            elif isinstance(node, list):
                for v in node:
                    scan(v)

        scan(json.loads(out, parse_float=float))


class TestArgumentErrors:
    def test_missing_input_is_usage_error(self, capsys):
        code, out, err = run(capsys, "props")
        assert code == EXIT_USAGE
        assert "needs --input" in err and out == ""

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_nonpositive_depth_is_usage_error(self, capsys, solvable_path, n):
        code, _, err = run(capsys, "dyadic", "--input", solvable_path, "--n", n)
        assert code == EXIT_USAGE
        assert "--n" in err

    @pytest.mark.parametrize("command", ["dyadic", "ex-4-4"])
    def test_depth_above_bound_is_usage_error(self, capsys, solvable_path, command):
        if command == "dyadic":
            argv = ["dyadic", "--input", solvable_path]
        else:
            argv = ["example", "ex-4-4"]
        code, out, err = run(capsys, *argv, "--n", str(MAX_N + 1))
        assert code == EXIT_USAGE
        assert "--n" in err and out == ""

    def test_float_weight_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(json.dumps({
            "atoms": ["a"],
            "measures": {"nu": {"rule": "additive", "weights": {"a": 0.5}}},
        }))
        code, _, err = run(capsys, "props", "--input", str(path))
        assert code == EXIT_INPUT
        assert "floats are not allowed" in err

    def test_undecodable_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"atoms": ["\xe9"]}')
        code, _, err = run(capsys, "props", "--input", str(path))
        assert code == EXIT_INPUT
        assert "UTF-8" in err

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, solvable_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, "verify", "--input", solvable_path, "--out", str(target)
        )
        assert code == EXIT_USAGE
        assert "--out" in err and out == ""

    def test_unknown_set_atom_is_input_error(self, capsys, solvable_path):
        code, _, err = run(
            capsys, "integrate", "--input", solvable_path, "--set", "a,zz"
        )
        assert code == EXIT_INPUT
        assert "zz" in err


# -- generated command lines and problem files --------------------------------
#
# A problem is built well formed over one to three atoms, then a few of its
# entries are replaced by junk or removed, so that runs reach every command's
# kernel as well as every parser branch.

_JUNK = st.one_of(
    st.sampled_from(["-1", "x", "1/0", "", "inf", "a"]),
    st.integers(min_value=-2, max_value=3),
    st.floats(min_value=-1, max_value=3, allow_nan=False),
    st.none(),
    st.booleans(),
    st.lists(st.sampled_from(["a", "z", 0]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "rule", "set"]), st.integers(0, 2),
                    max_size=2),
)
_VALUES = st.sampled_from(["0", "1", "1/2", "5/3", "2", 3, 0])
_SET_RULES = ["additive", "max_weight", "cardinality", "indicator_full",
              "explicit", "zero"]
_SIGMA_RULES = ["max_element", "indicator_nonempty", "cardinality",
                "additive_sequence"]


@st.composite
def _problems(draw):
    atoms = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                          max_size=3, unique=True))
    subsets = [[a for k, a in enumerate(atoms) if mask >> k & 1]
               for mask in range(1 << len(atoms))]

    def measure():
        rule = draw(st.sampled_from(_SET_RULES))
        spec = {"rule": rule}
        if rule in ("additive", "max_weight"):
            spec["weights"] = {a: draw(_VALUES) for a in atoms}
        elif rule == "cardinality":
            spec["scale"] = draw(_VALUES)
        elif rule == "explicit":
            # cumulative increments keep most tables monotone
            total, spec["table"] = 0, []
            for subset in subsets:
                total += draw(st.integers(0, 2)) if subset else 0
                spec["table"].append({"set": subset, "value": str(total)})
        return spec

    def sigma_measure():
        rule = draw(st.sampled_from(_SIGMA_RULES))
        spec = {"rule": rule}
        if rule == "cardinality":
            spec["scale"] = draw(_VALUES)
        elif rule == "additive_sequence":
            spec["weights"] = [draw(_VALUES) for _ in range(5)]
        return spec

    problem = {
        "atoms": atoms,
        "measures": {"mu": measure(), "nu": measure()},
        "functions": {name: {a: draw(_VALUES) for a in atoms}
                      for name in ("f", "g")},
        "family": [{"alpha": "0", "set": atoms}] + [
            {"alpha": str(k + 1), "set": subset}
            for k, subset in enumerate(draw(st.lists(
                st.sampled_from(subsets), max_size=2)))
        ],
    }
    if draw(st.booleans()):
        problem["truncations"] = {
            "N_max": draw(st.integers(min_value=1, max_value=3)),
            "measures": {"mu": sigma_measure(), "nu": sigma_measure()},
            "family": "threshold_tail",
        }
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        node = problem
        while True:
            key = draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))
            ))
            child = node[key]
            if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
                break
            node = child
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JUNK)
    return problem


_COMMANDS = st.sampled_from([
    "props", "integrate", "comonotone", "check-decomposition", "derive",
    "dyadic", "verify", "solve", "classical", "sigma-finite", "example",
])
_OPTIONS = st.lists(st.one_of(
    st.tuples(st.just("--set"), st.sampled_from(["a", "a,b", "zz", ",", ""])),
    st.tuples(st.just("--n"), st.sampled_from(["-1", "0", "1", "2", "3"])),
    st.tuples(st.sampled_from(["--mu", "--nu", "--f", "--g"]),
              st.sampled_from(["mu", "nu", "f", "g", "zz"])),
    st.tuples(st.just("--format"), st.sampled_from(["json", "text"])),
    st.tuples(st.just("--out"), st.sampled_from(["report", "missing/report"])),
), max_size=2)
_EXAMPLES = st.sampled_from(["ex-3-6", "ex-4-4", "classical", "ex-0"])


# derandomized, so that a run of the suite is reproducible; widen locally
# with more examples when changing the parser or the CLI
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    command=_COMMANDS,
    options=_OPTIONS,
    example=_EXAMPLES,
    with_input=st.integers(min_value=0, max_value=9).map(lambda k: k > 0),
    problem=st.one_of(_problems(), _JUNK, st.just("not json {")),
)
def test_generated_invocations_exit_cleanly(command, options, example, with_input,
                                            problem):
    """Any command line and problem file ends in a status 0-3, no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, value in options:
            argv += [flag, os.path.join(tmp, value) if flag == "--out" else value]
        if command == "example":
            argv.append(example)
        if with_input:
            path = os.path.join(tmp, "problem.json")
            with open(path, "w", encoding="utf-8") as handle:
                if isinstance(problem, str) and problem == "not json {":
                    handle.write(problem)
                else:
                    json.dump(problem, handle)
            argv += ["--input", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INPUT)
    assert "Traceback" not in err.getvalue()
    if code in (EXIT_USAGE, EXIT_INPUT) or "--out" in argv:
        assert out.getvalue() == ""
