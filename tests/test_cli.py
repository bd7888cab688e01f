"""The command-line surface: subcommands, exit statuses, report rendering."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from choquetrn import cli
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


# every verdict of every command holds on the first file and, for each
# command that has verdicts, one fails on the second
CONTRACT_HOLDS = dict(SOLVABLE, truncations={"N_max": 2, "measures": {
    "mu": {"rule": "max_element"}, "nu": {"rule": "indicator_nonempty"}}})
CONTRACT_FAILS = {
    "atoms": ["a", "b"],
    "measures": {
        "nu": {"rule": "additive", "weights": {"a": "0", "b": "1/3"}},
        "mu": {"rule": "additive", "weights": {"a": "1", "b": "1"}},
    },
    "functions": {"f": {"a": "1", "b": "2"}, "g": {"a": "3", "b": "1"}},
    "family": [
        {"alpha": "0", "set": ["a", "b"]},
        {"alpha": "1", "set": ["a"]},
        {"alpha": "5", "set": []},
    ],
    "truncations": {"N_max": 2, "measures": {
        "mu": {"rule": "cardinality"}, "nu": {"rule": "cardinality"}}},
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

    @pytest.mark.parametrize("command", [
        "props", "integrate", "comonotone", "check-decomposition", "derive",
        "dyadic", "verify", "solve", "classical", "sigma-finite",
    ])
    def test_pass_is_every_verdict_and_sets_the_status(self, capsys, tmp_path,
                                                       command):
        statuses = set()
        for k, problem in enumerate((CONTRACT_HOLDS, CONTRACT_FAILS)):
            path = tmp_path / f"problem{k}.json"
            path.write_text(json.dumps(problem))
            code, out, _ = run(capsys, command, "--input", str(path))
            report = json.loads(out)
            assert report["pass"] == all(report["verdicts"].values())
            assert code == report["exit_status"] == (
                EXIT_PASS if report["pass"] else EXIT_FAIL)
            statuses.add(code)
        # a command with verdicts fails on the second file
        assert statuses == ({EXIT_PASS} if command in ("integrate", "derive", "dyadic")
                            else {EXIT_PASS, EXIT_FAIL})

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

    def test_integer_past_the_digit_limit_is_three(self, capsys, tmp_path):
        # Python's int/str conversion limit is 4300 digits
        path = tmp_path / "long.json"
        path.write_text('{"atoms": ["a"], "n": ' + "9" * 4301 + "}")
        code, out, err = run(capsys, "props", "--input", str(path))
        assert code == EXIT_INPUT
        assert "digits" in err and out == ""

    @pytest.mark.parametrize("where", ["atoms", "functions"])
    def test_nesting_past_the_recursion_limit_is_three(self, capsys, tmp_path, where):
        deep = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"atoms": %s}' % deep if where == "atoms"
                        else '{"atoms": ["a"], "functions": {"f": %s}}' % deep)
        code, out, err = run(capsys, "props", "--input", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert "input error" in err and "recursion limit" in err

    @pytest.mark.parametrize("where", ["atoms", "functions"])
    def test_decoded_nesting_past_the_recursion_limit_is_three(
            self, capsys, monkeypatch, solvable_path, where):
        # the file decodes, but the walk that rejects floats recurses deeper
        nested = []
        for _ in range(100_000):
            nested = [nested]
        problem = ({"atoms": nested} if where == "atoms"
                   else {"atoms": ["a"], "functions": {"f": nested}})
        monkeypatch.setattr(json, "load", lambda handle: problem)
        code, out, err = run(capsys, "props", "--input", solvable_path)
        assert (code, out) == (EXIT_INPUT, "")
        assert "input error" in err and "recursion limit" in err

    def test_value_past_the_digit_limit_is_printed(self, capsys, tmp_path):
        big = "1" + "0" * 3999  # 10^3999, under the limit; its square is not
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "atoms": ["a"],
            "measures": {"nu": {"rule": "cardinality", "scale": big}},
            "functions": {"f": {"a": big}},
        }))
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "integrate", "--input", str(path))
        assert code == EXIT_PASS
        assert json.loads(out)["tables"]["value"] == "1" + "0" * 7998
        assert sys.get_int_max_str_digits() == limit


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

    def test_props_scans_null_sets_once_per_measure(self, capsys, tmp_path,
                                                    monkeypatch):
        from choquetrn import measures

        calls = []
        scan = measures._null_union
        monkeypatch.setattr(measures, "_null_union",
                            lambda m: calls.append(m) or scan(m))
        path = tmp_path / "props.json"
        path.write_text(json.dumps({
            "atoms": ["a", "b"],
            "measures": {
                "nu": {"rule": "explicit", "table": [
                    {"set": [], "value": "0"}, {"set": ["a"], "value": "0"},
                    {"set": ["b"], "value": "0"}, {"set": ["a", "b"], "value": "1"},
                ]},
                "mu": {"rule": "cardinality"},
                "zero": {"rule": "zero"},
            },
        }))
        code, out, _ = run(capsys, "props", "--input", str(path))
        assert code == EXIT_FAIL
        assert len(calls) == 3 and len({id(m) for m in calls}) == 3
        report = json.loads(out)
        assert report["verdicts"]["nu.weakly_null_additive"] is False
        assert report["verdicts"]["nu.null_additive"] is False
        assert report["verdicts"]["mu.null_additive"] is True
        assert report["verdicts"]["zero.property_sigma"] is True
        assert report["witnesses"]["nu.property_sigma"] == (
            report["witnesses"]["nu.weakly_null_additive"])

    def test_props_with_infinite_mu(self, capsys, tmp_path):
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps({
            "atoms": ["a", "b"],
            "measures": {
                "mu": {"rule": "explicit", "table": [
                    {"set": [], "value": "0"}, {"set": ["a"], "value": "1"},
                    {"set": ["b"], "value": "inf"},
                    {"set": ["a", "b"], "value": "inf"},
                ]},
                "nu": {"rule": "cardinality"},
            },
        }))
        code, out, err = run(capsys, "props", "--input", str(path))
        assert code == EXIT_PASS, err
        report = json.loads(out)
        assert report["verdicts"]["strongly_abs_continuous"] is True
        assert report["tables"]["modulus"] == [
            {"eps": "1", "delta": "1"}, {"eps": "inf", "delta": "1"}]

    @pytest.mark.parametrize("option", ["--mu", "--nu"])
    def test_props_with_a_named_measure_the_file_lacks(self, capsys,
                                                       solvable_path, option):
        code, out, err = run(capsys, "props", "--input", solvable_path,
                             option, "zz")
        assert (code, out) == (EXIT_INPUT, "")
        assert "no measure named 'zz'" in err

    def test_props_without_mu_and_nu_classifies_each_measure(self, capsys,
                                                             tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "atoms": ["a", "b"], "measures": {"m": {"rule": "cardinality"}},
        }))
        code, out, err = run(capsys, "props", "--input", str(path))
        assert (code, err) == (EXIT_PASS, "")
        report = json.loads(out)
        assert set(report["verdicts"]) == {
            "m.weakly_null_additive", "m.null_additive", "m.property_sigma"}
        assert "modulus" not in report["tables"]
        # a name given on the command line is read, the other one defaults
        code, out, _ = run(capsys, "props", "--input", str(path),
                           "--mu", "m", "--nu", "m")
        assert code == EXIT_PASS
        assert json.loads(out)["verdicts"]["abs_continuous"] is True

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

    def test_ex_4_4_notes_a_sampled_verification(self, capsys):
        # 14 points are past the exhaustive limit: the test sets are a sample
        code, out, _ = run(capsys, "example", "ex-4-4", "--n", "13")
        assert code == EXIT_PASS
        note = json.loads(out)["tables"]["notes"]["verify"]
        assert "sampled sets" in note and "evidence, not a certificate" in note
        code, out, _ = run(capsys, "example", "ex-4-4", "--n", "4")
        assert code == EXIT_PASS
        assert "notes" not in json.loads(out)["tables"]

    def test_example_classical_solves_once(self, capsys, monkeypatch):
        from choquetrn import cli, solver

        calls = []
        for module in (cli, solver):
            def counted(mu, nu, solve=module.solve_rn):
                calls.append(1)
                return solve(mu, nu)
            monkeypatch.setattr(module, "solve_rn", counted)
        code, out, _ = run(capsys, "example", "classical")
        assert code == EXIT_PASS
        assert json.loads(out)["verdicts"]["solver_agrees"] is True
        assert len(calls) == 1

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

    # sha256 of stdout, pinned so that a refactor of the kernel keeps every
    # byte of the worked examples' reports
    @pytest.mark.parametrize("argv, digest", [
        (("classical", "json"),
         "76db5f53978c064af63156d98852b5dfc2f8aa19b7d3ad63eba2ca3eeaaf9401"),
        (("classical", "text"),
         "73088f3278e58613da8654e727b53fedb886891705a59270473ad1acb9e8cb08"),
        (("ex-3-6", "json"),
         "56b7b93b7564cba7739a7138e37b2cf46692ab31389e1dbe965ed4fc79db5201"),
        (("ex-3-6", "text"),
         "1400b36cec64b846e17146074c14d862c7e33435b05be06f08885f22bdb0455b"),
        (("ex-4-4", "json", "--n", "4"),
         "9bfb618f21cbaa6c8a28d7403057b65a16ca89b1ec2cd26a9cee1af208ffa432"),
        (("ex-4-4", "text", "--n", "4"),
         "f60ecac2af1503161638f70f4f133188c3a9ad851c4a3faaf6b6a8465c758ce3"),
    ])
    def test_example_reports_are_pinned(self, capsys, argv, digest):
        example, fmt, *rest = argv
        code, out, err = run(capsys, "example", example, "--format", fmt, *rest)
        assert (code, err) == (EXIT_PASS, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_digest_and_input_echo(self, capsys, solvable_path, tmp_path):
        _, out, _ = run(capsys, "verify", "--input", solvable_path)
        report = json.loads(out)
        with open(solvable_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert report["input_digest"] == "sha256:" + digest
        # the input is echoed as written, and re-parses to the same problem
        assert report["input"] == SOLVABLE
        from choquetrn import parse_problem

        spec = parse_problem(report["input"])
        assert spec.functions["f"]("b") == 5

        # a rule stays a rule: no 2^14-entry table in the report
        problem = {"atoms": [f"x{k}" for k in range(14)],
                   "measures": {"nu": {"rule": "cardinality"}}}
        path = tmp_path / "cardinality.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run(capsys, "props", "--input", str(path))
        assert code == EXIT_PASS
        assert json.loads(out)["input"]["measures"] == problem["measures"]
        assert len(out.encode()) < 4096

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


class TestInProcessReuse:
    def test_calls_in_one_process_do_not_affect_each_other(
            self, capsys, solvable_path, tmp_path, monkeypatch):
        out_path = str(tmp_path / "report.out")
        commands = ["props", "integrate", "comonotone", "check-decomposition",
                    "derive", "dyadic", "verify", "solve", "classical",
                    "sigma-finite"]
        reports = [[command, "--input", solvable_path, "--format", fmt, *out]
                   for command in commands
                   for fmt in ("json", "text")
                   for out in ([], ["--out", out_path])]
        reports += [["example", name, "--format", fmt]
                    for name in ("ex-3-6", "classical") for fmt in ("json", "text")]
        errors = [
            ["solve", "--input", solvable_path, "--bogus"],
            ["solve", "--input", solvable_path, "--set", "a"],
            ["sigma-finite", "--input", solvable_path, "--f", "json"],
            ["dyadic", "--input", solvable_path, "--n", "0"],
            ["props"],
            [],
            ["verify", "--input", str(tmp_path / "missing.json")],
            ["solve", "--help"],
        ]
        # one error after every fourth report, so each follows and precedes one
        argvs = list(reports)
        for k, argv in enumerate(errors):
            argvs.insert(5 * k + 4, argv)

        def outcome(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            written = None
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as handle:
                    written = handle.read()
                os.remove(out_path)
            return code, captured.out, captured.err, written

        first = {tuple(argv): outcome(argv) for argv in argvs}
        assert len(first) == len(argvs)
        help_code, help_out, _, _ = first[("solve", "--help")]
        assert help_code == ("SystemExit", 0)
        assert help_out.startswith("usage: choquet-rn solve")
        assert {first[tuple(argv)][0] for argv in errors[:-1]} == {
            EXIT_USAGE, EXIT_INPUT}

        from choquetrn.cli import _build_parser

        calls = []
        add_argument = argparse.ArgumentParser.add_argument
        monkeypatch.setattr(
            argparse.ArgumentParser, "add_argument",
            lambda *args, **kwargs: calls.append(args) or add_argument(*args, **kwargs))
        second = {tuple(argv): outcome(argv) for argv in reversed(argvs)}
        assert second == first
        # the parser is built once per process, not once per call
        assert calls == []
        assert _build_parser() is _build_parser()


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

    @pytest.mark.parametrize("example, n", [("ex-3-6", "5"), ("classical", "16")])
    def test_n_on_an_example_that_does_not_read_it_is_usage_error(
            self, capsys, example, n):
        # only ex-4-4 reads --n
        code, out, err = run(capsys, "example", example, "--n", n)
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

    def test_infinite_atom_name_is_input_error(self, capsys, tmp_path):
        # the threshold_tail family reads atom names as finite thresholds
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"truncations": {
            "atoms": ["0", "1", "inf"],
            "measures": {"mu": {"rule": "cardinality"},
                         "nu": {"rule": "cardinality"}},
        }}))
        code, out, err = run(capsys, "sigma-finite", "--input", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert "input error: truncations: " in err

    def test_inconsistent_explicit_levels_are_input_error(self, capsys, tmp_path):
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"truncations": {
            "atoms": ["0", "1"], "depths": [1, 2],
            "measures": {"mu": {"rule": "explicit", "tables": [
                [{"set": [], "value": "0"}, {"set": ["0"], "value": "1"}],
                [{"set": [], "value": "0"}, {"set": ["0"], "value": "2"},
                 {"set": ["1"], "value": "1"}, {"set": ["0", "1"], "value": "2"}]]},
                "nu": {"rule": "cardinality"}},
        }}))
        code, out, err = run(capsys, "sigma-finite", "--input", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == ("input error: truncations: inconsistent generators: "
                       "mu({0}) differs between levels 0 and 1\n")

    def test_depths_next_to_n_max_are_kept(self, capsys, tmp_path):
        path = tmp_path / "depths.json"
        path.write_text(json.dumps({"truncations": {
            "N_max": 3, "depths": [2],
            "measures": {"mu": {"rule": "max_element"},
                         "nu": {"rule": "indicator_nonempty"}},
        }}))
        code, out, _ = run(capsys, "sigma-finite", "--input", str(path))
        assert code == EXIT_PASS
        assert json.loads(out)["tables"]["function"] == {"0": "0", "1": "1"}

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

    @pytest.mark.parametrize("argv", [
        ["derive", "--mu", "x"],
        ["solve", "--set", "a"],
        ["props", "--n", "2"],
        ["sigma-finite", "--f", "f"],
        ["sigma-finite", "--f", "json"],
        ["example", "ex-3-6"],
    ], ids=" ".join)
    def test_option_the_command_does_not_read_is_usage_error(
            self, capsys, solvable_path, argv):
        # example reads no --input; the others read it but not the option
        code, out, err = run(capsys, *argv, "--input", solvable_path)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in err and out == ""

    def test_each_command_has_only_the_options_it_reads(self):
        from choquetrn.cli import _build_parser

        (commands,) = [a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {flag for action in parser._actions
                   for flag in action.option_strings if action.dest != "help"}
            for name, parser in commands.choices.items()
        }
        common = {"--format", "--seed", "--out"}
        assert options["derive"] == options["sigma-finite"] == common | {"--input"}
        assert options["example"] == common | {"--n"}
        assert options["integrate"] == common | {"--input", "--f", "--nu", "--set"}
        assert sum(map(len, options.values())) == 61

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
    """Any command line and problem file ends in a status 0-3, no traceback;
    a report passes when every verdict holds and exits 0 exactly when it
    passes.  The one exception, example ex-3-6, passes when its densities
    verify yet are not equal a.e."""
    reports = []
    run_command = cli._run_command

    def keep(args):
        reports.append(run_command(args))
        return reports[-1]

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_run_command", keep):
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
    if code in (EXIT_PASS, EXIT_FAIL):
        (report,) = reports
        verdicts = report["verdicts"]
        if command == "example" and example == "ex-3-6":
            others = {k: v for k, v in verdicts.items() if k != "equal_ae"}
            assert report["pass"] == (all(others.values()) and not verdicts["equal_ae"])
        else:
            assert report["pass"] == all(verdicts.values())
        assert code == (EXIT_PASS if report["pass"] else EXIT_FAIL)
