"""Command-line surface.

A command is one entry of ``_COMMANDS`` (its help, the options it reads and
its handler) and one handler, which fills the report's verdicts, witnesses
and tables.  ``_run_command`` loads ``--input`` for every command but
``example``, calls the handler and sets ``pass``: every verdict holds.  The
one exception is ``example ex-3-6``, which passes when its two densities
verify and differ on a nu-positive set, so its ``equal_ae`` verdict is false.

Exit status contract: 0 pass, 1 fail, 2 usage error, 3 input error.  Reports
are deterministic given the inputs and seed, and the JSON and text
renderings carry identical facts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from math import factorial

from .choquet import choquet_integral, is_comonotone
from .decomposition import (
    check_decomposition,
    derive_function,
    dyadic_approximant,
    lemma_tail_check,
    verify_rn,
)
from .errors import ChoquetRnError, SpecFileError
from .extreal import ExtReal
from .fixtures import fixture_f1, fixture_f2, fixture_f4
from .functions import equal_ae
from .measures import (
    abs_continuous,
    has_property_sigma,
    is_null_additive,
    is_weakly_null_additive,
    strongly_abs_continuous,
)
from .report import render_json, render_text
from .sigma_finite import glue_derivative, verify_sigma_finite
from .solver import classical_rn_check, solve_rn
from .specio import MAX_ATOMS, load_problem, problem_to_dict

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

# Largest --n for dyadic and ex-4-4: ex-4-4 builds n + 1 points and its
# measures on their full power set, so both bounds are one decision.
MAX_N = MAX_ATOMS - 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_OPTIONS = {
    "input": {"help": "problem description file (JSON)"},
    "format": {"choices": ["json", "text"], "default": "json"},
    "set": {"dest": "set_atoms", "help": "comma-separated atoms"},
    "n": {"type": int, "help": "depth / index"},
    "seed": {"type": int, "default": 0, "help": "seed echoed into the report"},
    "out": {"help": "write the report here instead of stdout"},
    "mu": {"default": "mu"}, "nu": {"default": "nu"},
    "f": {"default": "f"}, "g": {"default": "g"},
}


def _need(spec, kind, name):
    pool = getattr(spec, kind)
    if name not in pool:
        raise SpecFileError(f"no {kind[:-1]} named {name!r} in the input file")
    return pool[name]


def _pair(spec, args):
    return _need(spec, "measures", args.mu), _need(spec, "measures", args.nu)


def _family(spec):
    if spec.family is None:
        raise SpecFileError("the input file has no family")
    return spec.family


def _model(spec):
    if spec.model is None:
        raise SpecFileError("the input file has no truncation model")
    return spec.model


def _resolve_set(spec, args):
    if args.set_atoms is None:
        return None
    names = [s for s in args.set_atoms.split(",") if s]
    try:
        return spec.space.make_set(names)
    except KeyError as exc:
        raise ChoquetRnError(f"--set: {exc.args[0]}") from None


def _record(report: dict, key: str, result) -> None:
    """The verdict of ``result``, and its witness and note when it has them."""
    report["verdicts"][key] = result.holds
    if result.witness:
        report["witnesses"][key] = result.witness
    if getattr(result, "note", ""):
        report["tables"].setdefault("notes", {})[key] = result.note


# Command handlers take (spec, args, report) and fill the report's verdicts,
# witnesses and tables.  They call the library through this module's globals
# at call time, so a rebound name (the benchmark tracer's) reaches them.

def _props(spec, args, report: dict) -> None:
    # a name given on the command line must exist; a default one may not
    mu = spec.measures.get("mu") if args.mu is None else _need(spec, "measures", args.mu)
    nu = spec.measures.get("nu") if args.nu is None else _need(spec, "measures", args.nu)
    for name, m in sorted(spec.measures.items()):
        for label, fn in (
            ("weakly_null_additive", is_weakly_null_additive),
            ("null_additive", is_null_additive),
            ("property_sigma", has_property_sigma),
        ):
            _record(report, f"{name}.{label}", fn(m))
    if mu is not None and nu is not None:
        _record(report, "abs_continuous", abs_continuous(mu, nu))
        sac = strongly_abs_continuous(mu, nu)
        report["verdicts"]["strongly_abs_continuous"] = sac.holds
        report["tables"]["modulus"] = [{"eps": e, "delta": d} for e, d in sac.table]


def _integrate(spec, args, report: dict) -> None:
    f = _need(spec, "functions", args.f)
    nu = _need(spec, "measures", args.nu)
    breakdown = choquet_integral(f, nu, _resolve_set(spec, args))
    report["tables"].update(breakdown=breakdown, value=breakdown.total)


def _comonotone(spec, args, report: dict) -> None:
    f = _need(spec, "functions", args.f)
    g = _need(spec, "functions", args.g)
    _record(report, "comonotone", is_comonotone(f, g))


def _check_decomposition(spec, args, report: dict) -> None:
    mu, nu = _pair(spec, args)
    family = _family(spec)
    result = check_decomposition(mu, nu, family, detail=True)
    _record(report, "decomposition", result)
    report["verdicts"].update(tail=result.tail_ok,
                              tail_bound=lemma_tail_check(mu, nu, family))
    report["tables"].update(pairs=result.records, tail={
        "set": result.tail_set, "mu": result.tail_mu, "nu": result.tail_nu})


def _derive(spec, args, report: dict) -> None:
    report["tables"]["function"] = derive_function(_family(spec))


def _dyadic(spec, args, report: dict) -> None:
    n = 1 if args.n is None else args.n
    report["tables"].update(function=dyadic_approximant(_family(spec), n), n=n)


def _verify(spec, args, report: dict) -> None:
    mu, nu = _pair(spec, args)
    result = verify_rn(mu, nu, _need(spec, "functions", args.f))
    report["verdicts"]["radon_nikodym"] = result.holds
    report["tables"]["failures"] = [
        {"set": A, "mu": lhs, "integral": rhs} for A, lhs, rhs in result.failures
    ]


def _solve(spec, args, report: dict) -> None:
    mu, nu = _pair(spec, args)
    certificate = solve_rn(mu, nu)
    report["verdicts"]["solvable"] = certificate.solvable
    t = report["tables"]
    if certificate.solvable:
        t["function"] = certificate.function
    else:
        # why mu is not absolutely continuous; solve reports no such verdict
        if certificate.ac_witness:
            report["witnesses"]["absolute_continuity"] = certificate.ac_witness
        # no maximal chain carries a density; bench/ pins this key until its next change
        t["chains_refuted"] = factorial(mu.space.n_blocks)


def _classical(report: dict, mu, nu) -> None:
    """The additive case end to end."""
    result = classical_rn_check(mu, nu)
    _record(report, "abs_continuous", result.ac)
    report["verdicts"].update(holds=result.holds, solver_agrees=result.solver_agrees)
    if result.function is not None:
        report["tables"]["function"] = result.function


def _sigma_finite(report: dict, model):
    """Glue and verify the threshold-tail density; returns it, or None."""
    v, t = report["verdicts"], report["tables"]
    glue = glue_derivative(model)
    v["glue"] = glue.holds
    v["finite_ae"] = glue.finite_ae
    if glue.function is not None:
        t["function"] = glue.function
        v["verify"] = verify_sigma_finite(model, glue.function).holds
    return glue.function


def _ex_3_6(args, report: dict) -> None:
    fx = fixture_f1()
    r1 = verify_rn(fx.mu, fx.nu, fx.f1)
    r2 = verify_rn(fx.mu, fx.nu, fx.f2)
    comparison = equal_ae(fx.f1, fx.f2, fx.nu)
    decomposition = check_decomposition(fx.mu, fx.nu, fx.family)
    report["verdicts"].update(
        f1_verifies=r1.holds, f2_verifies=r2.holds,
        decomposition=decomposition.holds, equal_ae=comparison.equal,
    )
    report["tables"].update(
        nu_mass_of_disagreement=comparison.diff_measure, f1=fx.f1, f2=fx.f2
    )
    # non-uniqueness: two verifying densities that differ on a nu-positive set
    report["pass"] = (r1.holds and r2.holds and decomposition.holds
                      and not comparison.equal)


def _ex_4_4(args, report: dict) -> None:
    model = fixture_f4(8 if args.n is None else args.n)
    f = _sigma_finite(report, model)
    if f is not None:
        report["verdicts"]["function_is_identity"] = all(
            f(a) == ExtReal(a) for a in model.deepest.atoms
        )


def _ex_classical(args, report: dict) -> None:
    fx = fixture_f2()
    _classical(report, fx.mu, fx.nu)


_EXAMPLES = {"ex-3-6": _ex_3_6, "ex-4-4": _ex_4_4, "classical": _ex_classical}

# The one table of commands: help, the options the handler reads, handler.
# Every command also takes --format, --seed and --out; any other option is a
# usage error.
_COMMANDS = {
    "props": ("measure classifiers and absolute continuity", "input mu nu", _props),
    "integrate": ("Choquet integral with layer breakdown", "input f nu set", _integrate),
    "comonotone": ("comonotonicity of two functions", "input f g", _comonotone),
    "check-decomposition": ("two-sided inequality check for a family", "input mu nu",
                            _check_decomposition),
    "derive": ("derive the function of a family", "input", _derive),
    "dyadic": ("dyadic approximant of a family (--n defaults to 1)", "input n", _dyadic),
    "verify": ("verify mu(A) = integral of f over A for all A", "input mu nu f", _verify),
    "solve": ("decide existence of a density", "input mu nu", _solve),
    "classical": ("additive special case, end to end", "input mu nu",
                  lambda spec, args, report: _classical(report, *_pair(spec, args))),
    "sigma-finite": ("truncation model: glue and verify", "input",
                     lambda spec, args, report: _sigma_finite(report, _model(spec))),
    "example": ("reproduce a named worked example", "n",
                lambda spec, args, report: _EXAMPLES[args.id](args, report)),
}


# Built on first use, not at import, and then shared by every call of main:
# argparse keeps no state between parse_args calls.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="choquet-rn",
        description=(
            "Exact Choquet integration, decomposition families and "
            "Radon-Nikodym derivatives for monotone measures"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, reads, _) in _COMMANDS.items():
        # no abbreviations: "--f" must not stand for "--format"
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for option, kwargs in _OPTIONS.items():
            if option in reads.split() or option in ("format", "seed", "out"):
                p.add_argument(f"--{option}", **kwargs)
    sub.choices["example"].add_argument("id", choices=list(_EXAMPLES))
    # props reports absolute continuity only when both measures exist, so it
    # must tell a name given on the command line from the default
    sub.choices["props"].set_defaults(mu=None, nu=None)
    return parser


def _check_args(args) -> None:
    """Usage rules that argparse does not express."""
    if args.command != "example" and not args.input:
        raise _UsageError(f"{args.command} needs --input")
    n = getattr(args, "n", None)
    if n is not None and not 1 <= n <= MAX_N:
        raise _UsageError(f"--n must be an integer from 1 to {MAX_N}")
    if n is not None and args.command == "example" and args.id != "ex-4-4":
        raise _UsageError(f"example {args.id} takes no --n; only ex-4-4 reads it")


def _run_command(args) -> dict:
    report: dict = {
        "command": args.command,
        "seed": args.seed,
        "verdicts": {},
        "witnesses": {},
        "tables": {},
    }
    spec = None
    if args.command != "example":
        with open(args.input, "rb") as handle:
            report["input_digest"] = "sha256:" + hashlib.sha256(
                handle.read()
            ).hexdigest()
        spec = load_problem(args.input)
        report["input"] = problem_to_dict(spec)
    _COMMANDS[args.command][2](spec, args, report)
    report.setdefault("pass", all(report["verdicts"].values()))
    return report


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        report = _run_command(args)
    except (ChoquetRnError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report["exit_status"] = EXIT_PASS if report["pass"] else EXIT_FAIL
    rendered = (
        render_json(report) if args.format == "json" else render_text(report)
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return report["exit_status"]


if __name__ == "__main__":
    raise SystemExit(main())
