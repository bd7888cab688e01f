"""Command-line surface.

Exit status contract: 0 all verdicts pass, 1 a verdict fails, 2 usage error,
3 input error.  Reports are deterministic given the inputs and seed, and the
JSON and text renderings carry identical facts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys

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


# Each command's help and the options its handler reads.  Every command also
# takes --format, --seed and --out; any other option is a usage error.
_COMMANDS = {
    "props": ("measure classifiers and absolute continuity", "input mu nu"),
    "integrate": ("Choquet integral with layer breakdown", "input f nu set"),
    "comonotone": ("comonotonicity of two functions", "input f g"),
    "check-decomposition": ("two-sided inequality check for a family", "input mu nu"),
    "derive": ("derive the function of a family", "input"),
    "dyadic": ("dyadic approximant of a family (--n defaults to 1)", "input n"),
    "verify": ("verify mu(A) = integral of f over A for all A", "input mu nu f"),
    "solve": ("decide existence of a density", "input mu nu"),
    "classical": ("additive special case, end to end", "input mu nu"),
    "sigma-finite": ("truncation model: glue and verify", "input"),
    "example": ("reproduce a named worked example", "n"),
}

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
    for name, (help_text, reads) in _COMMANDS.items():
        # no abbreviations: "--f" must not stand for "--format"
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for option, kwargs in _OPTIONS.items():
            if option in reads.split() or option in ("format", "seed", "out"):
                p.add_argument(f"--{option}", **kwargs)
    sub.choices["example"].add_argument("id", choices=["ex-3-6", "ex-4-4", "classical"])
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


def _need(spec, kind, name):
    pool = getattr(spec, kind)
    if name not in pool:
        raise SpecFileError(f"no {kind[:-1]} named {name!r} in the input file")
    return pool[name]


def _resolve_set(spec, args):
    if args.set_atoms is None:
        return None
    names = [s for s in args.set_atoms.split(",") if s]
    try:
        return spec.space.make_set(names)
    except KeyError as exc:
        raise ChoquetRnError(f"--set: {exc.args[0]}") from None


def _run_command(args) -> dict:
    report: dict = {
        "command": args.command,
        "seed": args.seed,
        "verdicts": {},
        "witnesses": {},
        "tables": {},
    }
    if args.command == "example":
        _run_example(args, report)
        return report
    with open(args.input, "rb") as handle:
        report["input_digest"] = "sha256:" + hashlib.sha256(
            handle.read()
        ).hexdigest()
    spec = load_problem(args.input)
    report["input"] = problem_to_dict(spec)

    v = report["verdicts"]
    w = report["witnesses"]
    t = report["tables"]

    if args.command == "props":
        # a name given on the command line must exist; a default one may not
        mu = spec.measures.get("mu") if args.mu is None else _need(spec, "measures", args.mu)
        nu = spec.measures.get("nu") if args.nu is None else _need(spec, "measures", args.nu)
        for name, m in sorted(spec.measures.items()):
            for label, fn in (
                ("weakly_null_additive", is_weakly_null_additive),
                ("null_additive", is_null_additive),
                ("property_sigma", has_property_sigma),
            ):
                verdict = fn(m)
                v[f"{name}.{label}"] = verdict.holds
                if verdict.witness:
                    w[f"{name}.{label}"] = verdict.witness
                if verdict.note:
                    t.setdefault("notes", {})[f"{name}.{label}"] = verdict.note
        if mu is not None and nu is not None:
            ac = abs_continuous(mu, nu)
            sac = strongly_abs_continuous(mu, nu)
            v["abs_continuous"] = ac.holds
            v["strongly_abs_continuous"] = sac.holds
            if ac.witness:
                w["abs_continuous"] = ac.witness
            t["modulus"] = [
                {"eps": e, "delta": d} for e, d in sac.table
            ]
        report["pass"] = all(v.values())

    elif args.command == "integrate":
        f = _need(spec, "functions", args.f)
        nu = _need(spec, "measures", args.nu)
        A = _resolve_set(spec, args)
        breakdown = choquet_integral(f, nu, A)
        t["breakdown"] = breakdown
        t["value"] = breakdown.total
        report["pass"] = True

    elif args.command == "comonotone":
        f = _need(spec, "functions", args.f)
        g = _need(spec, "functions", args.g)
        verdict = is_comonotone(f, g)
        v["comonotone"] = verdict.holds
        if verdict.witness:
            w["comonotone"] = verdict.witness
        report["pass"] = verdict.holds

    elif args.command == "check-decomposition":
        mu = _need(spec, "measures", args.mu)
        nu = _need(spec, "measures", args.nu)
        if spec.family is None:
            raise SpecFileError("the input file has no family")
        result = check_decomposition(mu, nu, spec.family, detail=True)
        v["decomposition"] = result.holds
        v["tail"] = result.tail_ok
        v["tail_bound"] = lemma_tail_check(mu, nu, spec.family)
        if result.witness:
            w["decomposition"] = result.witness
        t["pairs"] = result.records
        t["tail"] = {"set": result.tail_set, "mu": result.tail_mu,
                     "nu": result.tail_nu}
        report["pass"] = result.holds

    elif args.command == "derive":
        if spec.family is None:
            raise SpecFileError("the input file has no family")
        t["function"] = derive_function(spec.family)
        report["pass"] = True

    elif args.command == "dyadic":
        if spec.family is None:
            raise SpecFileError("the input file has no family")
        n = 1 if args.n is None else args.n
        t["function"] = dyadic_approximant(spec.family, n)
        t["n"] = n
        report["pass"] = True

    elif args.command == "verify":
        mu = _need(spec, "measures", args.mu)
        nu = _need(spec, "measures", args.nu)
        f = _need(spec, "functions", args.f)
        result = verify_rn(mu, nu, f)
        v["radon_nikodym"] = result.holds
        t["failures"] = [
            {"set": A, "mu": lhs, "integral": rhs}
            for A, lhs, rhs in result.failures
        ]
        report["pass"] = result.holds

    elif args.command == "solve":
        mu = _need(spec, "measures", args.mu)
        nu = _need(spec, "measures", args.nu)
        certificate = solve_rn(mu, nu)
        v["solvable"] = certificate.solvable
        if certificate.solvable:
            t["function"] = certificate.function
            t["chain"] = list(certificate.chain)
        else:
            if certificate.ac_witness:
                w["absolute_continuity"] = certificate.ac_witness
            t["chains_refuted"] = certificate.chains_refuted
        report["pass"] = certificate.solvable

    elif args.command == "classical":
        mu = _need(spec, "measures", args.mu)
        nu = _need(spec, "measures", args.nu)
        _classical(mu, nu, report)

    elif args.command == "sigma-finite":
        if spec.model is None:
            raise SpecFileError("the input file has no truncation model")
        _sigma_finite(spec.model, report)
        report["pass"] = all(v.values())

    return report


def _classical(mu, nu, report: dict) -> None:
    """The additive case end to end; passes iff every verdict holds."""
    v, w, t = report["verdicts"], report["witnesses"], report["tables"]
    result = classical_rn_check(mu, nu)
    v["abs_continuous"] = result.ac.holds
    v["holds"] = result.holds
    v["solver_agrees"] = result.solver_agrees
    if result.function is not None:
        t["function"] = result.function
    if result.ac.witness:
        w["abs_continuous"] = result.ac.witness
    report["pass"] = all(v.values())


def _sigma_finite(model, report: dict):
    """Glue and verify the threshold-tail density; returns it, or None."""
    v, t = report["verdicts"], report["tables"]
    glue = glue_derivative(model)
    v["glue"] = glue.holds
    v["finite_ae"] = glue.finite_ae
    if glue.function is not None:
        t["function"] = glue.function
        result = verify_sigma_finite(model, glue.function)
        v["verify"] = result.holds
        if result.sampled:
            t.setdefault("notes", {})["verify"] = result.note
    return glue.function


def _run_example(args, report: dict) -> None:
    v, t = report["verdicts"], report["tables"]
    if args.id == "ex-3-6":
        fx = fixture_f1()
        r1 = verify_rn(fx.mu, fx.nu, fx.f1)
        r2 = verify_rn(fx.mu, fx.nu, fx.f2)
        cmp_ = equal_ae(fx.f1, fx.f2, fx.nu)
        dec = check_decomposition(fx.mu, fx.nu, fx.family)
        v["f1_verifies"] = r1.holds
        v["f2_verifies"] = r2.holds
        v["decomposition"] = dec.holds
        v["equal_ae"] = cmp_.equal
        t["nu_mass_of_disagreement"] = cmp_.diff_measure
        t["f1"] = fx.f1
        t["f2"] = fx.f2
        # expected shape: two verifying densities that disagree everywhere
        report["pass"] = (
            r1.holds and r2.holds and dec.holds
            and not cmp_.equal and cmp_.diff_measure == 1
        )
    elif args.id == "ex-4-4":
        model = fixture_f4(8 if args.n is None else args.n)
        f = _sigma_finite(model, report)
        if f is not None:
            v["function_is_identity"] = all(
                f(a) == ExtReal(a) for a in model.deepest.atoms
            )
        report["pass"] = all(v.values())
    else:  # classical
        fx = fixture_f2()
        _classical(fx.mu, fx.nu, report)


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

    passed = bool(report.get("pass"))
    report["exit_status"] = EXIT_PASS if passed else EXIT_FAIL
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
