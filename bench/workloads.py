"""Seeded problem generators for the three benchmark workloads.

Each workload is one *pass*: a fixed list of requests that the client sends
in order, again and again, until the run's time is up.  Every request is the
argument list of one ``choquetrn.cli.main`` call on a generated problem file,
together with the exit status and report facts it must produce.  Expected
facts are known by construction or computed by ``oracle``; nothing here calls
the library.

Sizes are fixed per workload and only the numbers inside the tables depend on
the seed, so two seeds cost about the same (in ``sigma-finite`` the seed only
arranges fixed numbers).  Where the cost of a request
depends on where a search ends (the solver's first feasible chain), the seed
picks a point inside a fixed stratum, so each pass covers the whole range.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

import oracle

# Positive table increments; ZERO_STEPS also produces null sets.
STEPS = tuple(Fraction(a, b) for a in (1, 2, 3) for b in (1, 2, 3))
ZERO_STEPS = (Fraction(0),) * 3 + STEPS

CERTIFY_ATOMS = (8, 8, 9)   # one problem set per entry
CERTIFY_LEVELS = 4        # distinct positive density values
CERTIFY_NULL_ATOMS = 4    # props measures are null on every subset of these
DYADIC_N = 12
SOLVE_ATOMS = 6
SOLVE_FEASIBLE = 14       # feasible pairs per pass, one per rank stratum
# (kind, N_max) of each sigma-finite request.  At one N_max, cardinality
# pairs cost about half of the others, whose two kinds cost about the same.
# So in cost order the pass reads c6 < {f4 6, additive 6} < c7 < additive 7
# < c8 < f4 8: the median (4th of 7) and p75 (6th) each fall among the
# samples of one cardinality request, about 1.5 times apart in cost from its
# neighbours, whatever the seed.
SIGMA_PASS = (("f4", 6), ("additive", 6), ("cardinality", 6), ("additive", 7),
              ("cardinality", 7), ("cardinality", 8), ("f4", 8))
# The seed assigns these weights to atoms and orders the pair of scales, so
# every seed's tables hold numbers of the same sizes and cost the same: the
# cost of Fraction arithmetic, and with it a request's place in the cost
# order, would otherwise change with the seed.
SIGMA_WEIGHTS = tuple(Fraction(1 + 2 * i % 9, (1, 2, 4)[i % 3]) for i in range(9))
SIGMA_SCALES = (Fraction(5, 2), Fraction(4, 3))


@dataclass
class Request:
    kind: str
    argv: list
    exit_status: int
    check: Callable[[dict], bool]


def _q(x) -> str:
    return str(Fraction(x))


def _frac_map(names, values) -> dict:
    return {name: _q(v) for name, v in zip(names, values)}


def _explicit(table, names) -> dict:
    return {
        "rule": "explicit",
        "table": [
            {"set": oracle.members(mask, names), "value": _q(value)}
            for mask, value in sorted(table.items())
        ],
    }


def _level_family(f, names) -> dict:
    """The level-set family of f: {f > t} at each positive value t."""
    full = (1 << len(f)) - 1
    family = [{"alpha": "0", "set": list(names)}]
    for t in sorted({v for v in f if v > 0}):
        mask = sum(1 << i for i, v in enumerate(f) if v > t)
        family.append({"alpha": _q(t), "set": oracle.members(mask, names)})
    positive = sum(1 << i for i, v in enumerate(f) if v > 0)
    out = {"family": family}
    if positive != full:
        out["zero_plus"] = oracle.members(positive, names)
    return out


def _family_pairs(f) -> int:
    """Band pairs the decomposition check compares, from f alone."""
    full = (1 << len(f)) - 1
    levels = sorted({v for v in f if v > 0})
    band_sets = [full, sum(1 << i for i, v in enumerate(f) if v > 0)]
    band_sets += [sum(1 << i for i, v in enumerate(f) if v > t) for t in levels]
    return sum(
        1
        for p in range(len(band_sets))
        for q in range(p + 1, len(band_sets))
        if band_sets[p] != band_sets[q]
    )


def _density(rng, n, levels, zeros):
    values = set()
    while len(values) < levels:
        values.add(Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4))))
    pool = sorted(values)
    f = [Fraction(0)] * zeros + pool + [rng.choice(pool) for _ in range(n - zeros - levels)]
    rng.shuffle(f)
    return f


class _Files:
    """Writes problem files into one directory and keeps their byte count."""

    def __init__(self, directory):
        self.directory = directory
        self.bytes = 0
        self.entries = 0

    def write(self, name, problem) -> str:
        path = os.path.join(self.directory, name + ".json")
        text = json.dumps(problem, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.bytes += len(text.encode())
        for rule in problem.get("measures", {}).values():
            self.entries += len(rule.get("table", ()))
        return path


# -- report checks ------------------------------------------------------------

def _verdicts_are(expected):
    return lambda report: report["verdicts"] == expected


def _check_all(*checks):
    return lambda report: all(check(report) for check in checks)


def _density_checker(mu, nu, names):
    """Re-checks a returned density on every set with the oracle."""
    def check(report):
        table = report["tables"]["function"]
        f = [Fraction(table[name]) for name in names]
        return not oracle.density_failures(mu, nu, f, len(names))
    return check


# -- certify --------------------------------------------------------------------

def _certify_requests(rng, n, dyadic_n, files, tag):
    names = [f"x{i}" for i in range(n)]
    nu = oracle.random_monotone(rng, n, STEPS)
    f = _density(rng, n, CERTIFY_LEVELS, zeros=1)
    mu = oracle.indefinite(f, nu, n)
    g = list(f)
    g_failures = []
    while not g_failures:
        g[rng.randrange(n)] += Fraction(1, rng.choice((1, 2, 3)))
        g_failures = [oracle.members(m, names)
                      for m in oracle.density_failures(mu, nu, g, n)]

    pair = {
        "atoms": names,
        "measures": {"mu": _explicit(mu, names), "nu": _explicit(nu, names)},
        "functions": {"f": _frac_map(names, f), "g": _frac_map(names, g)},
        **_level_family(f, names),
    }
    pair_path = files.write(f"pair-{tag}", pair)

    null_atoms = sum(1 << i for i in rng.sample(range(n), CERTIFY_NULL_ATOMS))
    null_mu = oracle.random_monotone(rng, n, STEPS, zero_atoms=null_atoms)
    null_nu = oracle.random_monotone(rng, n, STEPS, zero_atoms=null_atoms)
    rand_mu = oracle.random_monotone(rng, n, ZERO_STEPS)
    rand_nu = oracle.random_monotone(rng, n, ZERO_STEPS)
    props_paths = []
    props_expected = []
    for label, a, b in (("null", null_mu, null_nu), ("random", rand_mu, rand_nu)):
        problem = {
            "atoms": names,
            "measures": {"mu": _explicit(a, names), "nu": _explicit(b, names)},
        }
        props_paths.append(files.write(f"props-{label}-{tag}", problem))
        expected = {}
        for name, m in (("mu", a), ("nu", b)):
            weak = oracle.weakly_null_additive(m)
            expected[f"{name}.weakly_null_additive"] = weak
            expected[f"{name}.null_additive"] = oracle.null_additive(m)
            expected[f"{name}.property_sigma"] = weak
        # on a finite space delta(eps) = 0 iff some nu-null set has mu >= eps,
        # so strong absolute continuity coincides with absolute continuity
        ac = oracle.abs_continuous(a, b)
        expected["abs_continuous"] = ac
        expected["strongly_abs_continuous"] = ac
        props_expected.append(expected)

    pairs = _family_pairs(f) << n
    full = (1 << n) - 1

    def decomposition_ok(report):
        records = report["tables"]["pairs"]
        return len(records) == pairs and all(r["ok"] for r in records)

    def failures_are(expected_sets):
        return lambda report: [
            r["set"] for r in report["tables"]["failures"]
        ] == expected_sets

    dyadic = dict(zip(names, map(_q, oracle.dyadic(f, dyadic_n))))
    value = _q(oracle.integral(f, nu, full))
    base = ["--input", pair_path]
    requests = [
        Request("verify-pass", ["verify"] + base, 0,
                _check_all(_verdicts_are({"radon_nikodym": True}), failures_are([]))),
        Request("verify-fail", ["verify", "--f", "g"] + base, 1,
                _check_all(_verdicts_are({"radon_nikodym": False}),
                           failures_are(g_failures))),
        Request("check-decomposition", ["check-decomposition"] + base, 0,
                _check_all(_verdicts_are({"decomposition": True, "tail": True,
                                          "tail_bound": True}),
                           decomposition_ok)),
        Request("integrate", ["integrate"] + base, 0,
                lambda report: report["tables"]["value"] == value),
        Request("dyadic", ["dyadic", "--n", str(dyadic_n)] + base, 0,
                lambda report: report["tables"]["function"] == dyadic),
    ]
    for label, path, expected in zip(("props-null", "props-random"), props_paths,
                                     props_expected):
        requests.append(
            Request(label, ["props", "--input", path], 0 if all(expected.values()) else 1,
                    _verdicts_are(expected))
        )
    return requests


def certify(seed, directory, atoms=CERTIFY_ATOMS, dyadic_n=DYADIC_N):
    rng = random.Random(seed)
    files = _Files(directory)
    per_size = [
        _certify_requests(rng, n, dyadic_n, files, f"{k}-{n}") for k, n in enumerate(atoms)
    ]
    requests = [r for group in zip(*per_size) for r in group]
    return requests, files


# -- solve ----------------------------------------------------------------------

def _unrank(rank, n):
    """The permutation of range(n) at ``rank`` in lexicographic order."""
    pool = list(range(n))
    out = []
    for k in range(n - 1, -1, -1):
        index, rank = divmod(rank, factorial(k))
        out.append(pool.pop(index))
    return out


def _solve_feasible(rng, n, rank, files, tag):
    """mu = integral of f d nu, where f increases along the chain at ``rank``.

    The solver tries maximal chains in lexicographic removal order; the chain
    that removes atoms by increasing f is feasible, so the search runs through
    about ``rank`` infeasible chains first.
    """
    names = [f"x{i}" for i in range(n)]
    nu = oracle.random_monotone(rng, n, STEPS)
    heights = set()
    while len(heights) < n:
        heights.add(Fraction(rng.randint(1, 20), rng.choice((1, 2, 3))))
    f = [Fraction(0)] * n
    for atom, height in zip(_unrank(rank, n), sorted(heights)):
        f[atom] = height
    mu = oracle.indefinite(f, nu, n)
    path = files.write(f"solve-feasible-{tag}", {
        "atoms": names,
        "measures": {"mu": _explicit(mu, names), "nu": _explicit(nu, names)},
    })
    return Request("solve-feasible", ["solve", "--input", path], 0,
                   _check_all(_verdicts_are({"solvable": True}),
                              _density_checker(mu, nu, names)))


def _solve_refuted(rng, n, ac_broken, files, tag):
    """A pair with no density, refuted by construction.

    AC broken: nu vanishes on a set where mu is positive, and every integral
    over a nu-null set is 0.  Unrelated mu: nu is positive on every singleton,
    which fixes any density to f(x) = mu({x}) / nu({x}); the oracle shows
    that this f fails on some set.
    """
    names = [f"x{i}" for i in range(n)]
    if ac_broken:
        null_atoms = sum(1 << i for i in rng.sample(range(n), 2))
        nu = oracle.random_monotone(rng, n, STEPS, zero_atoms=null_atoms)
        f = [Fraction(rng.randint(1, 20), rng.choice((1, 2, 3))) for _ in range(n)]
        bump = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        mu = {
            mask: value + (bump if mask & null_atoms else 0)
            for mask, value in oracle.indefinite(f, nu, n).items()
        }
    else:
        nu = oracle.random_monotone(rng, n, STEPS)
        while True:
            mu = oracle.random_monotone(rng, n, STEPS)
            forced = [mu[1 << i] / nu[1 << i] for i in range(n)]
            if oracle.density_failures(mu, nu, forced, n):
                break
    path = files.write(f"solve-refuted-{tag}", {
        "atoms": names,
        "measures": {"mu": _explicit(mu, names), "nu": _explicit(nu, names)},
    })

    def witness_ok(report):
        witness = report["witnesses"].get("absolute_continuity")
        if not ac_broken:
            return witness is None
        mask = sum(1 << names.index(a) for a in witness["sets"][0])
        return nu[mask] == 0 and mu[mask] > 0

    def chains_ok(report):
        return report["tables"]["chains_refuted"] == factorial(n)

    kind = "solve-refuted-ac" if ac_broken else "solve-refuted-random"
    return Request(kind, ["solve", "--input", path], 1,
                   _check_all(_verdicts_are({"solvable": False}), witness_ok, chains_ok))


def solve(seed, directory, n=SOLVE_ATOMS, feasible=SOLVE_FEASIBLE):
    rng = random.Random(seed)
    files = _Files(directory)
    stratum = factorial(n) // feasible
    ranks = [k * stratum + rng.randrange(stratum) for k in range(feasible)]
    rng.shuffle(ranks)
    feasible_requests = [
        _solve_feasible(rng, n, rank, files, f"{k}") for k, rank in enumerate(ranks)
    ]
    requests = []
    for k in range(0, feasible, 2):
        requests += feasible_requests[k:k + 2]
        requests.append(_solve_refuted(rng, n, ac_broken=(k // 2) % 2 == 0,
                                       files=files, tag=f"{k // 2}"))
    return requests, files


# -- sigma-finite -----------------------------------------------------------------

def _sigma_tables(rule, n_atoms):
    """The rule's table on the prefix {0, ..., n_atoms - 1}."""
    name = rule["rule"]
    table = {}
    for mask in range(1 << n_atoms):
        atoms = [i for i in range(n_atoms) if mask >> i & 1]
        if name == "max_element":
            table[mask] = Fraction(max(atoms, default=0))
        elif name == "indicator_nonempty":
            table[mask] = Fraction(1 if atoms else 0)
        elif name == "additive_sequence":
            table[mask] = sum((Fraction(rule["weights"][i]) for i in atoms), Fraction(0))
        else:  # cardinality
            table[mask] = Fraction(rule["scale"]) * len(atoms)
    return table


def _sigma_request(kind, n_max, mu_rule, nu_rule, files, tag):
    path = files.write(f"sigma-{kind}-{tag}", {
        "truncations": {
            "N_max": n_max,
            "measures": {"mu": mu_rule, "nu": nu_rule},
            "family": "threshold_tail",
        }
    })
    files.entries += 2 * sum(1 << (d + 1) for d in range(1, n_max + 1))
    argv = ["sigma-finite", "--input", path]
    if kind == "cardinality":
        # the threshold-tail family derives f(x) = x, but the only density of
        # a cardinality pair is the constant ratio of the scales
        return Request(f"sigma-cardinality-{n_max}", argv, 1,
                       _verdicts_are({"glue": False, "finite_ae": True}))

    def glued_density_ok(report):
        table = report["tables"]["function"]
        f = [Fraction(table[str(i)]) for i in range(n_max + 1)]
        for depth in range(2, n_max + 2):
            mu = _sigma_tables(mu_rule, depth)
            nu = _sigma_tables(nu_rule, depth)
            if oracle.density_failures(mu, nu, f[:depth], depth):
                return False
        return True

    return Request(f"sigma-{kind}-{n_max}", argv, 0,
                   _check_all(_verdicts_are({"glue": True, "finite_ae": True,
                                             "verify": True}),
                              glued_density_ok))


def sigma_finite(seed, directory, plan=SIGMA_PASS):
    rng = random.Random(seed)
    files = _Files(directory)
    requests = []
    for kind, n_max in plan:
        if kind == "f4":
            mu, nu = {"rule": "max_element"}, {"rule": "indicator_nonempty"}
        elif kind == "additive":
            weights = rng.sample(SIGMA_WEIGHTS[:n_max + 1], n_max + 1)
            mu = {"rule": "additive_sequence",
                  "weights": [_q(i * w) for i, w in enumerate(weights)]}
            nu = {"rule": "additive_sequence", "weights": [_q(w) for w in weights]}
        else:
            mu_scale, nu_scale = rng.sample(SIGMA_SCALES, 2)
            mu = {"rule": "cardinality", "scale": _q(mu_scale)}
            nu = {"rule": "cardinality", "scale": _q(nu_scale)}
        requests.append(_sigma_request(kind, n_max, mu, nu, files, f"{n_max}"))
    rng.shuffle(requests)
    return requests, files


@dataclass(frozen=True)
class Spec:
    build: Callable            # (seed, directory, **sizes) -> (requests, files)
    warmup: dict               # sizes of the small warm-up pass
    min_passes: int            # passes every run completes, however long


# min_passes makes every run hold enough samples for the tail percentile the
# workload reports (see run.tail_percentile), whatever the machine's speed.
# Passes have an odd length (21, 21, 7), so each reported percentile falls in
# the middle of one request's repeated samples, not on the edge between two
# requests whose order can change from seed to seed.
WORKLOADS = {
    "certify": Spec(certify, {"atoms": (6,), "dyadic_n": 4}, min_passes=5),
    "solve": Spec(solve, {"n": 3, "feasible": 2}, min_passes=2),
    "sigma-finite": Spec(sigma_finite, {"plan": (("f4", 3), ("additive", 3), ("cardinality", 3))},
                         min_passes=6),
}
