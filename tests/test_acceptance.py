"""Acceptance suite: ten exact, desk-scale criteria.

Each test prints one ``criterion N: PASS``/``FAIL`` line (through the capture
layer, so the lines are visible in normal pytest runs) and asserts the
criterion at its stated tolerance -- which is everywhere exact equality,
plus two wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from choquetrn import (
    ExtReal,
    SimpleFunction,
    ZERO,
    abs_continuous,
    additive_measure,
    check_decomposition,
    choquet_value,
    classical_family,
    classical_rn_check,
    constant_function,
    density_ratios,
    derive_function,
    dyadic_approximant,
    equal_ae,
    family_from_function,
    fixture_f1,
    fixture_f4,
    glue_derivative,
    has_property_sigma,
    indefinite_integral_measure,
    indicator_function,
    is_comonotone,
    lemma_tail_check,
    solve_rn,
    strongly_abs_continuous,
    verify_rn,
    verify_sigma_finite,
)
from support import (
    choquet_oracle,
    random_additive_measure,
    random_monotone_measure,
    random_simple_function,
    random_space,
)


def report(capsys, number, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"criterion {number}: {status}{suffix}")
    assert ok, f"criterion {number} failed{': ' + detail if detail else ''}"


@pytest.fixture(scope="module")
def constructed_instances():
    """500 (space, nu, f, mu, family) instances on 2-5 atoms with mu the
    indefinite integral of f; shared across criteria 3, 4, 5, 9 and 10."""
    rng = random.Random(20260823)
    out = []
    for _ in range(500):
        space = random_space(rng, 2, 5)
        nu = random_monotone_measure(space, rng)
        f = random_simple_function(space, rng)  # values k/d, d in {1,2,4}, k<=6*d
        mu = indefinite_integral_measure(f, nu)
        family = family_from_function(f)
        out.append((space, nu, f, mu, family))
    return out


def test_criterion_01_two_densities_on_four_points(capsys):
    start = time.perf_counter()
    fx = fixture_f1()
    r1 = verify_rn(fx.mu, fx.nu, fx.f1)
    r2 = verify_rn(fx.mu, fx.nu, fx.f2)
    cmp_ = equal_ae(fx.f1, fx.f2, fx.nu)
    elapsed = time.perf_counter() - start
    ok = (
        r1.holds and r1.checked == 16
        and r2.holds and r2.checked == 16
        and not cmp_.equal
        and cmp_.diff_measure == 1
        and elapsed < 1.0
    )
    report(capsys, 1, ok, f"{elapsed:.3f}s")


def test_criterion_02_sigma_finite_truncation_model(capsys):
    start = time.perf_counter()
    model = fixture_f4(8)
    glue = glue_derivative(model)
    identity = glue.holds and all(
        glue.function(a) == ExtReal(Fraction(a)) for a in model.deepest.atoms
    )
    every_depth = glue.per_truncation == (True,) * len(model.depths)
    check = verify_sigma_finite(model, glue.function) if glue.holds else None
    elapsed = time.perf_counter() - start
    ok = (
        identity
        and every_depth
        and check is not None and check.holds
        # every set of the 9-atom top level, none failing
        and check.checked == 512 and check.records == ()
        and elapsed < 5.0
    )
    report(capsys, 2, ok, f"{elapsed:.3f}s")


def test_criterion_03_round_trip_and_solver(capsys, constructed_instances):
    failures = 0
    for space, nu, f, mu, family in constructed_instances:
        decomposition = check_decomposition(mu, nu, family)
        round_trip = derive_function(family) == f
        cert = solve_rn(mu, nu)
        good = (
            decomposition.holds and decomposition.tail_ok
            and round_trip
            and cert.solvable and cert.verification.holds
        )
        failures += 0 if good else 1
    report(capsys, 3, failures == 0, f"{len(constructed_instances)} instances")


def test_criterion_04_derive_verifies_exactly(capsys, constructed_instances):
    failures = 0
    for space, nu, f, mu, family in constructed_instances:
        if not verify_rn(mu, nu, derive_function(family)).holds:
            failures += 1
    report(capsys, 4, failures == 0, f"{len(constructed_instances)} instances")


def test_criterion_05_decomposition_implies_absolute_continuity(
    capsys, constructed_instances
):
    checked = 0
    violations = 0
    for space, nu, f, mu, family in constructed_instances:
        if not check_decomposition(mu, nu, family).holds:
            continue
        checked += 1
        if not abs_continuous(mu, nu).holds:
            violations += 1
        if not strongly_abs_continuous(mu, nu).holds:
            violations += 1
    report(
        capsys, 5, checked > 0 and violations == 0,
        f"{checked} passing instances, {violations} violations",
    )


def test_criterion_06_uniqueness_dichotomy(capsys):
    ok = True

    # with property (sigma): null perturbations stay equal a.e.
    rng = random.Random(6)
    for _ in range(60):
        space = random_space(rng, 2, 4)
        nu = random_additive_measure(space, rng, allow_null_atoms=False)
        # force one null atom
        weights = {a: nu.block_value(i) for i, a in enumerate(space.atoms)}
        null_atom = space.atoms[rng.randrange(len(space.atoms))]
        weights[null_atom] = 0
        nu = additive_measure(space, weights)
        if not has_property_sigma(nu).holds:
            ok = False
        f = random_simple_function(space, rng)
        mu = indefinite_integral_measure(f, nu)
        vals = list(f.values)
        i = space.block_index_of(null_atom)
        vals[i] = vals[i] + ExtReal(rng.randrange(1, 4))
        g = SimpleFunction(space, tuple(vals))
        if not (verify_rn(mu, nu, f).holds and verify_rn(mu, nu, g).holds):
            ok = False
        if not equal_ae(f, g, nu).equal:
            ok = False

    # without property (sigma): genuinely distinct densities coexist
    fx = fixture_f1()
    if has_property_sigma(fx.nu).holds:
        ok = False
    if not (verify_rn(fx.mu, fx.nu, fx.f1).holds
            and verify_rn(fx.mu, fx.nu, fx.f2).holds):
        ok = False
    if equal_ae(fx.f1, fx.f2, fx.nu).equal:
        ok = False

    report(capsys, 6, ok)


def test_criterion_07_classical_additive_pathway(capsys):
    rng = random.Random(7)
    failures = 0

    for _ in range(200):
        space = random_space(rng, 2, 5)
        nu = random_additive_measure(space, rng)
        f = random_simple_function(space, rng)
        vals = tuple(
            v if nu.block_value(i) != ZERO else ZERO
            for i, v in enumerate(f.values)
        )
        f = SimpleFunction(space, vals)
        mu = indefinite_integral_measure(f, nu)
        family = classical_family(mu, nu)
        derived = derive_function(family)
        good = (
            check_decomposition(mu, nu, family).holds
            and equal_ae(derived, density_ratios(mu, nu), nu).equal
            and verify_rn(mu, nu, derived).holds
        )
        failures += 0 if good else 1

    refuted = 0
    for _ in range(50):
        space = random_space(rng, 2, 4)
        weights = {a: Fraction(rng.randrange(0, 4)) for a in space.atoms}
        null_atom = space.atoms[rng.randrange(len(space.atoms))]
        weights[null_atom] = 0
        nu = additive_measure(space, weights)
        mu_w = {a: Fraction(rng.randrange(0, 4)) for a in space.atoms}
        mu_w[null_atom] = Fraction(rng.randrange(1, 4))  # breaks mu << nu
        mu = additive_measure(space, mu_w)
        classical = classical_rn_check(mu, nu)
        cert = solve_rn(mu, nu)
        if not classical.holds and not cert.solvable and classical.solver_agrees:
            refuted += 1

    report(
        capsys, 7, failures == 0 and refuted == 50,
        f"200 solvable, {refuted}/50 refuted",
    )


def test_criterion_08_choquet_property_suite(capsys):
    rng = random.Random(8)
    counts = {k: 0 for k in
              ("i", "ii", "iii", "iv", "v", "vi", "comonotone", "oracle")}
    ok = True

    for _ in range(1000):
        space = random_space(rng, 2, 4)
        nu = random_monotone_measure(space, rng)
        f = random_simple_function(space, rng)
        sets = list(space.subsets())
        A = sets[rng.randrange(len(sets))]

        # (i) integrals vanish on nu-null sets
        null = next(iter(nu.null_sets()))
        ok &= choquet_value(f, nu, null) == ZERO
        counts["i"] += 1

        # (ii) monotone in the integrand
        g = f + random_simple_function(space, rng, max_num=3)
        ok &= choquet_value(f, nu, A) <= choquet_value(g, nu, A)
        counts["ii"] += 1

        # (iii) positive homogeneity
        c = ExtReal(Fraction(rng.randrange(0, 7), rng.choice([1, 2, 3])))
        ok &= choquet_value(f.scale(c), nu, A) == c * choquet_value(f, nu, A)
        counts["iii"] += 1

        # (iv) indicators recover the measure
        ok &= choquet_value(indicator_function(A), nu, A) == nu(A)
        counts["iv"] += 1

        # (v) restriction to a set equals multiplying by its indicator
        ok &= choquet_value(f, nu, A) == choquet_value(f.restrict(A), nu)
        counts["v"] += 1

        # (vi) capped integrals climb to the integral and land exactly
        target = choquet_value(f, nu, A)
        caps = [choquet_value(f.cap(n), nu, A) for n in range(1, 8)]
        ok &= all(x <= y for x, y in zip(caps, caps[1:])) and caps[-1] == target
        counts["vi"] += 1

        # comonotonic additivity
        h = f.scale(Fraction(rng.randrange(0, 3), rng.choice([1, 2]))) + \
            constant_function(space, rng.randrange(0, 3))
        ok &= is_comonotone(f, h).holds
        ok &= choquet_value(f + h, nu) == \
            choquet_value(f, nu) + choquet_value(h, nu)
        counts["comonotone"] += 1

        # independent brute-force oracle
        ok &= choquet_value(f, nu, A) == choquet_oracle(f, nu, A)
        counts["oracle"] += 1

    ok = ok and all(v >= 1000 for v in counts.values())
    report(capsys, 8, bool(ok), "1000 checks per property")


def test_criterion_09_tail_bound(capsys, constructed_instances):
    violations = 0
    for space, nu, f, mu, family in constructed_instances:
        if not lemma_tail_check(mu, nu, family):
            violations += 1
    report(capsys, 9, violations == 0, f"{len(constructed_instances)} instances")


def test_criterion_10_dyadic_sandwich(capsys, constructed_instances):
    ok = True
    for space, nu, f, mu, family in constructed_instances:
        for n in range(1, 9):
            fn = dyadic_approximant(family, n)
            eps = ExtReal(Fraction(1, 1 << n))
            cap_n = f.cap(n)
            for i in range(space.n_blocks):
                # f wedge n - 2^-n <= f_n <= f, written subtraction-free
                ok &= fn.values[i] <= f.values[i]
                ok &= cap_n.values[i] <= fn.values[i] + eps
            for A in space.subsets():
                ok &= choquet_value(fn, nu, A) <= mu(A)
            if n >= 7:
                # the instance values are k/d with d | 4 and k/d <= 6, so the
                # grid resolves every breakpoint and n clears every value
                ok &= fn == f
                full = space.full_set
                ok &= choquet_value(fn, nu, full) == mu(full)
    report(capsys, 10, bool(ok), "n = 1..8 on every instance")
