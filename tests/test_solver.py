"""Density existence decisions, the Moebius solver and the additive pathway."""

import random
from fractions import Fraction
from itertools import product

import pytest

from choquetrn import (
    ClassicalReport,
    ExtReal,
    MonotoneMeasure,
    NotAbsolutelyContinuousError,
    NotAdditiveError,
    PreconditionError,
    ZERO,
    abs_continuous,
    additive_measure,
    build_space,
    check_decomposition,
    choquet_value,
    classical_family,
    classical_rn_check,
    constant_function,
    density_ratios,
    derive_function,
    equal_ae,
    fixture_f1,
    fixture_f2,
    fixture_f3,
    hahn_positive_set,
    indefinite_integral_measure,
    measure_from_table,
    solve_rn,
    verify_rn,
    zero_measure,
)
from support import (
    chain_solve,
    coarsened,
    exhaustive_solve,
    null_heavy_measure,
    per_set_verify_rn,
    prime_denominator_measure,
    random_additive_measure,
    random_monotone_measure,
    random_simple_function,
    random_space,
)


class TestSolveRn:
    def test_showcase_pair_is_solvable_with_constant_density(self):
        fx = fixture_f1()
        cert = solve_rn(fx.mu, fx.nu)
        assert cert.solvable
        assert cert.function == constant_function(fx.space, 1)
        assert cert.verification.holds
        assert cert.family is not None
        assert check_decomposition(fx.mu, fx.nu, cert.family).holds

    def test_showcase_density_is_the_least(self):
        """The constant 1 lies below both of the fixture's densities."""
        fx = fixture_f1()
        g = solve_rn(fx.mu, fx.nu).function
        for f in (fx.f1, fx.f2):
            assert verify_rn(fx.mu, fx.nu, f).holds
            assert all(v >= w for v, w in zip(f.values, g.values))

    def test_unsolvable_pair_refutes_off_the_support(self):
        fx = fixture_f3()
        cert = solve_rn(fx.mu, fx.nu)
        assert not cert.solvable
        assert cert.note == "m_mu({1}) = 1/2 but m_nu({1}) = 0"
        assert cert.function is None

    def test_refutation_names_a_negative_ratio(self):
        """m_nu({a,b}) = -1 against m_mu({a,b}) = 1: min_{a,b} f would be -1."""
        space = build_space(["a", "b"])
        mu = measure_from_table(space, {(): 0, ("a",): 0, ("b",): 0, ("a", "b"): 1})
        nu = measure_from_table(space, {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 1})
        cert = solve_rn(mu, nu)
        assert not cert.solvable
        assert cert.note == "m_mu({a,b}) / m_nu({a,b}) = -1 < 0"

    def test_refutation_names_a_set_whose_minimum_is_off(self):
        """r is 2 on {a} and {b} but 1 on {a,b}, so g = 2 is too large there."""
        space = build_space(["a", "b"])
        mu = measure_from_table(space, {(): 0, ("a",): 2, ("b",): 2, ("a", "b"): 5})
        nu = measure_from_table(space, {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3})
        cert = solve_rn(mu, nu)
        assert not cert.solvable
        assert cert.note == ("min of g over {a,b} is 2 "
                             "but m_mu({a,b}) / m_nu({a,b}) = 1")

    def test_constructed_instances_always_solve(self):
        rng = random.Random(31)
        for _ in range(150):
            space = random_space(rng, 2, 4)
            nu = random_monotone_measure(space, rng)
            f = random_simple_function(space, rng)
            mu = indefinite_integral_measure(f, nu)
            cert = solve_rn(mu, nu)
            assert cert.solvable
            assert cert.verification.holds
            # the certificate function reproduces mu exactly, even if it is
            # not the f we started from
            assert verify_rn(mu, nu, cert.function).holds

    def test_refutations_cross_checked_by_value_grid(self):
        """On 2 atoms, compare the solver's verdict against a brute-force
        search over candidate densities on the instance's own value grid.

        Any density is determined by a removal order and nondecreasing
        heights; on 2 atoms with all measure values in a finite grid, the
        candidate heights can be bounded by the largest mu/nu ratio, so the
        grid search is complete for these instances.
        """
        rng = random.Random(32)
        space = build_space(["a", "b"])
        A_a = space.make_set(["a"])
        A_b = space.make_set(["b"])
        for _ in range(60):
            mu = random_monotone_measure(space, rng, max_step=2, denominators=(1, 2))
            nu = random_monotone_measure(space, rng, max_step=2, denominators=(1, 2))
            cert = solve_rn(mu, nu)

            ma = mu(A_a).as_fraction()
            mb = mu(A_b).as_fraction()
            mU = mu(space.full_set).as_fraction()
            na = nu(A_a).as_fraction()
            nb = nu(A_b).as_fraction()
            nU = nu(space.full_set).as_fraction()
            found = None
            candidates = [Fraction(k, 4) for k in range(0, 65)]
            for va in [va for va in candidates if va * na == ma]:
                for vb in [vb for vb in candidates if vb * nb == mb]:
                    lo, hi = min(va, vb), max(va, vb)
                    top = na if va >= vb else nb
                    if lo * nU + (hi - lo) * top == mU:
                        found = (va, vb)
                        break
                if found:
                    break
            if found is not None:
                assert cert.solvable, (
                    f"solver missed a density {found} for mu, nu"
                )
            if cert.solvable:
                assert verify_rn(mu, nu, cert.function).holds

    def test_unsolvable_reports_ac_witness_when_one_exists(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": 1, "b": 0})
        mu = additive_measure(space, {"a": 1, "b": 1})
        cert = solve_rn(mu, nu)
        assert not cert.solvable
        assert cert.ac_witness is not None
        (A,) = cert.ac_witness.sets
        assert nu(A) == ZERO and mu(A) != ZERO

    def test_infinite_measures_rejected(self):
        space = build_space(["a"])
        m = measure_from_table(space, {(): 0, ("a",): "inf"})
        with pytest.raises(PreconditionError):
            solve_rn(m, m)

    def test_deterministic_certificates(self):
        fx = fixture_f1()
        a = solve_rn(fx.mu, fx.nu)
        b = solve_rn(fx.mu, fx.nu)
        assert a == b


NU_KINDS = {
    "generic": random_monotone_measure,
    "null-heavy": null_heavy_measure,
    "additive": random_additive_measure,
    "zero": lambda space, rng: zero_measure(space),
    "large-denominator": prime_denominator_measure,
}


def _bumped(mu, rng):
    """mu plus 1/7 on every superset of one random nonempty set, which moves
    m_mu by 1/7 on that set alone."""
    space = mu.space
    picked = rng.randrange(1, space.n_subsets())
    B = sum(block for i, block in enumerate(space.blocks) if picked >> i & 1)
    return measure_from_table(
        space,
        {A: mu(A) + (Fraction(1, 7) if A.mask & B == B else 0)
         for A in space.subsets()},
    )


def _cases(spaces, nu_kinds=tuple(NU_KINDS)):
    """One (space, nu kind, mu kind) per space and nu kind, mu taking in
    turn integral f dnu, that bumped, and an unrelated measure."""
    mu_kinds = ("integral", "bumped", "unrelated")
    return [(space, nu_kind, mu_kinds[i % 3])
            for i, (space, nu_kind) in enumerate(product(spaces, nu_kinds))]


def _check_against(oracle, rng, cases):
    """The decision against ``oracle`` on one seeded pair per case.

    The verdicts agree, the density g passes the per-set check, the
    oracle's density is at least g, and g = f nu-a.e. for the f that built
    mu.  Returns the number of solvable pairs."""
    solvable = 0
    for space, nu_kind, mu_kind in cases:
        nu = NU_KINDS[nu_kind](space, rng)
        f = random_simple_function(space, rng)
        mu = indefinite_integral_measure(f, nu)
        if mu_kind == "bumped":
            mu, f = _bumped(mu, rng), None
        elif mu_kind == "unrelated":
            mu, f = random_monotone_measure(space, rng), None
        cert = solve_rn(mu, nu)
        _, density = oracle(mu, nu)
        assert cert.solvable == (density is not None), (nu_kind, mu_kind)
        if f is not None:
            assert cert.solvable, (nu_kind, mu_kind)
        if cert.solvable:
            g = cert.function
            assert per_set_verify_rn(mu, nu, g).holds
            assert all(v >= w for v, w in zip(density.values, g.values))
            if f is not None:
                assert equal_ae(f, g, nu).equal
        solvable += cert.solvable
    return solvable


def _chain_searches(mu, nu):
    """``exhaustive_solve``, checked against ``chain_solve``."""
    result = exhaustive_solve(mu, nu)
    assert chain_solve(mu, nu) == result
    return result


class TestPrefixPruning:
    """The Moebius decision against the maximal-chain searches of
    ``tests/support.py``: the exhaustive one, which ``chain_solve``'s
    pruned search must match, up to 6 atoms and ``chain_solve`` beyond."""

    @pytest.mark.parametrize("n, trials", [(2, 8), (3, 8), (4, 6), (5, 3), (6, 2)])
    def test_matches_exhaustive_search(self, n, trials):
        rng = random.Random(3500 + n)
        space = build_space([f"x{i}" for i in range(n)])
        cases = _cases([space] * trials)
        assert 0 < _check_against(_chain_searches, rng, cases) < len(cases)

    @pytest.mark.parametrize("n, trials", [(3, 8), (4, 6), (5, 4), (6, 2)])
    def test_matches_exhaustive_search_rank_deficient(self, n, trials):
        """Coarsened spaces: null blocks leave free columns in the chain
        systems and empty sets in S."""
        rng = random.Random(3600 + n)
        atoms = build_space([f"x{i}" for i in range(n)])
        cases = _cases([coarsened(atoms, rng) for _ in range(trials)])
        assert 0 < _check_against(_chain_searches, rng, cases) < len(cases)

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_matches_chain_search(self, n):
        rng = random.Random(3700 + n)
        atoms = build_space([f"x{i}" for i in range(n)])
        kinds = [k for k in NU_KINDS if k != "large-denominator"]
        _check_against(chain_solve, rng, _cases([atoms, coarsened(atoms, rng)], kinds))

    def test_large_denominators_match_chain_search(self):
        """10 atoms, each set's nu value with its own prime above 100000 in
        its denominator: an lcm of about 17,500 bits."""
        rng = random.Random(3710)
        atoms = build_space([f"x{i}" for i in range(10)])
        assert _check_against(
            chain_solve, rng, [(atoms, "large-denominator", "integral")]) == 1

    def test_null_heavy_pair_skips_one_path_of_children(self):
        """A 9-atom null-heavy pair with a density: g verifies on every set
        and lies below the f that built mu."""
        rng = random.Random(9)
        space = build_space([f"x{i}" for i in range(9)])
        nu = null_heavy_measure(space, rng)
        f = random_simple_function(space, rng)
        mu = indefinite_integral_measure(f, nu)
        cert = solve_rn(mu, nu)
        assert cert.solvable
        assert verify_rn(mu, nu, cert.function).holds
        assert all(v >= w for v, w in zip(f.values, cert.function.values))


class TestHahn:
    def test_positive_set_properties(self):
        rng = random.Random(33)
        for _ in range(100):
            space = random_space(rng, 2, 4)
            mu = random_additive_measure(space, rng)
            nu = random_additive_measure(space, rng)
            tau = Fraction(rng.randrange(0, 5), rng.choice([1, 2]))
            P = hahn_positive_set(mu, nu, tau)
            N = P.complement()
            t = ExtReal(tau)
            for A in space.subsets():
                assert mu(A & P) >= t * nu(A & P)
                inside = A & N
                assert mu(inside) <= t * nu(inside)

    def test_requires_additive(self):
        fx = fixture_f1()  # indicator measures are not additive
        with pytest.raises(NotAdditiveError):
            hahn_positive_set(fx.mu, fx.nu, 1)

    def test_infinite_measure_is_refused_as_infinite(self):
        space = build_space(["a", "b"])
        infinite = additive_measure(space, {"a": "inf", "b": 1})
        finite = additive_measure(space, {"a": 1, "b": 1})
        for mu, nu in ((infinite, finite), (finite, infinite)):
            with pytest.raises(PreconditionError) as err:
                classical_rn_check(mu, nu)
            assert not isinstance(err.value, NotAdditiveError)
            assert str(err.value) == "the classical pathway requires finite measures"

    def test_tau_validation(self):
        fx = fixture_f2()
        with pytest.raises(ValueError):
            hahn_positive_set(fx.mu, fx.nu, -1)

    def test_positive_sets_decrease_in_tau(self):
        fx = fixture_f2()
        sets = [hahn_positive_set(fx.mu, fx.nu, t) for t in (0, 1, 2, 3, 5, 6)]
        for big, small in zip(sets, sets[1:]):
            assert small.issubset(big)


class TestClassicalPathway:
    def test_weighted_pair_end_to_end(self):
        fx = fixture_f2()
        report = classical_rn_check(fx.mu, fx.nu)
        assert report.holds
        assert report.ac.holds
        assert report.function == fx.f
        assert report.decomposition.holds
        assert report.verification.holds
        assert report.ratio_match.equal
        assert report.solver_agrees

    def test_each_check_runs_once(self, monkeypatch):
        """Additivity once per measure, absolute continuity once, and the
        report the public steps build."""
        import choquetrn.solver as solver_module

        fx = fixture_f2()
        expected_family = classical_family(fx.mu, fx.nu)
        f = derive_function(expected_family)
        expected = ClassicalReport(
            holds=True,
            ac=abs_continuous(fx.mu, fx.nu),
            family=expected_family,
            decomposition=check_decomposition(fx.mu, fx.nu, expected_family),
            function=f,
            verification=verify_rn(fx.mu, fx.nu, f),
            ratio_match=equal_ae(f, density_ratios(fx.mu, fx.nu), fx.nu),
            solver_agrees=True,
        )
        calls = []
        is_additive = MonotoneMeasure.is_additive
        monkeypatch.setattr(MonotoneMeasure, "is_additive",
                            lambda m: calls.append("is_additive") or is_additive(m))
        monkeypatch.setattr(
            solver_module, "abs_continuous",
            lambda mu, nu: calls.append("abs_continuous") or abs_continuous(mu, nu))
        assert classical_rn_check(fx.mu, fx.nu) == expected
        assert sorted(calls) == ["abs_continuous", "is_additive", "is_additive"]

    def test_ratio_function(self):
        fx = fixture_f2()
        r = density_ratios(fx.mu, fx.nu)
        assert r("a") == 2 and r("b") == 5

    def test_classical_family_equals_level_family_of_ratios(self):
        fx = fixture_f2()
        family = classical_family(fx.mu, fx.nu)
        assert family.thresholds == (Fraction(0), Fraction(2), Fraction(5))
        assert family.sets[1].atom_names() == ("b",)
        assert family.sets[2].is_empty
        assert derive_function(family) == fx.f

    def test_classical_family_rejects_non_ac_pairs(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": 1, "b": 0})
        mu = additive_measure(space, {"a": 1, "b": 2})
        with pytest.raises(NotAbsolutelyContinuousError) as err:
            classical_family(mu, nu)
        (A,) = err.value.witness.sets
        assert nu(A) == ZERO and mu(A) != ZERO

    def test_non_ac_pair_agrees_with_solver(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": 1, "b": 0})
        mu = additive_measure(space, {"a": 1, "b": 2})
        report = classical_rn_check(mu, nu)
        assert not report.holds
        assert not report.ac.holds
        assert report.solver_agrees  # solve_rn also says unsolvable

    @pytest.mark.parametrize("ac_pair", [True, False])
    def test_solver_agreement_is_computed(self, monkeypatch, ac_pair):
        """solver_agrees comes from running solve_rn, in both branches."""
        import choquetrn.solver as solver_module

        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": 1, "b": 0 if not ac_pair else 1})
        mu = additive_measure(space, {"a": 1, "b": 2})
        assert classical_rn_check(mu, nu).solver_agrees
        # a certificate with the opposite verdict, from a fixed other pair
        other = fixture_f3() if ac_pair else fixture_f1()
        wrong = solve_rn(other.mu, other.nu)
        assert wrong.solvable != ac_pair
        calls = []

        def contrary(m, n):
            calls.append((m, n))
            return wrong

        monkeypatch.setattr(solver_module, "solve_rn", contrary)
        report = classical_rn_check(mu, nu)
        assert calls == [(mu, nu)]
        assert report.ac.holds == ac_pair
        assert not report.solver_agrees

    def test_randomized_ac_pairs(self):
        rng = random.Random(34)
        for _ in range(80):
            space = random_space(rng, 2, 4)
            nu = random_additive_measure(space, rng)
            f = random_simple_function(space, rng)
            # force absolute continuity: zero the density on nu-null atoms
            vals = [
                v if nu.block_value(i) != ZERO else ZERO
                for i, v in enumerate(f.values)
            ]
            from choquetrn import SimpleFunction

            f = SimpleFunction(space, tuple(vals))
            mu = indefinite_integral_measure(f, nu)
            assert mu.is_additive()
            report = classical_rn_check(mu, nu)
            assert report.holds
            assert report.solver_agrees
            assert equal_ae(report.function, f, nu).equal
