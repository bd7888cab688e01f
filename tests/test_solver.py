"""Density existence decisions, the chain solver and the additive pathway."""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial

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
    cardinality_measure,
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
    indicator_full_measure,
    measure_from_table,
    solve_rn,
    verify_rn,
)
from support import (
    check_chain_records,
    coarsened,
    exhaustive_solve,
    null_heavy_measure,
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

    def test_unsolvable_pair_refutes_every_chain(self):
        fx = fixture_f3()
        cert = solve_rn(fx.mu, fx.nu)
        assert not cert.solvable
        assert len(cert.chain_records) == 2  # 2! maximal chains
        check_chain_records(fx.mu, fx.nu, cert.chain_records)
        assert cert.function is None

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
        assert a.function == b.function and a.chain == b.chain


def _ac_broken_pair(space, rng):
    """nu ignores one atom; mu adds mass on every set holding it."""
    null_bit = space.blocks[rng.randrange(space.n_blocks)]
    base = random_monotone_measure(space, rng)
    nu = measure_from_table(
        space, {A: base.value_of_mask(A.mask & ~null_bit) for A in space.subsets()}
    )
    mu0 = indefinite_integral_measure(random_simple_function(space, rng), nu)
    bump = Fraction(rng.randrange(1, 4), rng.choice((1, 2)))
    mu = measure_from_table(
        space,
        {A: mu0(A) + (bump if A.mask & null_bit else 0) for A in space.subsets()},
    )
    return mu, nu


def _pair(kind, space, rng, make_nu=random_monotone_measure):
    if kind == "ac-broken":
        return _ac_broken_pair(space, rng)
    nu = make_nu(space, rng)
    if kind == "solvable":
        return indefinite_integral_measure(random_simple_function(space, rng), nu), nu
    return random_monotone_measure(space, rng), nu


def _extends(order, prefix):
    return order[:len(prefix)] == prefix


def _check_against_exhaustive(mu, nu, kind):
    """The pruned search finds the exhaustive search's chain and density,
    its records pass the independent checker and rule out exactly the
    chains tried before it; returns the number of prefix records."""
    n = mu.space.n_blocks
    chain, function = exhaustive_solve(mu, nu)
    cert = solve_rn(mu, nu)
    assert cert.solvable == (chain is not None)
    assert cert.chain == chain
    assert cert.function == function
    if kind != "unrelated":
        assert cert.solvable == (kind == "solvable")

    records = cert.chain_records
    orders = [r.removal_order for r in records]
    check_chain_records(mu, nu, records)
    assert not any(
        p != q and _extends(q, p) for p in orders for q in orders
    )
    # every chain tried before the verdict is ruled out by
    # exactly one record, and no later chain is
    before = [
        c for c in permutations(range(n)) if chain is None or c < chain
    ]
    for c in before:
        assert sum(_extends(c, p) for p in orders) == 1
    assert cert.chains_refuted == len(before)
    if not cert.solvable:
        assert cert.chains_refuted == factorial(n)
    return sum(len(p) < n for p in orders)


class TestPrefixPruning:
    """The pruned search against the exhaustive n!-chain oracle."""

    @pytest.mark.parametrize("n, trials", [(2, 8), (3, 8), (4, 6), (5, 3), (6, 2)])
    def test_matches_exhaustive_search(self, n, trials):
        rng = random.Random(3500 + n)
        space = build_space([f"x{i}" for i in range(n)])
        pruned = 0
        for kind in ("solvable", "ac-broken", "unrelated"):
            for _ in range(trials):
                mu, nu = _pair(kind, space, rng)
                pruned += _check_against_exhaustive(mu, nu, kind)
        if n >= 3:
            assert pruned > 0  # the differential test exercises pruning

    @pytest.mark.parametrize("n, trials", [(3, 8), (4, 6), (5, 4), (6, 2)])
    def test_matches_exhaustive_search_rank_deficient(self, n, trials):
        """Coarsened spaces and null-heavy nu: null atoms leave free columns
        in the prefix and chain systems, where the point found depends on
        the whole reduced system, not on one forward substitution."""
        rng = random.Random(3600 + n)
        atoms = build_space([f"x{i}" for i in range(n)])
        pruned = null_atoms = 0
        for kind in ("solvable", "ac-broken", "unrelated"):
            for _ in range(trials):
                space = coarsened(atoms, rng)
                mu, nu = _pair(kind, space, rng, make_nu=null_heavy_measure)
                null_atoms += sum(nu.block_value(i) == ZERO
                                  for i in range(space.n_blocks))
                pruned += _check_against_exhaustive(mu, nu, kind)
        assert null_atoms > 0 and pruned > 0

    def test_null_heavy_pair_skips_one_path_of_children(self):
        """A 9-atom null-heavy pair with a density: the search never
        backtracks, so it skips at most nb(nb-1)/2 children."""
        rng = random.Random(9)
        space = build_space([f"x{i}" for i in range(9)])
        nu = null_heavy_measure(space, rng)
        mu = indefinite_integral_measure(random_simple_function(space, rng), nu)
        cert = solve_rn(mu, nu)
        assert cert.solvable
        assert verify_rn(mu, nu, cert.function).holds
        assert len(cert.chain_records) <= 36

    def test_prefix_records_cover_the_subtree(self):
        """mu(A) = |A|/3 against the indicator of U: no single atom can carry
        mass, so each first removal is refuted at once for 2! chains."""
        space = build_space(["1", "2", "3"])
        mu = cardinality_measure(space, Fraction(1, 3))
        nu = indicator_full_measure(space)
        cert = solve_rn(mu, nu)
        assert not cert.solvable
        assert [r.removal_order for r in cert.chain_records] == [(0,), (1,), (2,)]
        assert [r.chains for r in cert.chain_records] == [2, 2, 2]
        assert cert.chains_refuted == 6


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
