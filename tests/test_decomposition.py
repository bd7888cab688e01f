"""Threshold families, the two-sided inequality check, derivation,
dyadic approximants and verification."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from choquetrn import (
    ExtReal,
    INF,
    InvalidFamilyError,
    PreconditionError,
    SimpleFunction,
    ZERO,
    build_space,
    check_decomposition,
    choquet_value,
    constant_function,
    derive_function,
    dyadic_approximant,
    family_from_function,
    fixture_f1,
    fixture_f3,
    function_from_values,
    indefinite_integral_measure,
    indicator_full_measure,
    lemma_tail_check,
    make_family,
    measure_from_table,
    verify_rn,
    zero_measure,
)
from choquetrn import decomposition
from choquetrn.decomposition import PairRecord
from support import (
    all_pairs_decomposition,
    coarsened,
    grid_dyadic_approximant,
    infinite_measure,
    left_limit,
    null_heavy_measure,
    per_set_verify_rn,
    prime_denominator_measure,
    random_fraction,
    random_monotone_measure,
    random_simple_function,
    random_space,
)


def random_family(space, rng):
    """A family with random decreasing sets and thresholds and, most of the
    time, a zero-plus set strictly inside U (sometimes equal to the next set).
    """
    nb = space.n_blocks
    order = list(range(nb))
    rng.shuffle(order)
    breakpoints = [(Fraction(0), space.full_set)]
    mask = space.full_mask
    alpha = Fraction(0)
    for b in order[: rng.randrange(1, nb + 1)]:
        mask &= ~space.blocks[b]
        alpha += random_fraction(rng, max_num=3) + Fraction(1, 5)
        breakpoints.append((alpha, space.set_from_mask(mask)))
    zero_plus = None
    if rng.random() < 0.8:
        inner = breakpoints[1][1].mask
        extra = space.full_mask & ~inner
        zp = inner
        for b in range(nb):
            if space.blocks[b] & extra and rng.random() < 0.5:
                zp |= space.blocks[b]
        if zp == space.full_mask:
            zp = inner
        zero_plus = space.set_from_mask(zp)
    return make_family(space, breakpoints, zero_plus=zero_plus)


class TestFamilyConstruction:
    def test_canonical_merge_of_equal_sets(self):
        space = build_space(["a", "b"])
        family = make_family(
            space,
            [
                (0, space.full_set),
                (1, space.make_set(["a"])),
                (2, space.make_set(["a"])),
                (3, space.empty_set),
            ],
        )
        assert family.thresholds == (Fraction(0), Fraction(1), Fraction(3))

    def test_validation(self):
        space = build_space(["a", "b"])
        with pytest.raises(InvalidFamilyError):
            make_family(space, [])
        with pytest.raises(InvalidFamilyError):
            make_family(space, [(1, space.full_set)])  # must start at 0
        with pytest.raises(InvalidFamilyError):
            make_family(space, [(0, space.make_set(["a"]))])  # must start at U
        with pytest.raises(InvalidFamilyError):
            make_family(
                space,
                [(0, space.full_set), (1, space.make_set(["a"])),
                 (1, space.empty_set)],
            )  # thresholds strictly increasing
        with pytest.raises(InvalidFamilyError):
            make_family(
                space,
                [(0, space.full_set), (1, space.make_set(["a"])),
                 (2, space.make_set(["b"]))],
            )  # sets must decrease
        for bad in (-1, "-1/2", "inf", None, "x", "1/0"):
            with pytest.raises(InvalidFamilyError):  # not a finite rational >= 0
                make_family(space, [(0, space.full_set), (bad, space.empty_set)])

    def test_evaluation_and_bands(self):
        space = build_space(["a", "b"])
        family = make_family(
            space, [(0, space.full_set), (2, space.make_set(["a"])),
                    (3, space.empty_set)]
        )
        assert family.at(0).is_full
        assert family.at(Fraction(1, 2)).is_full  # zero_plus defaults to U
        assert family.at(2).atom_names() == ("a",)
        assert family.at(Fraction(5, 2)).atom_names() == ("a",)
        assert family.at(3).is_empty
        assert family.at(100).is_empty
        with pytest.raises(ValueError):
            family.at(-1)
        assert family.tail_set.is_empty
        bands = family.bands()
        assert bands[0].lo == 0 and bands[0].hi == 0
        assert bands[-1].hi is None

    def test_zero_plus_left_limits(self):
        space = build_space(["a", "b"])
        f = function_from_values(space, {"a": 1, "b": 0})
        family = family_from_function(f)
        # at 0 the family is U; just above 0 it is {f > 0}
        assert family.at(0).is_full
        assert family.at(Fraction(1, 7)).atom_names() == ("a",)
        # left limits realize the closed level sets {f >= alpha}
        assert left_limit(family, 1) == f.level_set(1)
        assert left_limit(family, Fraction(1, 2)).atom_names() == ("a",)
        assert left_limit(family, 0).is_full


class TestRoundTrip:
    def test_function_to_family_to_function_exact(self):
        rng = random.Random(21)
        for _ in range(300):
            space = random_space(rng, 2, 5)
            f = random_simple_function(space, rng)
            assert derive_function(family_from_function(f)) == f

    def test_round_trip_with_infinite_values(self):
        space = build_space(["a", "b"])
        f = function_from_values(space, {"a": "inf", "b": 2})
        family = family_from_function(f)
        assert family.tail_set.atom_names() == ("a",)
        assert derive_function(family) == f

    def test_level_family_agrees_with_level_sets_everywhere(self):
        rng = random.Random(22)
        for _ in range(200):
            space = random_space(rng, 2, 4)
            f = random_simple_function(space, rng)
            family = family_from_function(f)
            for k in range(25):
                alpha = Fraction(k, rng.choice([1, 2, 3, 4]))
                assert left_limit(family, alpha) == f.level_set(alpha)
                if alpha > 0:
                    assert family.at(alpha) == f.level_set(alpha, strict=True) \
                        or family.at(alpha) == f.level_set(alpha)


class TestCheckDecomposition:
    def test_passes_on_the_four_point_showcase(self):
        fx = fixture_f1()
        report = check_decomposition(fx.mu, fx.nu, fx.family, detail=True)
        assert report.holds
        assert report.tail_ok and report.tail_set.is_empty
        assert report.checked_sets == 16
        assert report.records and all(r.ok for r in report.records)

    def test_fails_on_the_unsolvable_pair_with_witness(self):
        fx = fixture_f3()
        family = make_family(
            fx.space, [(0, fx.space.full_set), (1, fx.space.empty_set)]
        )
        report = check_decomposition(fx.mu, fx.nu, family)
        assert not report.holds
        witness = report.witness
        assert witness.kind == "decomposition-inequality"
        # re-evaluate the witness: the reported sandwich really fails
        left, middle, right = witness.values
        assert not (left <= middle <= right)

    def test_tail_violation_reported(self):
        space = build_space(["a"])
        nu = indicator_full_measure(space)
        family = make_family(space, [(0, space.full_set)])
        report = check_decomposition(nu, nu, family)
        assert not report.holds
        assert not report.tail_ok
        assert report.witness.kind == "decomposition-tail"

    def test_degenerate_family_legal_for_zero_measures(self):
        space = build_space(["a"])
        z = zero_measure(space)
        family = make_family(space, [(0, space.full_set)])
        assert check_decomposition(z, z, family).holds

    def test_requires_finite_measures(self):
        space = build_space(["a"])
        inf_m = measure_from_table(space, {(): 0, ("a",): "inf"})
        family = make_family(space, [(0, space.full_set), (1, space.empty_set)])
        with pytest.raises(PreconditionError):
            check_decomposition(inf_m, inf_m, family)

    def test_reduction_matches_dense_rational_sampling(self):
        """The finitely many reduced band-pair checks decide the full
        rational quantification: sample many alpha < beta directly."""
        rng = random.Random(23)
        agree = 0
        for _ in range(150):
            space = random_space(rng, 2, 4)
            nu = random_monotone_measure(space, rng)
            if rng.random() < 0.5:
                f = random_simple_function(space, rng)
                mu = indefinite_integral_measure(f, nu)
                family = family_from_function(f)
            else:
                mu = random_monotone_measure(space, rng)
                f = random_simple_function(space, rng)
                family = family_from_function(f)
            verdict = check_decomposition(mu, nu, family).holds

            sampled_ok = True
            thresholds = [t for t in family.thresholds] + [
                family.thresholds[-1] + 1
            ]
            grid = sorted(
                {
                    q
                    for t in thresholds
                    for q in (
                        t, t + Fraction(1, 7), t + Fraction(1, 2),
                        max(Fraction(0), t - Fraction(1, 7)),
                    )
                }
            )
            for i, alpha in enumerate(grid):
                for beta in grid[i + 1:]:
                    S_a, S_b = family.at(alpha), family.at(beta)
                    for A in space.subsets():
                        dnu = nu(A & S_a).as_fraction() - nu(A & S_b).as_fraction()
                        dmu = mu(A & S_a).as_fraction() - mu(A & S_b).as_fraction()
                        if not (alpha * dnu <= dmu <= beta * dnu):
                            sampled_ok = False
            if verdict:
                # reduction sound: the definition's instances all hold
                assert sampled_ok
                agree += 1
        assert agree > 0

    def test_indefinite_integrals_always_pass(self):
        """mu built as an indefinite integral always passes the check."""
        rng = random.Random(24)
        for _ in range(200):
            space = random_space(rng, 2, 5)
            nu = random_monotone_measure(space, rng)
            f = random_simple_function(space, rng)
            mu = indefinite_integral_measure(f, nu)
            family = family_from_function(f)
            report = check_decomposition(mu, nu, family)
            assert report.holds, f"failed on f={f}, nu at U={nu(space.full_set)}"
            assert lemma_tail_check(mu, nu, family)


class TestAdjacentBands:
    """The adjacent-band check against the all-pairs oracle."""

    def test_matches_all_pairs_oracle(self):
        rng = random.Random(27)
        kinds = {"pass": 0, "fail": 0, "zero_plus": 0}
        for trial in range(300):
            space = random_space(rng, 2, 5)
            if rng.random() < 0.3:
                space = coarsened(space, rng)
            nu = random_monotone_measure(space, rng)
            kind = trial % 3
            if kind == 0:
                f = random_simple_function(space, rng)
                mu = indefinite_integral_measure(f, nu)
                family = family_from_function(f)
            elif kind == 1:
                mu = random_monotone_measure(space, rng)
                family = family_from_function(random_simple_function(space, rng))
            else:
                mu = random_monotone_measure(space, rng)
                family = random_family(space, rng)
                if family.tail_set.is_empty and rng.random() < 0.5:
                    mu = indefinite_integral_measure(derive_function(family), nu)
            if family.zero_plus != space.full_set:
                kinds["zero_plus"] += 1
            for detail in (False, True):
                got = check_decomposition(mu, nu, family, detail=detail)
                want = all_pairs_decomposition(mu, nu, family, detail=detail)
                assert got == want, (str(family), detail)
            kinds["pass" if got.holds else "fail"] += 1
        assert min(kinds.values()) >= 50, kinds


class TestOneEquationPerSet:
    """One equation per set against the all-pairs oracle, on null-heavy nu
    and on indefinite integrals mu = integral of f d nu raised on the
    supersets of one set, witness included."""

    def test_matches_all_pairs_oracle_on_null_heavy_measures(self):
        rng = random.Random(31)
        seen = Counter()
        for trial in range(240):
            space = random_space(rng, 2, 5)
            if trial % 2:
                space = coarsened(space, rng)
            nu = null_heavy_measure(space, rng)
            f = random_simple_function(space, rng)
            mu = indefinite_integral_measure(f, nu)
            family = random_family(space, rng) if trial % 3 == 0 else \
                family_from_function(f)
            if trial % 4 >= 2:
                S = list(space.subsets())[rng.randrange(1, space.n_subsets())].mask
                bump = rng.choice((Fraction(1, 4), Fraction(1, 2), 1))
                mu = measure_from_table(space, {
                    A: mu(A) + bump if A.mask & S == S else mu(A)
                    for A in space.subsets()
                })
            for detail in (False, True):
                got = check_decomposition(mu, nu, family, detail=detail)
                assert got == all_pairs_decomposition(mu, nu, family, detail=detail)
            seen["pass" if got.holds else "fail"] += 1
            if got.witness is not None:
                seen[got.witness.kind] += 1
                seen["proper witness set"] += got.witness.sets[0].mask != space.full_mask
        assert min(seen["pass"], seen["fail"]) >= 60, seen
        assert seen["proper witness set"] >= 60, seen


class TestDetailRecords:
    """The detail records, whose values are computed once per cut A & S_p and
    shared, against the per-set oracle that computes every record afresh."""

    def test_records_match_the_per_set_oracle(self):
        rng = random.Random(41)
        seen = Counter()
        names = [field.name for field in dataclasses.fields(PairRecord)]
        for trial in range(160):
            space = random_space(rng, 2, 5)
            if trial % 2:
                space = coarsened(space, rng)
            nu = (null_heavy_measure if trial % 5 == 0 else
                  random_monotone_measure)(space, rng)
            f = random_simple_function(space, rng)
            family = random_family(space, rng) if trial % 3 else \
                family_from_function(f)
            mu = (indefinite_integral_measure(derive_function(family), nu)
                  if trial % 4 < 2 and family.tail_set.is_empty
                  else random_monotone_measure(space, rng))
            got = check_decomposition(mu, nu, family, detail=True)
            want = all_pairs_decomposition(mu, nu, family, detail=True)
            assert (got.holds, got.witness) == (want.holds, want.witness)
            assert len(got.records) == got.checked_pairs * space.n_subsets()
            assert len(got.records) == len(want.records)
            for g, w in zip(got.records, want.records):
                for name in names:
                    x, y = getattr(g, name), getattr(w, name)
                    assert (x, type(x)) == (y, type(y)), (str(family), name, g, w)
            bands = family.bands()
            seen["pass" if got.holds else "fail"] += 1
            seen["zero_plus != U"] += family.zero_plus != space.full_set
            seen["equal band sets"] += len({b.set for b in bands}) < len(bands)
            seen["partitioned"] += not space.is_power_set
        assert min(seen.values()) >= 30, seen


class TestDeriveAndVerify:
    def test_derive_on_the_showcase_family(self):
        fx = fixture_f1()
        f = derive_function(fx.family)
        assert f == fx.f1

    def test_derive_infinite_tail(self):
        space = build_space(["a", "b"])
        family = make_family(
            space, [(0, space.full_set), (1, space.make_set(["a"]))]
        )
        f = derive_function(family)
        # b stays in the (default U-valued) zero-plus band on (0, 1)
        assert f("a") == INF and f("b") == 1
        # with an explicit zero-plus set excluding b, its supremum is 0
        tight = make_family(
            space,
            [(0, space.full_set), (1, space.make_set(["a"]))],
            zero_plus=space.make_set(["a"]),
        )
        g = derive_function(tight)
        assert g("a") == INF and g("b") == ZERO

    def test_verify_rn_failure_lists_sets(self):
        fx = fixture_f3()
        f = constant_function(fx.space, 1)
        report = verify_rn(fx.mu, fx.nu, f)
        assert not report.holds
        assert report.checked == 4
        for A, lhs, rhs in report.failures:
            assert fx.mu(A) == lhs
            assert choquet_value(f, fx.nu, A) == rhs
            assert lhs != rhs


def tied_function(space, rng):
    """f drawn from a pool of three or four values, so ties are common,
    holding 0 and, half of the time, infinity."""
    pool = [ZERO] + [ExtReal(random_fraction(rng, max_num=5)) for _ in range(2)]
    pool += [INF] * (rng.random() < 0.5)
    return SimpleFunction(space, tuple(rng.choice(pool) for _ in space.blocks))


NU_KINDS = {
    "generic": random_monotone_measure,
    "null-heavy": null_heavy_measure,
    "prime": prime_denominator_measure,
    "infinite": infinite_measure,
}


class TestIntegerScans:
    """verify_rn's and check_decomposition's integer lemma scans against the
    per-set oracles: one full Choquet integral per set, and every band pair
    on every set in Fractions."""

    def test_scans_match_the_per_set_oracles(self, monkeypatch):
        built = []
        integral_fractions = decomposition.integral_fractions
        monkeypatch.setattr(decomposition, "integral_fractions",
                            lambda f, nu: built.append(f) or integral_fractions(f, nu))
        rng = random.Random(53)
        seen = Counter()
        for trial in range(480):
            space = random_space(rng, 2, 5)
            if trial % 3 == 1:
                space = coarsened(space, rng)
            kind = list(NU_KINDS)[trial % 4]
            nu = NU_KINDS[kind](space, rng)
            f = tied_function(space, rng)
            mu = indefinite_integral_measure(f, nu)
            change = (trial // 4) % 4
            S = list(space.subsets())[rng.randrange(1, space.n_subsets())].mask
            if change == 1:  # raised on the supersets of S
                bump = rng.choice((Fraction(1, 4), Fraction(1, 2), 1))
                mu = measure_from_table(space, {
                    A: mu(A) + bump if A.mask & S == S else mu(A)
                    for A in space.subsets()})
            elif change == 2:  # infinite on the supersets of S
                mu = measure_from_table(space, {
                    A: INF if A.mask & S == S else mu(A) for A in space.subsets()})
            elif change == 3:  # the integral of a function changed on one block
                values = list(f.values)
                values[rng.randrange(space.n_blocks)] = rng.choice(
                    (ZERO, INF, ExtReal(Fraction(1, 3)), ExtReal(2)))
                mu = indefinite_integral_measure(SimpleFunction(space, tuple(values)), nu)

            built.clear()
            got = verify_rn(mu, nu, f)
            assert got == per_set_verify_rn(mu, nu, f), (kind, change, str(f))
            # the integral table is built only to list failures
            assert len(built) == (not got.holds)
            seen[f"verify {kind} {'pass' if got.holds else 'fail'}"] += 1
            seen["infinite failure value"] += any(
                not v.is_finite for _, lhs, rhs in got.failures for v in (lhs, rhs))
            seen["f with 0, inf and a tie"] += (
                ZERO in f.values and INF in f.values
                and len(set(f.values)) < space.n_blocks)
            seen["partitioned"] += not space.is_power_set

            if mu.is_finite and nu.is_finite:
                family = (family_from_function(f) if rng.random() < 0.6
                          else random_family(space, rng))
                got = check_decomposition(mu, nu, family)
                assert got == all_pairs_decomposition(mu, nu, family), str(family)
                seen[f"decomposition {kind} {'pass' if got.holds else 'fail'}"] += 1
        assert len(seen) == 4 * 2 + 3 + 3 * 2, seen
        assert min(seen.values()) >= 12, seen


class TestDecompositionIsVerification:
    """check_decomposition(mu, nu, F) decides what verify_rn(mu, nu, f)
    decides for f = derive_function(F), with finite mu and nu and families
    whose density may be infinite (a nonempty tail set).  When the tail is
    null, both name the same first failing set."""

    def test_same_verdict_and_first_failing_set(self):
        rng = random.Random(67)
        seen = Counter()
        for trial in range(1200):
            space = random_space(rng, 2, 5)
            if trial % 3 == 1:
                space = coarsened(space, rng)
            nu = (random_monotone_measure if trial % 2 else null_heavy_measure)(space, rng)
            f = tied_function(space, rng)
            family = family_from_function(f)
            # mu is the integral of f with infinity replaced by 3, then
            # perhaps raised on the supersets of one set, the integral of
            # a function changed on one block, or an unrelated measure
            finite = [v if v.is_finite else ExtReal(3) for v in f.values]
            change = (trial // 2) % 4
            if change == 2:
                finite[rng.randrange(space.n_blocks)] = ExtReal(random_fraction(rng))
            mu = indefinite_integral_measure(SimpleFunction(space, tuple(finite)), nu)
            if change == 1:
                S = list(space.subsets())[rng.randrange(1, space.n_subsets())].mask
                mu = measure_from_table(space, {
                    A: mu(A) + Fraction(1, 2) if A.mask & S == S else mu(A)
                    for A in space.subsets()})
            elif change == 3:
                mu = random_monotone_measure(space, rng)

            got = check_decomposition(mu, nu, family)
            rn = verify_rn(mu, nu, derive_function(family))
            assert got.holds == rn.holds, (str(f), change)
            seen["pass" if got.holds else "fail"] += 1
            seen["tail set"] += got.tail_set.mask != 0
            if not got.tail_ok:
                seen["tail failure"] += 1
            elif not got.holds:
                assert got.witness.sets[0] == rn.failures[0][0], (str(f), change)
                seen["witness"] += 1
                seen["witness after another failure"] += len(rn.failures) > 1
        assert min(seen.values()) >= 100, seen


class TestDyadicApproximants:
    def test_showcase_values(self):
        fx = fixture_f1()
        f = derive_function(fx.family)
        # the grid resolves the integer breakpoints at once
        assert dyadic_approximant(fx.family, 1) == f.cap(1)
        assert dyadic_approximant(fx.family, 2) == f
        assert dyadic_approximant(fx.family, 8) == f

    def test_n_validation(self):
        fx = fixture_f1()
        with pytest.raises(ValueError):
            dyadic_approximant(fx.family, 0)

    def test_sandwich_randomized(self):
        rng = random.Random(25)
        for _ in range(60):
            space = random_space(rng, 2, 4)
            f = random_simple_function(space, rng)
            family = family_from_function(f)
            for n in range(1, 7):
                fn = dyadic_approximant(family, n)
                eps = ExtReal(Fraction(1, 1 << n))
                for i in range(space.n_blocks):
                    v, w = f.values[i], fn.values[i]
                    assert w <= v
                    capped = v if v <= ExtReal(n) else ExtReal(n)
                    assert capped <= w + eps

    def test_matches_grid_oracle(self):
        rng = random.Random(29)
        kinds = {"level_sets": 0, "zero_plus": 0, "infinite": 0, "partitioned": 0}
        for trial in range(200):
            space = random_space(rng, 2, 5)
            if rng.random() < 0.6:
                space = coarsened(space, rng)
            kind = trial % 3
            if kind == 0:
                f = random_simple_function(space, rng)
                values = tuple(INF if rng.random() < 0.2 else v for v in f.values)
                family = family_from_function(SimpleFunction(space, values))
                kinds["level_sets"] += 1
            elif kind == 1:
                family = random_family(space, rng)
            else:
                # one breakpoint: infinite on the zero-plus set, 0 elsewhere
                zero_plus = 0
                for block in space.blocks:
                    if rng.random() < 0.5:
                        zero_plus |= block
                family = make_family(space, [(0, space.full_set)],
                                     zero_plus=space.set_from_mask(zero_plus))
            kinds["zero_plus"] += family.zero_plus != space.full_set
            kinds["infinite"] += not family.tail_set.is_empty
            kinds["partitioned"] += not space.is_power_set
            for n in range(1, 7):
                assert dyadic_approximant(family, n) == grid_dyadic_approximant(
                    family, n
                ), (str(family), n)
        assert min(kinds.values()) >= 25, kinds

    def test_exact_once_grid_resolves(self):
        rng = random.Random(26)
        for _ in range(60):
            space = random_space(rng, 2, 4)
            f = random_simple_function(space, rng)  # denominators in {1,2,4}
            family = family_from_function(f)
            assert dyadic_approximant(family, 7) == f
            assert dyadic_approximant(family, 8) == f
