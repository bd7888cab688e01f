"""Choquet integration: exact values, layer breakdowns, the classical
properties, comonotonic additivity and oracle agreement."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from choquetrn import (
    ExtReal,
    INF,
    ZERO,
    additive_measure,
    build_space,
    choquet_integral,
    choquet_value,
    constant_function,
    function_from_values,
    indefinite_integral_measure,
    indicator_full_measure,
    indicator_function,
    is_comonotone,
    measure_from_table,
)
from support import (
    choquet_oracle,
    coarsened,
    infinite_measure,
    level_set_choquet_integral,
    null_heavy_measure,
    random_monotone_measure,
    random_simple_function,
    random_space,
)


class TestHandValues:
    def test_additive_case_is_the_weighted_sum(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": "1/2", "b": "1/3"})
        f = function_from_values(space, {"a": 2, "b": 5})
        assert choquet_value(f, nu) == Fraction(8, 3)
        assert choquet_value(f, nu, space.make_set(["a"])) == 1
        assert choquet_value(f, nu, space.make_set(["b"])) == Fraction(5, 3)

    def test_breakdown_layers(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": "1/2", "b": "1/3"})
        f = function_from_values(space, {"a": 2, "b": 5})
        bd = choquet_integral(f, nu)
        assert bd.thresholds == (ExtReal(2), ExtReal(5))
        assert bd.layer_measures == (Fraction(5, 6), Fraction(1, 3))
        # 2 * 5/6 + 3 * 1/3
        assert bd.contributions == (Fraction(5, 3), ExtReal(1))
        assert bd.total == Fraction(8, 3)

    def test_non_additive_example(self):
        space = build_space(["1", "2", "3", "4"])
        nu = indicator_full_measure(space)
        f = function_from_values(space, {"1": 1, "2": 2, "3": 1, "4": 2})
        # only the bottom layer sees the full universe
        assert choquet_value(f, nu) == 1

    def test_infinite_value_on_null_layer_contributes_nothing(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": 1, "b": 0})
        f = function_from_values(space, {"a": 2, "b": "inf"})
        assert choquet_value(f, nu) == 2

    def test_infinite_value_on_positive_layer(self):
        space = build_space(["a"])
        nu = additive_measure(space, {"a": 1})
        f = function_from_values(space, {"a": "inf"})
        assert choquet_value(f, nu) == INF


class TestClassicalProperties:
    """The textbook integral laws, randomized and exact."""

    N = 1000

    def _instances(self, seed):
        rng = random.Random(seed)
        for _ in range(self.N):
            space = random_space(rng, 2, 4)
            nu = random_monotone_measure(space, rng)
            f = random_simple_function(space, rng)
            sets = list(space.subsets())
            A = sets[rng.randrange(len(sets))]
            yield rng, space, nu, f, A

    def test_vanishes_on_null_sets(self):
        for rng, space, nu, f, A in self._instances(101):
            if nu(A) == ZERO:
                assert choquet_value(f, nu, A) == ZERO
            null = next(iter(nu.null_sets()))
            assert choquet_value(f, nu, null) == ZERO

    def test_monotone_in_the_integrand(self):
        for rng, space, nu, f, A in self._instances(102):
            g = f + random_simple_function(space, rng, max_num=2)
            assert choquet_value(f, nu, A) <= choquet_value(g, nu, A)

    def test_positive_homogeneity(self):
        for rng, space, nu, f, A in self._instances(103):
            c = ExtReal(Fraction(rng.randrange(0, 7), rng.choice([1, 2, 3])))
            assert choquet_value(f.scale(c), nu, A) == c * choquet_value(f, nu, A)

    def test_indicator_recovers_the_measure(self):
        for rng, space, nu, f, A in self._instances(104):
            assert choquet_value(indicator_function(A), nu, A) == nu(A)

    def test_restriction_equals_integral_over_set(self):
        for rng, space, nu, f, A in self._instances(105):
            assert choquet_value(f.restrict(A), nu) == choquet_value(f, nu, A)

    def test_cap_stabilizes_at_the_integral(self):
        for rng, space, nu, f, A in self._instances(106):
            target = choquet_value(f, nu, A)
            values = [choquet_value(f.cap(n), nu, A) for n in range(1, 9)]
            assert all(x <= y for x, y in zip(values, values[1:]))
            # f is finite with values <= 6, so the cap sequence lands exactly
            assert values[-1] == target

    def test_cap_diverges_when_the_infinite_layer_has_mass(self):
        space = build_space(["a"])
        nu = additive_measure(space, {"a": "1/2"})
        f = function_from_values(space, {"a": "inf"})
        for n in range(1, 9):
            assert choquet_value(f.cap(n), nu) == Fraction(n, 2)
        assert choquet_value(f, nu) == INF


class TestComonotonicAdditivity:
    N = 1000

    def test_randomized_comonotone_pairs_add(self):
        rng = random.Random(77)
        done = 0
        while done < self.N:
            space = random_space(rng, 2, 4)
            nu = random_monotone_measure(space, rng)
            f = random_simple_function(space, rng)
            # a comonotone partner: nondecreasing transform of f plus constant
            c = ExtReal(rng.randrange(0, 4))
            g = f.scale(Fraction(rng.randrange(0, 4), rng.choice([1, 2]))) + \
                constant_function(space, c)
            assert is_comonotone(f, g).holds
            assert choquet_value(f + g, nu) == choquet_value(f, nu) + \
                choquet_value(g, nu)
            done += 1

    def test_cap_excess_split_adds(self):
        rng = random.Random(78)
        for _ in range(200):
            space = random_space(rng, 2, 4)
            nu = random_monotone_measure(space, rng)
            f = random_simple_function(space, rng)
            c = Fraction(rng.randrange(0, 7), rng.choice([1, 2]))
            lo, hi = f.cap(c), f.excess(c)
            assert is_comonotone(lo, hi).holds
            assert choquet_value(f, nu) == choquet_value(lo, nu) + \
                choquet_value(hi, nu)

    def test_additivity_can_fail_without_comonotonicity(self):
        space = build_space(["1", "2", "3", "4"])
        nu = indicator_full_measure(space)
        f = function_from_values(space, {"1": 1, "2": 2, "3": 1, "4": 2})
        g = function_from_values(space, {"1": 2, "2": 1, "3": 2, "4": 1})
        verdict = is_comonotone(f, g)
        assert not verdict.holds
        assert verdict.witness.kind == "comonotonicity"
        assert choquet_value(f + g, nu) == 3
        assert choquet_value(f, nu) + choquet_value(g, nu) == 2


class TestOracleAgreement:
    def test_oracle_matches_on_random_instances(self):
        rng = random.Random(9)
        for _ in range(1000):
            space = random_space(rng, 2, 5)
            nu = random_monotone_measure(space, rng)
            f = random_simple_function(space, rng)
            sets = list(space.subsets())
            A = sets[rng.randrange(len(sets))]
            assert choquet_value(f, nu, A) == choquet_oracle(f, nu, A)

    def test_oracle_matches_with_infinite_values(self):
        rng = random.Random(10)
        from choquetrn import SimpleFunction

        for _ in range(300):
            space = random_space(rng, 2, 4)
            nu = random_monotone_measure(space, rng)
            f = random_simple_function(space, rng)
            vals = list(f.values)
            vals[rng.randrange(len(vals))] = INF
            f = SimpleFunction(space, tuple(vals))
            A = list(space.subsets())[rng.randrange(space.n_subsets())]
            assert choquet_value(f, nu, A) == choquet_oracle(f, nu, A)


class TestOneSortLayerCake:
    """The one-sort running-union layers against the level-set oracle."""

    # ties, zeros and infinity, so layers share values and skip blocks
    POOL = (ZERO, ZERO, ExtReal(Fraction(1, 2)), ExtReal(1), ExtReal(1),
            ExtReal(2), ExtReal(Fraction(7, 3)), INF)

    def test_matches_level_set_oracle_on_every_set(self):
        from choquetrn import SimpleFunction

        rng = random.Random(2024)
        seen = Counter()
        for trial in range(240):
            space = random_space(rng, 2, 5)
            if trial % 2:
                space = coarsened(space, rng)
                seen["coarsened"] += 1
            kind = trial % 3
            if kind == 0:
                nu = random_monotone_measure(space, rng)
            elif kind == 1:
                nu = null_heavy_measure(space, rng)
            else:
                nu = infinite_measure(space, rng)
            f = SimpleFunction(
                space, tuple(rng.choice(self.POOL) for _ in range(space.n_blocks))
            )
            for A in space.subsets():
                got = choquet_integral(f, nu, A)
                assert got == level_set_choquet_integral(f, nu, A)
                inside = [v for v, b in zip(f.values, space.blocks) if b & A.mask]
                finite = [v for v in inside if v.is_finite and v != ZERO]
                seen["tie"] += len(finite) > len(set(finite))
                seen["zero"] += ZERO in inside
                seen["inf"] += INF in inside
                seen["null layer"] += ZERO in got.layer_measures
                seen["infinite layer"] += INF in got.layer_measures
                seen["inf on null"] += (
                    not got.infinite_set.is_empty and got.infinite_contribution == ZERO
                )
            assert choquet_integral(f, nu) == level_set_choquet_integral(f, nu)
        for key in ("tie", "zero", "inf", "null layer", "infinite layer", "inf on null"):
            assert seen[key] >= 100, (key, seen)
        assert seen["coarsened"] == 120


def test_indefinite_integral_is_a_monotone_measure():
    rng = random.Random(11)
    for _ in range(100):
        space = random_space(rng, 2, 4)
        nu = random_monotone_measure(space, rng)
        f = random_simple_function(space, rng)
        mu = indefinite_integral_measure(f, nu)
        # re-validating raises if monotonicity ever failed
        measure_from_table(
            space, {A: mu(A) for A in space.subsets()}
        )
        assert mu(space.empty_set) == ZERO
