"""Spaces, measurable sets, monotone measures and the classifiers."""

import random
from fractions import Fraction

import pytest

from choquetrn import (
    ExtReal,
    INF,
    InvalidFamilyError,
    InvalidMeasureError,
    ZERO,
    abs_continuous,
    additive_measure,
    build_space,
    cardinality_measure,
    has_property_sigma,
    indicator_full_measure,
    is_null_additive,
    is_weakly_null_additive,
    make_measure,
    max_weight_measure,
    measure_from_table,
    strongly_abs_continuous,
    zero_measure,
)
from support import (
    coarsened,
    null_heavy_measure,
    pairwise_null_additivity,
    random_monotone_measure,
    random_space,
    scan_strong_abs_continuity,
)


class TestSpaces:
    def test_power_set_default(self):
        space = build_space(["a", "b", "c"])
        assert space.n_blocks == 3
        assert space.n_subsets() == 8
        assert len(list(space.subsets())) == 8

    def test_partition_algebra(self):
        space = build_space(["a", "b", "c"], partition=[["a", "c"], ["b"]])
        assert space.n_blocks == 2
        assert space.n_subsets() == 4
        # {a} splits the block {a, c}
        with pytest.raises(InvalidFamilyError):
            space.make_set(["a"])
        ac = space.make_set(["a", "c"])
        assert ac.atom_names() == ("a", "c")

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            build_space(["a", "b"], partition=[["a"]])  # does not cover
        with pytest.raises(ValueError):
            build_space(["a", "b"], partition=[["a", "b"], ["b"]])  # overlap
        with pytest.raises(ValueError):
            build_space(["a", "a"])  # duplicate names
        with pytest.raises(ValueError):
            build_space([])

    def test_set_operations(self):
        space = build_space(["1", "2", "3"])
        A = space.make_set(["1", "2"])
        B = space.make_set(["2", "3"])
        assert (A & B).atom_names() == ("2",)
        assert (A | B).is_full
        assert (A - B).atom_names() == ("1",)
        assert A.complement().atom_names() == ("3",)
        assert (A & B).issubset(A)
        assert "2" in A and "3" not in A
        assert len(A) == 2


class TestMeasureValidation:
    def test_must_vanish_at_empty(self):
        space = build_space(["a"])
        with pytest.raises(InvalidMeasureError) as err:
            measure_from_table(space, {(): 1, ("a",): 1})
        assert err.value.witness.kind == "vanishing-at-empty"

    def test_monotonicity_enforced_with_witness(self):
        space = build_space(["a", "b"])
        with pytest.raises(InvalidMeasureError) as err:
            measure_from_table(
                space, {(): 0, ("a",): 2, ("b",): 0, ("a", "b"): 1}
            )
        witness = err.value.witness
        assert witness.kind == "monotonicity"
        small, large = witness.sets
        assert small.issubset(large)
        # the witness reproduces the violation
        assert witness.values[0] > witness.values[1]

    def test_table_must_be_total(self):
        space = build_space(["a", "b"])
        with pytest.raises(InvalidMeasureError):
            measure_from_table(space, {(): 0, ("a", "b"): 1})

    def test_infinite_values_allowed_at_construction(self):
        space = build_space(["a"])
        m = measure_from_table(space, {(): 0, ("a",): "inf"})
        assert not m.is_finite


class TestConstructors:
    def test_additive(self):
        space = build_space(["a", "b"])
        m = additive_measure(space, {"a": Fraction(1, 2), "b": Fraction(1, 3)})
        assert m(space.full_set) == Fraction(5, 6)
        assert m.is_additive()

    def test_indicator_full_is_not_additive(self):
        space = build_space(["a", "b"])
        m = indicator_full_measure(space)
        assert m(space.full_set) == 1
        assert m(space.make_set(["a"])) == ZERO
        assert not m.is_additive()

    def test_max_weight(self):
        space = build_space(["a", "b"])
        m = max_weight_measure(space, {"a": 2, "b": 5})
        assert m(space.full_set) == 5
        assert m(space.make_set(["a"])) == 2

    def test_cardinality(self):
        space = build_space(["a", "b", "c"])
        m = cardinality_measure(space, Fraction(1, 2))
        assert m(space.make_set(["a", "c"])) == 1

    def test_make_measure_dispatch(self):
        space = build_space(["a", "b"])
        for rule in (
            {"rule": "additive", "weights": {"a": "1/2", "b": "1/3"}},
            {"rule": "indicator_full"},
            {"rule": "max_weight", "weights": {"a": 1, "b": 2}},
            {"rule": "cardinality", "scale": "1/2"},
            {"rule": "zero"},
            {"rule": "explicit", "table": [
                {"set": [], "value": 0}, {"set": ["a"], "value": 1},
                {"set": ["b"], "value": 1}, {"set": ["a", "b"], "value": 1},
            ]},
        ):
            m = make_measure(space, rule)
            assert m(space.empty_set) == ZERO
        with pytest.raises(InvalidMeasureError):
            make_measure(space, {"rule": "nope"})


class TestClassifiers:
    def test_weak_null_additivity_fails_on_indicator_full(self):
        space = build_space(["a", "b"])
        m = indicator_full_measure(space)
        verdict = is_weakly_null_additive(m)
        assert not verdict.holds
        A1, A2, union = verdict.witness.sets
        assert m(A1) == ZERO and m(A2) == ZERO and m(union) != ZERO

    def test_additive_measures_are_null_additive(self):
        space = build_space(["a", "b", "c"])
        m = additive_measure(space, {"a": 1, "b": 0, "c": 2})
        assert is_weakly_null_additive(m).holds
        assert is_null_additive(m).holds
        assert has_property_sigma(m).holds

    def test_null_additivity_witness(self):
        space = build_space(["a", "b"])
        # {b} is null but adjoining it to {a} changes the value
        m = measure_from_table(
            space, {(): 0, ("a",): 1, ("b",): 0, ("a", "b"): 2}
        )
        verdict = is_null_additive(m)
        assert not verdict.holds
        A, N, union = verdict.witness.sets
        assert m(N) == ZERO and m(union) != m(A)
        # yet it is weakly null-additive: the only null sets are {} and {b}
        assert is_weakly_null_additive(m).holds

    def test_property_sigma_carries_reduction_note(self):
        space = build_space(["a"])
        verdict = has_property_sigma(zero_measure(space))
        assert verdict.holds
        assert "weak null-additivity" in verdict.note

    def test_abs_continuous(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": 1, "b": 0})
        mu_ok = additive_measure(space, {"a": 2, "b": 0})
        mu_bad = additive_measure(space, {"a": 2, "b": 1})
        assert abs_continuous(mu_ok, nu).holds
        verdict = abs_continuous(mu_bad, nu)
        assert not verdict.holds
        (A,) = verdict.witness.sets
        assert nu(A) == ZERO and mu_bad(A) != ZERO

    def test_strong_abs_continuity_table(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": "1/2", "b": "1/3"})
        mu = additive_measure(space, {"a": 1, "b": "5/3"})
        verdict = strongly_abs_continuous(mu, nu)
        assert verdict.holds
        assert verdict.table
        for eps, delta in verdict.table:
            assert delta > ZERO
            # delta really is a modulus: mu >= eps forces nu >= delta
            for A in space.subsets():
                if mu(A) >= eps:
                    assert nu(A) >= delta

    def test_strong_abs_continuity_failure(self):
        space = build_space(["a", "b"])
        nu = additive_measure(space, {"a": 1, "b": 0})
        mu = additive_measure(space, {"a": 1, "b": 1})
        verdict = strongly_abs_continuous(mu, nu)
        assert not verdict.holds
        (A,) = verdict.witness.sets
        assert nu(A) == ZERO and mu(A) != ZERO

    def test_finite_space_equivalence_of_ac_notions(self):
        # on a finite space, plain and strong absolute continuity coincide
        import random
        from support import random_monotone_measure, random_space

        rng = random.Random(42)
        for _ in range(80):
            space = random_space(rng, 2, 4)
            mu = random_monotone_measure(space, rng)
            nu = random_monotone_measure(space, rng)
            assert abs_continuous(mu, nu).holds == strongly_abs_continuous(
                mu, nu
            ).holds


class TestClosedFormClassifiers:
    """The O(2^n) classifiers against the pairwise and per-epsilon scans."""

    @staticmethod
    def random_measure(rng):
        space = random_space(rng, 2, 5)
        if rng.random() < 0.3:
            space = coarsened(space, rng)
        build = null_heavy_measure if rng.random() < 0.6 else random_monotone_measure
        return build(space, rng)

    def test_null_additivity_matches_pairwise_oracle(self):
        rng = random.Random(31)
        outcomes = {(True, True): 0, (True, False): 0, (False, False): 0}
        for _ in range(300):
            m = self.random_measure(rng)
            want_weak, want_null = pairwise_null_additivity(m)
            weak, null = is_weakly_null_additive(m), is_null_additive(m)
            assert (weak.holds, null.holds) == (want_weak.holds, want_null.holds)
            assert has_property_sigma(m).holds == weak.holds
            outcomes[weak.holds, null.holds] += 1
            if weak.holds:
                assert weak.witness is None
            else:
                A1, A2, union = weak.witness.sets
                assert weak.witness.kind == "weak-null-additivity"
                assert union == A1 | A2
                assert weak.witness.values == (m(A1), m(A2), m(union))
                assert m(A1) == ZERO and m(A2) == ZERO and m(union) != ZERO
            if null.holds:
                assert null.witness is None
            else:
                A, N, union = null.witness.sets
                assert null.witness.kind == "null-additivity"
                assert union == A | N
                assert null.witness.values == (m(A), m(N), m(union))
                assert m(N) == ZERO and m(union) != m(A)
        assert min(outcomes.values()) >= 30, outcomes

    def test_strong_abs_continuity_matches_scan_oracle(self):
        rng = random.Random(32)
        outcomes = {True: 0, False: 0, "infinite_nu": 0}
        for _ in range(300):
            mu = self.random_measure(rng)
            nu = random_monotone_measure(mu.space, rng, max_step=1)
            if rng.random() < 0.3:
                # values above half the total become infinite: still monotone
                cut = nu(mu.space.full_set) * ExtReal(Fraction(1, 2))
                nu = measure_from_table(
                    mu.space,
                    {A: INF if nu(A) > cut else nu(A) for A in mu.space.subsets()},
                )
                outcomes["infinite_nu"] += not nu.is_finite
            verdict = strongly_abs_continuous(mu, nu)
            assert verdict == scan_strong_abs_continuity(mu, nu)
            outcomes[verdict.holds] += 1
            if not verdict.holds:
                (A,) = verdict.witness.sets
                eps, delta = verdict.witness.values
                assert mu(A) >= eps > ZERO and nu(A) == delta == ZERO
        assert min(outcomes.values()) >= 30, outcomes
