"""Truncation models, gluing and truncated-limit verification."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from choquetrn import (
    PreconditionError,
    SpaceMismatchError,
    ZERO,
    build_space,
    choquet_value,
    fixture_f4,
    function_from_values,
    glue_derivative,
    make_truncation_model,
    threshold_tail_family,
    verify_sigma_finite,
)
from choquetrn import sigma_finite
from choquetrn.sigma_finite import (
    _EXHAUSTIVE_LIMIT,
    _polynomial_test_sets,
    resolve_family_generator,
)
from support import (
    default_sigma_test_sets,
    per_level_sigma_finite,
    restrict_function,
    restrict_set,
)


class TestModelConstruction:
    def test_fixture_model_shape(self):
        model = fixture_f4(5)
        assert model.depths == (2, 3, 4, 5, 6)
        assert model.deepest.atoms == ("0", "1", "2", "3", "4", "5")
        for level, depth in enumerate(model.depths):
            assert len(model.spaces[level].atoms) == depth
            assert model.mus[level].is_finite
            assert model.nus[level].is_finite

    def test_measure_rules(self):
        model = fixture_f4(3)
        top = model.deepest
        # max_element on {0..3}
        assert model.mus[-1](top.make_set(["1", "3"])) == 3
        assert model.mus[-1](top.empty_set) == ZERO
        # indicator_nonempty
        assert model.nus[-1](top.make_set(["0"])) == 1
        assert model.nus[-1](top.empty_set) == ZERO

    def test_depth_validation(self):
        with pytest.raises(PreconditionError):
            make_truncation_model(
                ["0", "1"], {"rule": "max_element"},
                {"rule": "indicator_nonempty"}, depths=[2, 1],
            )
        with pytest.raises(PreconditionError):
            make_truncation_model(
                ["0", "1"], {"rule": "max_element"},
                {"rule": "indicator_nonempty"}, depths=[3],
            )

    def test_inconsistent_explicit_tables_rejected(self):
        # mu({0}) differs between the two levels
        tables = [
            [{"set": [], "value": 0}, {"set": ["0"], "value": 1}],
            [
                {"set": [], "value": 0},
                {"set": ["0"], "value": 2},
                {"set": ["1"], "value": 1},
                {"set": ["0", "1"], "value": 2},
            ],
        ]
        nu_tables = [
            [{"set": [], "value": 0}, {"set": ["0"], "value": 1}],
            [
                {"set": [], "value": 0},
                {"set": ["0"], "value": 1},
                {"set": ["1"], "value": 1},
                {"set": ["0", "1"], "value": 1},
            ],
        ]
        with pytest.raises(PreconditionError) as err:
            make_truncation_model(
                ["0", "1"],
                {"rule": "explicit", "tables": tables},
                {"rule": "explicit", "tables": nu_tables},
                depths=[1, 2],
            )
        assert "inconsistent" in str(err.value)

    def test_levels_are_compared_on_every_set(self):
        # past 12 blocks too: mu = |A| except mu({0,2,5}) = 7/2 at depth 13,
        # a set that no singleton, prefix or parity class reaches
        atoms = [str(k) for k in range(14)]
        odd = {0b100101}

        def table(depth, odd_value):
            space = build_space(atoms[:depth])
            return [{"set": list(A.atom_names()),
                     "value": odd_value if A.mask in odd else len(A)}
                    for A in space.subsets()]

        with pytest.raises(PreconditionError) as err:
            make_truncation_model(
                atoms,
                {"rule": "explicit", "tables": [table(13, "7/2"), table(14, 3)]},
                {"rule": "cardinality"},
                depths=[13, 14],
            )
        assert "mu({0,2,5}) differs between levels 0 and 1" in str(err.value)

    def test_restrict_operations(self):
        model = fixture_f4(4)
        top = model.deepest
        A = top.make_set(["0", "3", "4"])
        A_1 = restrict_set(model, A, 1)  # U_2 = {0, 1, 2}
        assert A_1.atom_names() == ("0",)
        f = function_from_values(top, {a: Fraction(a) for a in top.atoms})
        f_1 = restrict_function(model, f, 1)
        assert f_1.space == model.spaces[1]
        assert f_1("2") == 2


class TestFamilyGenerators:
    def test_threshold_tail_family_derives_identity(self):
        space = build_space(["0", "1", "2"])
        family = threshold_tail_family(space)
        from choquetrn import derive_function

        f = derive_function(family)
        assert all(f(a) == Fraction(a) for a in space.atoms)

    def test_resolver_accepts_callables_lists_and_names(self):
        space = build_space(["0", "1"])
        fam = threshold_tail_family(space)
        assert resolve_family_generator("threshold_tail")(space, 0) == fam
        assert resolve_family_generator(lambda s: threshold_tail_family(s))(
            space, 3
        ) == fam
        assert resolve_family_generator([fam])(space, 0) == fam
        with pytest.raises(PreconditionError):
            resolve_family_generator("nope")


class TestGlue:
    def test_fixture_glues_to_identity(self):
        model = fixture_f4(6)
        result = glue_derivative(model, "threshold_tail")
        assert result.holds
        assert result.finite_ae
        assert all(
            result.function(a) == Fraction(a) for a in model.deepest.atoms
        )
        assert "truncated limit evidence" in result.note
        for report in result.per_truncation:
            assert report.decomposition.holds
            assert report.compatible
            assert report.nu_measure_of_infinity_set == ZERO

    def test_incompatible_families_reported_not_repaired(self):
        model = fixture_f4(3)
        # families that derive different functions at different levels
        families = []
        for space in model.spaces:
            f = function_from_values(
                space, {a: Fraction(a) + len(space.atoms) for a in space.atoms}
            )
            from choquetrn import family_from_function

            families.append(family_from_function(f))
        result = glue_derivative(model, families)
        assert not result.holds
        assert result.function is None
        assert any(not r.compatible for r in result.per_truncation)


class TestVerify:
    def test_fixture_verifies_on_the_power_set(self):
        model = fixture_f4(6)
        result = glue_derivative(model, "threshold_tail")
        report = verify_sigma_finite(model, result.function)
        assert report.holds
        assert len(report.records) == model.deepest.n_subsets()
        for record in report.records:
            assert record.equal and record.nondecreasing
            assert record.mu_values == record.integral_values

    def test_wrong_function_fails(self):
        model = fixture_f4(3)
        f = function_from_values(
            model.deepest, {a: Fraction(a) + 1 for a in model.deepest.atoms}
        )
        report = verify_sigma_finite(model, f)
        assert not report.holds

    def test_function_must_live_on_deepest_truncation(self):
        model = fixture_f4(3)
        f = function_from_values(
            model.spaces[0], {a: 0 for a in model.spaces[0].atoms}
        )
        with pytest.raises(PreconditionError):
            verify_sigma_finite(model, f)

    def test_polynomial_test_sets_are_measurable_and_varied(self):
        space = build_space([str(i) for i in range(15)])
        sets = _polynomial_test_sets(space)
        masks = {A.mask for A in sets}
        assert 0 in masks and space.full_mask in masks
        assert len(masks) > 2 * len(space.atoms)
        for A in sets:
            assert A.mask & ~space.full_mask == 0


def _additive_model(n_atoms, depths, weights):
    """mu = sum of i * w_i, nu = sum of w_i: the density is f(i) = i."""
    return make_truncation_model(
        [str(i) for i in range(n_atoms)],
        {"rule": "additive_sequence", "weights": [i * w for i, w in enumerate(weights)]},
        {"rule": "additive_sequence", "weights": list(weights)},
        depths=depths,
    )


def _explicit_model():
    """Explicit tables per level: mu = max element, nu = |A|^2 / 4 (not
    additive), both read only from the set, so the levels agree."""
    atoms = ["0", "1", "2", "3"]
    depths = [2, 3, 4]

    def tables(value):
        out = []
        for depth in depths:
            space = build_space(atoms[:depth])
            out.append([{"set": list(A.atom_names()), "value": value(A)}
                        for A in space.subsets()])
        return out

    return make_truncation_model(
        atoms,
        {"rule": "explicit",
         "tables": tables(lambda A: max((int(a) for a in A.atom_names()), default=0))},
        {"rule": "explicit", "tables": tables(lambda A: Fraction(len(A) ** 2, 4))},
        depths=depths,
    )


def _sigma_cases():
    """(label, model, f): passing and failing verifications of every kind."""
    for n in range(4, 9):
        model = fixture_f4(n)
        yield f"f4-{n}", model, glue_derivative(model, "threshold_tail").function
    rng = random.Random(31)
    for n_atoms in (4, 6, 7):
        weights = [Fraction(rng.randrange(0, 4), rng.choice((1, 2, 3)))
                   for _ in range(n_atoms)]
        model = _additive_model(n_atoms, list(range(1, n_atoms + 1)), weights)
        f = glue_derivative(model, "threshold_tail").per_truncation[-1].function
        yield f"additive-{n_atoms}", model, f
        wrong = function_from_values(
            model.deepest, {a: Fraction(a) + 1 for a in model.deepest.atoms}
        )
        yield f"additive-{n_atoms}-wrong", model, wrong
    for n_max, (mu_scale, nu_scale) in ((5, ("5/2", "4/3")), (6, ("4/3", "5/2"))):
        model = make_truncation_model(
            [str(k) for k in range(n_max + 1)],
            {"rule": "cardinality", "scale": mu_scale},
            {"rule": "cardinality", "scale": nu_scale},
            depths=[k + 1 for k in range(1, n_max + 1)],
        )
        glue = glue_derivative(model, "threshold_tail")
        assert not glue.holds
        yield f"cardinality-{n_max}", model, glue.per_truncation[-1].function
    model = _explicit_model()
    yield "explicit", model, glue_derivative(model, "threshold_tail").per_truncation[-1].function
    deep = _additive_model(14, [3, 8, 14], [Fraction(1 + i % 3, 2) for i in range(14)])
    assert deep.deepest.n_blocks > _EXHAUSTIVE_LIMIT
    yield "deep", deep, glue_derivative(deep, "threshold_tail").function


class TestDistinctTruncatedSets:
    """One integral per distinct A & U_level against the per-level loop."""

    def test_matches_per_level_oracle_and_counts_distinct_sets(self, monkeypatch):
        calls = []

        def counted(f, nu, A=None):
            calls.append((f.space, A.mask))
            return choquet_value(f, nu, A)

        monkeypatch.setattr(sigma_finite, "choquet_value", counted)
        outcomes = Counter()
        for label, model, f in _sigma_cases():
            calls.clear()
            report = verify_sigma_finite(model, f)
            assert report == per_level_sigma_finite(model, f), label
            # one integral per distinct truncated mask, on the deepest level
            distinct = {
                (model.deepest, restrict_set(model, A, level).mask)
                for A in default_sigma_test_sets(model)
                for level in range(len(model.depths))
            }
            assert len(calls) == len(distinct), label
            assert set(calls) == distinct, label
            outcomes[report.holds] += 1
        assert outcomes[True] >= 6 and outcomes[False] >= 4, outcomes

    def test_given_test_sets_match_the_oracle(self):
        model = fixture_f4(5)
        f = glue_derivative(model, "threshold_tail").function
        sets = [model.deepest.make_set(["1", "4"]), model.deepest.empty_set,
                model.deepest.make_set(["1", "4"]), model.deepest.full_set]
        report = verify_sigma_finite(model, f, sets)
        assert report == per_level_sigma_finite(model, f, sets)
        assert [r.set for r in report.records] == sets

    def test_test_sets_must_live_on_the_deepest_truncation(self):
        model = fixture_f4(4)
        f = glue_derivative(model, "threshold_tail").function
        foreign = build_space(["a", "b", "c", "d", "e"])
        assert foreign.n_blocks == model.deepest.n_blocks
        with pytest.raises(SpaceMismatchError):
            verify_sigma_finite(model, f, [foreign.full_set])
        with pytest.raises(SpaceMismatchError):
            verify_sigma_finite(model, f, [model.deepest.full_set, model.spaces[0].full_set])
