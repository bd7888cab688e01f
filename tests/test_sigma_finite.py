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
    indefinite_integral_measure,
    make_truncation_model,
    threshold_tail_family,
    verify_sigma_finite,
)
from choquetrn import sigma_finite
from choquetrn.sigma_finite import _EXHAUSTIVE_LIMIT, _polynomial_test_sets
from support import (
    default_sigma_test_sets,
    per_level_glue,
    per_level_sigma_finite,
    random_monotone_measure,
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


class TestGlue:
    def test_fixture_glues_to_identity(self):
        model = fixture_f4(6)
        result = glue_derivative(model)
        assert result.holds
        assert result.finite_ae
        assert all(
            result.function(a) == Fraction(a) for a in model.deepest.atoms
        )
        assert "truncated limit evidence" in result.note
        assert result.decomposition.holds and result.decomposition.witness is None
        assert result.per_truncation == (True,) * len(model.depths)

    def test_levels_fail_from_the_first_failing_set_on(self):
        # mu = nu = |A| is the density 1: the levels holding only atoms
        # named 1 pass, and the first atom named 2 fails every deeper level
        model = make_truncation_model(
            ["1", "01", "2", "1/1", "3"],
            {"rule": "cardinality"}, {"rule": "cardinality"},
            depths=[1, 2, 3, 4, 5],
        )
        result = glue_derivative(model)
        assert not result.holds and result.function is None
        assert result.decomposition.witness.sets[0].atom_names() == ("2",)
        assert result.per_truncation == (True, True, False, False, False)
        assert result.finite_ae
        assert per_level_glue(model) == (
            False, result.per_truncation, None, True
        )

    def test_matches_the_per_level_oracle(self):
        outcomes = Counter()
        for label, model in _glue_models(random.Random(16), 300):
            result = glue_derivative(model)
            assert (result.holds, result.per_truncation, result.function,
                    result.finite_ae) == per_level_glue(model), label
            assert result.decomposition.holds == result.holds, label
            outcomes["pass" if result.holds else
                     "some levels" if any(result.per_truncation) else "fail"] += 1
        assert min(outcomes[k] for k in ("pass", "some levels", "fail")) >= 30, outcomes


_NAMES = ["0", "1", "01", "1/1", "1/2", "2/4", "3/2", "2", "5/3", "3", "7/2", "4"]


def _glue_models(rng, count):
    """(label, model): fixture_f4, then rule and explicit-table models on
    shuffled, fractional and tied numeric atom names with random depth lists,
    about half of them failing at some level."""
    for n in range(1, 7):
        yield f"f4-{n}", fixture_f4(n)
    for case in range(count):
        names = rng.sample(_NAMES, rng.randint(1, 7))
        depths = sorted(rng.sample(range(1, len(names) + 1),
                                   rng.randint(1, len(names))))
        space = build_space(names)
        kind = rng.choice(("additive_sequence", "cardinality", "max_element",
                           "explicit"))
        if kind == "additive_sequence":
            weights = [Fraction(rng.randrange(0, 4), rng.choice((1, 2, 3)))
                       for _ in names]
            mu_weights = [Fraction(a) * w for a, w in zip(names, weights)]
            if rng.random() < 0.5:  # a wrong weight from some atom on
                k = rng.randrange(len(names))
                mu_weights[k] += rng.choice((1, Fraction(1, 2)))
            mu_rule = {"rule": kind, "weights": mu_weights}
            nu_rule = {"rule": kind, "weights": weights}
        elif kind == "cardinality":
            mu_rule = {"rule": kind, "scale": rng.choice((1, 2, "1/2", "3/2"))}
            nu_rule = {"rule": kind, "scale": rng.choice((1, 2))}
        elif kind == "max_element":
            mu_rule = {"rule": kind}
            nu_rule = {"rule": rng.choice(("indicator_nonempty", "cardinality"))}
        else:
            # tables read from the set: nu any monotone measure, mu its
            # integral of the identity, perhaps plus a bump on one atom
            nu = random_monotone_measure(space, rng)
            f = function_from_values(space, {a: a for a in names})
            mu = indefinite_integral_measure(f, nu)
            bump = rng.randrange(len(names)) if rng.random() < 0.5 else None

            def tables(measure, bump=None):
                out = []
                for depth in depths:
                    level = build_space(names[:depth])
                    out.append([
                        {"set": list(A.atom_names()),
                         "value": measure.value_of_mask(A.mask).as_fraction()
                         + (1 if bump is not None and A.mask >> bump & 1 else 0)}
                        for A in level.subsets()
                    ])
                return out

            mu_rule = {"rule": kind, "tables": tables(mu, bump)}
            nu_rule = {"rule": kind, "tables": tables(nu)}
        model = make_truncation_model(names, mu_rule, nu_rule, depths=depths)
        yield f"{kind}-{case}-{names}-{depths}", model


class TestVerify:
    def test_fixture_verifies_on_the_power_set(self):
        model = fixture_f4(6)
        result = glue_derivative(model)
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


def _identity(model):
    """The threshold-tail density on the deepest level, glued or not."""
    return function_from_values(model.deepest, {a: a for a in model.deepest.atoms})


def _sigma_cases():
    """(label, model, f): passing and failing verifications of every kind."""
    for n in range(4, 9):
        model = fixture_f4(n)
        yield f"f4-{n}", model, glue_derivative(model).function
    rng = random.Random(31)
    for n_atoms in (4, 6, 7):
        weights = [Fraction(rng.randrange(0, 4), rng.choice((1, 2, 3)))
                   for _ in range(n_atoms)]
        model = _additive_model(n_atoms, list(range(1, n_atoms + 1)), weights)
        glue = glue_derivative(model)
        assert glue.holds == all(glue.per_truncation)
        yield f"additive-{n_atoms}", model, _identity(model)
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
        glue = glue_derivative(model)
        assert not glue.holds and not any(glue.per_truncation[1:])
        yield f"cardinality-{n_max}", model, _identity(model)
    model = _explicit_model()
    assert not glue_derivative(model).holds
    yield "explicit", model, _identity(model)
    deep = _additive_model(14, [3, 8, 14], [Fraction(1 + i % 3, 2) for i in range(14)])
    assert deep.deepest.n_blocks > _EXHAUSTIVE_LIMIT
    yield "deep", deep, glue_derivative(deep).function


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
        f = glue_derivative(model).function
        sets = [model.deepest.make_set(["1", "4"]), model.deepest.empty_set,
                model.deepest.make_set(["1", "4"]), model.deepest.full_set]
        report = verify_sigma_finite(model, f, sets)
        assert report == per_level_sigma_finite(model, f, sets)
        assert [r.set for r in report.records] == sets

    def test_test_sets_must_live_on_the_deepest_truncation(self):
        model = fixture_f4(4)
        f = glue_derivative(model).function
        foreign = build_space(["a", "b", "c", "d", "e"])
        assert foreign.n_blocks == model.deepest.n_blocks
        with pytest.raises(SpaceMismatchError):
            verify_sigma_finite(model, f, [foreign.full_set])
        with pytest.raises(SpaceMismatchError):
            verify_sigma_finite(model, f, [model.deepest.full_set, model.spaces[0].full_set])
