"""Truncation models, gluing and truncated-limit verification."""

import contextlib
import dataclasses
import io
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import pairwise

import pytest

from choquetrn import (
    MeasurableSet,
    PreconditionError,
    ZERO,
    build_space,
    choquet_value,
    fixture_f4,
    function_from_values,
    glue_derivative,
    indefinite_integral_measure,
    make_truncation_model,
    threshold_tail_family,
    verify_rn,
    verify_sigma_finite,
)
from choquetrn import sigma_finite
from choquetrn.cli import EXIT_PASS, main
from support import (
    per_level_glue,
    per_level_model,
    per_level_sigma_finite,
    random_monotone_measure,
    restrict_function,
    restrict_set,
)


def _f4_args(n_max):
    """The arguments ``fixture_f4(n_max)`` passes to ``make_truncation_model``."""
    return ([str(k) for k in range(n_max + 1)], {"rule": "max_element"},
            {"rule": "indicator_nonempty"}, [n + 1 for n in range(1, n_max + 1)])


def _both(*args):
    """The truncation model and its per-level oracle from the same arguments."""
    return make_truncation_model(*args), per_level_model(*args)


class TestModelConstruction:
    def test_fixture_model_shape(self):
        model = fixture_f4(5)
        assert model.depths == (2, 3, 4, 5, 6)
        assert model.deepest.atoms == ("0", "1", "2", "3", "4", "5")
        # one mu and one nu, on the deepest prefix, and no table per level
        assert [f.name for f in dataclasses.fields(model)] == [
            "atoms", "depths", "deepest", "mu", "nu"]
        assert model.mu.space == model.nu.space == model.deepest
        for depth in model.depths:
            assert model.mu.value_of_mask((1 << depth) - 1).is_finite
            assert model.nu.value_of_mask((1 << depth) - 1).is_finite

    def test_measure_rules(self):
        model = fixture_f4(3)
        top = model.deepest
        # max_element on {0..3}
        assert model.mu(top.make_set(["1", "3"])) == 3
        assert model.mu(top.empty_set) == ZERO
        # indicator_nonempty
        assert model.nu(top.make_set(["0"])) == 1
        assert model.nu(top.empty_set) == ZERO

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
        # at 13 and 14 blocks: mu = |A| except mu({0,2,5}) = 7/2 at depth 13,
        # a set that is no singleton, prefix or parity class
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
        model, levels = _both(*_f4_args(4))
        top = model.deepest
        A = top.make_set(["0", "3", "4"])
        A_1 = restrict_set(levels, A, 1)  # U_2 = {0, 1, 2}
        assert A_1.atom_names() == ("0",)
        f = function_from_values(top, {a: Fraction(a) for a in top.atoms})
        f_1 = restrict_function(levels, f, 1)
        assert f_1.space == levels.spaces[1]
        assert f_1("2") == 2


_RULE_BUILDERS = ("additive_measure", "max_weight_measure", "cardinality_measure",
                  "measure_from_table", "MonotoneMeasure")


def _count_tables(monkeypatch):
    """A Counter of the measures ``sigma_finite`` materializes, by builder."""
    calls = Counter()
    for name in _RULE_BUILDERS:
        def counted(*args, _build=getattr(sigma_finite, name), _name=name, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(sigma_finite, name, counted)
    return calls


def _rules(n_atoms):
    """One spec of every generating rule on ``n_atoms`` points."""
    return [
        {"rule": "indicator_nonempty", "value": "3/2"},
        {"rule": "max_element"},
        {"rule": "additive_sequence", "weights": [k % 3 for k in range(n_atoms)]},
        {"rule": "cardinality", "scale": 2},
    ]


class TestOneTablePerMeasure:
    def test_rule_models_materialize_one_table_per_measure(self, monkeypatch):
        calls = _count_tables(monkeypatch)
        for n_max in (1, 4, 9):
            atoms = [str(k) for k in range(n_max + 1)]
            for depths in ([n_max + 1], list(range(1, n_max + 2)), [1, n_max + 1]):
                for mu_rule in _rules(len(atoms)):
                    for nu_rule in _rules(len(atoms)):
                        calls.clear()
                        model = make_truncation_model(atoms, mu_rule, nu_rule, depths)
                        assert sum(calls.values()) == 2, (mu_rule, nu_rule, depths)
                        assert model.mu.space == model.deepest
        # the 17-point bound of a problem file: 16 levels, still two tables
        calls.clear()
        make_truncation_model(*_f4_args(16))
        assert calls == {"max_weight_measure": 2}

    def test_explicit_tables_are_one_per_level(self, monkeypatch):
        calls = _count_tables(monkeypatch)
        atoms, mu_rule, _, depths = _explicit_args()
        make_truncation_model(atoms, mu_rule, {"rule": "cardinality"}, depths)
        assert calls == {"measure_from_table": len(depths), "cardinality_measure": 1}


_TABLE_NAMES = ["0", "1", "2", "01", "1/2", "3/2", "7/3", "4", "inf", "a", "x1"]
_AMOUNTS = [0, 1, 2, "0", "1/2", "3/2", "7/3", "5"]


def _amount(rng):
    """A weight, value or scale: mostly finite, now and then infinite or bad."""
    draw = rng.random()
    if draw < 0.04:
        return "inf"
    if draw < 0.07:
        return rng.choice(("-1", "abc", "1/0"))
    return rng.choice(_AMOUNTS)


def _random_rule(rng, names, depths):
    """A truncation measure spec of a random rule, as a problem file holds it."""
    kind = rng.choices(("indicator_nonempty", "max_element", "additive_sequence",
                        "cardinality", "explicit", "nope"), (4, 4, 5, 4, 8, 1))[0]
    if kind == "indicator_nonempty":
        return {"rule": kind, "value": _amount(rng)} if rng.random() < 0.7 else {"rule": kind}
    if kind == "additive_sequence":
        count = len(names) + rng.choice((0, 0, 1, 2, -1))
        return {"rule": kind, "weights": [_amount(rng) for _ in range(count)]}
    if kind == "cardinality":
        return {"rule": kind, "scale": _amount(rng)} if rng.random() < 0.7 else {"rule": kind}
    if kind != "explicit":
        return {"rule": kind}
    # every level reads one monotone measure on the whole universe, then
    # perhaps one level adds 1 on the sets holding one of its atoms, one
    # shallow level is infinite on its universe, or a table is missing or
    # repeated
    measure = random_monotone_measure(build_space(names), rng)
    levels = [d for d in depths if 1 <= d <= len(names)] if isinstance(depths, list) else []
    tables = [[{"set": list(A.atom_names()), "value": str(measure.value_of_mask(A.mask))}
               for A in build_space(names[:depth]).subsets()] for depth in levels]
    draw = rng.random()
    if tables and draw < 0.3:
        level = rng.randrange(len(tables))
        k = rng.randrange(levels[level])
        for entry in tables[level]:
            if names[k] in entry["set"]:
                entry["value"] = str(Fraction(entry["value"]) + 1)
    elif len(tables) > 1 and draw < 0.4:
        tables[rng.randrange(len(tables) - 1)][-1]["value"] = "inf"
    elif tables and draw < 0.45:
        del tables[rng.randrange(len(tables))]
    elif tables and draw < 0.5:
        tables.append(tables[-1])
    return {"rule": kind, "tables": tables}


def _rule_cases(rng, count):
    """(label, model arguments): random rules for mu and nu on numeric,
    fractional, infinite and non-numeric atom names, with random depths,
    now and then invalid ones."""
    for case in range(count):
        pool = _TABLE_NAMES if rng.random() < 0.2 else _TABLE_NAMES[:8]
        names = rng.sample(pool, rng.randint(1, 6))
        draw = rng.random()
        if draw < 0.05:
            depths = rng.choice(([0], [len(names) + 1], [], [len(names), 1]))
        elif draw < 0.15:
            depths = None
        else:
            depths = sorted(rng.sample(range(1, len(names) + 1),
                                       rng.randint(1, len(names))))
        mu_rule = _random_rule(rng, names, depths if depths is not None
                               else list(range(1, len(names) + 1)))
        nu_rule = _random_rule(rng, names, depths if depths is not None
                               else list(range(1, len(names) + 1)))
        yield f"{case}-{names}-{depths}", (names, mu_rule, nu_rule, depths)


def _outcome(build, args):
    """(the built model, None), or (None, the exception's type and text)."""
    try:
        return build(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


class TestLevelsMatchTheOracle:
    def test_each_level_is_the_restriction_of_the_deepest_table(self):
        outcomes = Counter()
        for label, args in _rule_cases(random.Random(17), 800):
            model, error = _outcome(make_truncation_model, args)
            levels, expected = _outcome(per_level_model, args)
            assert error == expected, label
            if levels is None:
                text = expected[1]
                outcomes["finite" if "finite on every" in text else
                         "inconsistent" if "inconsistent" in text else "other"] += 1
                continue
            outcomes["built"] += 1
            assert (model.atoms, model.depths, model.deepest) == (
                levels.atoms, levels.depths, levels.deepest), label
            for level, depth in enumerate(levels.depths):
                for measure, tables in ((model.mu, levels.mus), (model.nu, levels.nus)):
                    assert [measure.value_of_mask(m) for m in range(1 << depth)] == [
                        tables[level].value_of_mask(m) for m in range(1 << depth)
                    ], (label, level)
        assert min(outcomes[k] for k in ("built", "finite", "inconsistent", "other")) >= 40, outcomes


def _explicit_tables(atoms, depths, value, bumps=()):
    """One explicit table per depth of ``value(A)``, plus 1 on the sets of
    level L that hold atom a, for each (L, a) in ``bumps``."""
    return {"rule": "explicit", "tables": [
        [{"set": list(A.atom_names()),
          "value": value(A) + sum(1 for L, a in bumps
                                  if L == level and a in A.atom_names())}
         for A in build_space(atoms[:depth]).subsets()]
        for level, depth in enumerate(depths)
    ]}


class TestErrorTexts:
    """The errors a model raises name the first level or set at fault."""

    @pytest.mark.parametrize("k, level", [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2)])
    def test_infinite_weight_names_the_first_level_holding_its_atom(self, k, level):
        weights = ["1"] * 6
        weights[k] = "inf"
        args = ([str(i) for i in range(6)], {"rule": "cardinality"},
                {"rule": "additive_sequence", "weights": weights}, [2, 4, 6])
        for build in (make_truncation_model, per_level_model):
            with pytest.raises(PreconditionError) as err:
                build(*args)
            assert str(err.value) == (
                f"measures must be finite on every truncation (level {level})")

    @pytest.mark.parametrize("depths, mu_bumps, nu_bumps, message", [
        # nu disagrees at a shallower level than mu
        ([1, 2, 3], [(2, "0")], [(1, "0")], "nu({0}) differs between levels 0 and 1"),
        # both disagree between levels 0 and 1, nu on an earlier set
        ([2, 3], [(1, "1")], [(1, "0")], "nu({0}) differs between levels 0 and 1"),
        # mu first on the same set
        ([2, 3], [(1, "0")], [(1, "0")], "mu({0}) differs between levels 0 and 1"),
    ])
    def test_both_explicit_inconsistent(self, depths, mu_bumps, nu_bumps, message):
        atoms = ["0", "1", "2"]
        args = (atoms, _explicit_tables(atoms, depths, len, mu_bumps),
                _explicit_tables(atoms, depths, len, nu_bumps), depths)
        for build in (make_truncation_model, per_level_model):
            with pytest.raises(PreconditionError) as err:
                build(*args)
            assert str(err.value) == f"inconsistent generators: {message}"

    def test_explicit_mu_next_to_a_rule_built_nu(self):
        atoms, depths = ["0", "1", "2"], [1, 2, 3]
        consistent = _explicit_tables(atoms, depths, len)
        model = make_truncation_model(atoms, consistent, {"rule": "cardinality"}, depths)
        assert model.mu == model.nu == per_level_model(
            atoms, consistent, {"rule": "cardinality"}, depths).mus[-1]
        inconsistent = _explicit_tables(atoms, depths, len, [(2, "1")])
        infinite = {"rule": "additive_sequence", "weights": ["1", "1", "inf"]}
        for nu_rule, message in (
            ({"rule": "cardinality"},
             "inconsistent generators: mu({1}) differs between levels 1 and 2"),
            # finiteness is checked on every level before any set is compared
            (infinite, "measures must be finite on every truncation (level 2)"),
        ):
            for build in (make_truncation_model, per_level_model):
                with pytest.raises(PreconditionError) as err:
                    build(atoms, inconsistent, nu_rule, depths)
                assert str(err.value) == message

    def test_shallow_infinite_explicit_table(self):
        # level 0 is infinite on {0, 1}; level 1 is finite there, so the
        # levels also disagree, but finiteness is read from each level's table
        atoms, depths = ["0", "1", "2"], [2, 3]
        mu_rule = _explicit_tables(atoms, depths, len)
        mu_rule["tables"][0][-1]["value"] = "inf"
        for build in (make_truncation_model, per_level_model):
            with pytest.raises(PreconditionError) as err:
                build(atoms, mu_rule, {"rule": "cardinality"}, depths)
            assert str(err.value) == "measures must be finite on every truncation (level 0)"


class TestFamilyGenerators:
    def test_threshold_tail_family_derives_identity(self):
        space = build_space(["0", "1", "2"])
        family = threshold_tail_family(space)
        from choquetrn import derive_function

        f = derive_function(family)
        assert all(f(a) == Fraction(a) for a in space.atoms)

    def test_one_family_per_sigma_finite_request(self, monkeypatch, tmp_path):
        """Parsing validates the model's threshold-tail family and gluing
        reads the same one."""
        calls = []
        build = sigma_finite.family_from_function
        monkeypatch.setattr(sigma_finite, "family_from_function",
                            lambda f: calls.append(f) or build(f))
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"truncations": {"N_max": 4, "measures": {
            "mu": {"rule": "max_element"}, "nu": {"rule": "indicator_nonempty"}}}}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sigma-finite", "--input", str(path)]) == EXIT_PASS
        assert len(calls) == 1


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
        model, levels = _both(
            ["1", "01", "2", "1/1", "3"],
            {"rule": "cardinality"}, {"rule": "cardinality"}, [1, 2, 3, 4, 5],
        )
        result = glue_derivative(model)
        assert not result.holds and result.function is None
        assert result.decomposition.witness.sets[0].atom_names() == ("2",)
        assert result.per_truncation == (True, True, False, False, False)
        assert result.finite_ae
        assert per_level_glue(levels) == (
            False, result.per_truncation, None, True
        )

    def test_matches_the_per_level_oracle(self):
        outcomes = Counter()
        for label, args in _glue_models(random.Random(16), 300):
            model, levels = _both(*args)
            result = glue_derivative(model)
            assert (result.holds, result.per_truncation, result.function,
                    result.finite_ae) == per_level_glue(levels), label
            assert result.decomposition.holds == result.holds, label
            outcomes["pass" if result.holds else
                     "some levels" if any(result.per_truncation) else "fail"] += 1
        assert min(outcomes[k] for k in ("pass", "some levels", "fail")) >= 30, outcomes


_NAMES = ["0", "1", "01", "1/1", "1/2", "2/4", "3/2", "2", "5/3", "3", "7/2", "4"]


def _glue_models(rng, count):
    """(label, model arguments): fixture_f4, then rule and explicit-table models on
    shuffled, fractional and tied numeric atom names with random depth lists,
    about half of them failing at some level."""
    for n in range(1, 7):
        yield f"f4-{n}", _f4_args(n)
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
        yield f"{kind}-{case}-{names}-{depths}", (names, mu_rule, nu_rule, depths)


class TestVerify:
    def test_fixture_verifies_on_the_power_set(self):
        model = fixture_f4(6)
        result = glue_derivative(model)
        report = verify_sigma_finite(model, result.function)
        assert report.holds
        assert report.checked == model.deepest.n_subsets()
        assert report.records == ()

    def test_wrong_function_fails(self):
        model = fixture_f4(3)
        f = function_from_values(
            model.deepest, {a: Fraction(a) + 1 for a in model.deepest.atoms}
        )
        report = verify_sigma_finite(model, f)
        assert not report.holds
        assert report.records and all(map(_refutes, report.records))

    def test_function_must_live_on_deepest_truncation(self):
        model = fixture_f4(3)
        shallow = build_space(model.atoms[:model.depths[0]])
        f = function_from_values(shallow, {a: 0 for a in shallow.atoms})
        with pytest.raises(PreconditionError):
            verify_sigma_finite(model, f)

    def test_matches_the_per_level_oracle(self):
        # rule-built and explicit models, with the threshold-tail density
        # and with a density wrong on one atom, which fails only the levels
        # that hold it
        rng = random.Random(24)
        outcomes = Counter()
        for label, args in _glue_models(random.Random(23), 25):
            model, levels = _both(*args)
            names = model.deepest.atoms
            wrong = dict(zip(names, (Fraction(a) for a in names)))
            wrong[rng.choice(names)] += rng.choice((1, Fraction(1, 2)))
            for f in (_identity(model), function_from_values(model.deepest, wrong)):
                report = verify_sigma_finite(model, f)
                expected = per_level_sigma_finite(levels, f)
                assert report == expected, label
                assert report.holds == verify_rn(model.mu, model.nu, f).holds, label
                assert all(map(_refutes, expected.records)), label
                if report.holds:
                    outcomes["pass"] += 1
                elif all(r.mu_values[0] == r.integral_values[0] for r in report.records):
                    outcomes["deeper levels only"] += 1
                else:
                    outcomes["first level"] += 1
        assert min(outcomes[k] for k in ("pass", "deeper levels only",
                                         "first level")) >= 10, outcomes


def _refutes(record):
    """A failing set's record: mu and the integral are monotone in the set,
    so both sides are nondecreasing in n, and they differ at some level."""
    return (all(x <= y for x, y in pairwise(record.mu_values))
            and all(x <= y for x, y in pairwise(record.integral_values))
            and record.mu_values != record.integral_values)


def _additive_args(n_atoms, depths, weights):
    """mu = sum of i * w_i, nu = sum of w_i: the density is f(i) = i."""
    return (
        [str(i) for i in range(n_atoms)],
        {"rule": "additive_sequence", "weights": [i * w for i, w in enumerate(weights)]},
        {"rule": "additive_sequence", "weights": list(weights)},
        depths,
    )


def _explicit_args():
    """Explicit tables per level: mu = max element, nu = |A|^2 / 4 (not
    additive), both read only from the set, so the levels agree."""
    atoms = ["0", "1", "2", "3"]
    depths = [2, 3, 4]
    return (
        atoms,
        _explicit_tables(atoms, depths,
                         lambda A: max((int(a) for a in A.atom_names()), default=0)),
        _explicit_tables(atoms, depths, lambda A: Fraction(len(A) ** 2, 4)),
        depths,
    )


def _identity(model):
    """The threshold-tail density on the deepest level, glued or not."""
    return function_from_values(model.deepest, {a: a for a in model.deepest.atoms})


def _sigma_cases():
    """(label, model, per-level oracle, f, oracle sets): passing and failing
    verifications of every kind.  The oracle compares every set but for the
    14-atom model, where it compares a seeded sample, in canonical order."""
    for n in range(4, 9):
        model, levels = _both(*_f4_args(n))
        yield f"f4-{n}", model, levels, glue_derivative(model).function, None
    rng = random.Random(31)
    for n_atoms in (4, 6, 7):
        weights = [Fraction(rng.randrange(0, 4), rng.choice((1, 2, 3)))
                   for _ in range(n_atoms)]
        model, levels = _both(*_additive_args(n_atoms, list(range(1, n_atoms + 1)), weights))
        glue = glue_derivative(model)
        assert glue.holds == all(glue.per_truncation)
        yield f"additive-{n_atoms}", model, levels, _identity(model), None
        wrong = function_from_values(
            model.deepest, {a: Fraction(a) + 1 for a in model.deepest.atoms}
        )
        yield f"additive-{n_atoms}-wrong", model, levels, wrong, None
    for n_max, (mu_scale, nu_scale) in ((5, ("5/2", "4/3")), (6, ("4/3", "5/2"))):
        model, levels = _both(
            [str(k) for k in range(n_max + 1)],
            {"rule": "cardinality", "scale": mu_scale},
            {"rule": "cardinality", "scale": nu_scale},
            [k + 1 for k in range(1, n_max + 1)],
        )
        glue = glue_derivative(model)
        assert not glue.holds and not any(glue.per_truncation[1:])
        yield f"cardinality-{n_max}", model, levels, _identity(model), None
    model, levels = _both(*_explicit_args())
    assert not glue_derivative(model).holds
    yield "explicit", model, levels, _identity(model), None
    deep, levels = _both(*_additive_args(14, [3, 8, 14],
                                         [Fraction(1 + i % 3, 2) for i in range(14)]))
    sample = [MeasurableSet(deep.deepest, mask)
              for mask in sorted(random.Random(14).sample(range(deep.deepest.n_subsets()), 300))]
    yield "deep", deep, levels, glue_derivative(deep).function, sample


class TestDistinctTruncatedSets:
    """One verify_rn on the deepest level against the per-level loop."""

    def test_matches_oracle_and_counts_failing_records(self, monkeypatch):
        calls = []

        def counted(f, nu, A=None):
            calls.append((f.space, A.mask))
            return choquet_value(f, nu, A)

        monkeypatch.setattr(sigma_finite, "choquet_value", counted)
        outcomes = Counter()
        for label, model, levels, f, sets in _sigma_cases():
            calls.clear()
            report = verify_sigma_finite(model, f)
            expected = per_level_sigma_finite(levels, f, sets)
            if sets is None:
                assert report == expected, label
            else:
                sampled = {A.mask for A in sets}
                assert report.holds == expected.holds, label
                assert tuple(r for r in report.records
                             if r.set.mask in sampled) == expected.records, label
            assert all(map(_refutes, expected.records)), label
            # one integral per distinct truncated set of the failing
            # records, none if it holds
            assert len(calls) == len(set(calls)), label
            assert set(calls) == {
                (model.deepest, r.set.mask & ((1 << depth) - 1))
                for r in report.records for depth in model.depths
            }, label
            outcomes[report.holds] += 1
        assert outcomes[True] >= 6 and outcomes[False] >= 4, outcomes

    def test_deep_model_is_certified_on_every_set(self):
        deep = make_truncation_model(*_additive_args(
            14, [3, 8, 14], [Fraction(1 + i % 3, 2) for i in range(14)]))
        report = verify_sigma_finite(deep, glue_derivative(deep).function)
        assert report.holds and report.records == ()
        assert report.checked == 1 << 14
