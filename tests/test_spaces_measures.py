"""Spaces, measurable sets, monotone measures and the classifiers."""

import random
from fractions import Fraction

import pytest

from choquetrn import (
    ExtReal,
    INF,
    InvalidFamilyError,
    InvalidMeasureError,
    MeasurableSet,
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
    make_truncation_model,
    max_weight_measure,
    measure_from_table,
    strongly_abs_continuous,
    zero_measure,
)
from choquetrn.spaces import lowest_bit_fill
from support import (
    coarsened,
    infinite_measure,
    null_heavy_measure,
    pairwise_null_additivity,
    per_entry_measure_from_table,
    per_set_additive_measure,
    per_set_cardinality_measure,
    per_set_indicator_full_measure,
    per_set_indicator_nonempty_measure,
    per_set_is_additive,
    per_set_max_weight_measure,
    per_set_measure,
    random_monotone_measure,
    random_space,
    scan_strong_abs_continuity,
    set_object_abs_continuous,
    set_object_null_additive,
    set_object_null_sets,
    set_object_weakly_null_additive,
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

    def test_lowest_bit_fill_is_the_recurrence(self):
        # string concatenation does not commute, so the order of the steps shows
        weights = ["a", "b", "c", "d"]
        table = lowest_bit_fill(weights, lambda t, w: t + w, "")
        assert len(table) == 16 and table[0] == ""
        for s in range(1, 16):
            low = s & -s
            assert table[s] == table[s ^ low] + weights[low.bit_length() - 1]
        assert table[0b1011] == "dba"
        assert lowest_bit_fill([], min, 7) == [7]

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

    def test_infinite_below_a_finite_value_is_a_violation(self):
        space = build_space(["a", "b"])
        with pytest.raises(InvalidMeasureError) as err:
            measure_from_table(
                space, {(): 0, ("a",): 1, ("b",): "inf", ("a", "b"): 3}
            )
        assert str(err.value) == "monotonicity violated: m({b}) = inf > 3 = m({a,b})"
        witness = err.value.witness
        assert witness.kind == "monotonicity"
        assert [A.atom_names() for A in witness.sets] == [("b",), ("a", "b")]
        assert witness.values == (INF, ExtReal(3))

    def test_table_must_be_total(self):
        space = build_space(["a", "b"])
        with pytest.raises(InvalidMeasureError):
            measure_from_table(space, {(): 0, ("a", "b"): 1})

    def test_infinite_values_allowed_at_construction(self):
        space = build_space(["a"])
        m = measure_from_table(space, {(): 0, ("a",): "inf"})
        assert not m.is_finite


class TestTableReader:
    """The mask reader and the integer cover check against the per-entry
    reader they replace, on seeded tables and their mutants: the same
    Fractions in the same order, or the same error, message and witness."""

    MUTANTS = ("none", "dropped", "duplicated", "nonzero-empty", "bump",
               "unknown", "unhashable", "string", "split")

    @staticmethod
    def table(space, rng):
        """(atom names, value) entries of a random monotone table, shuffled,
        with infinite values above a random cut and values written as text,
        Fractions, ints or ExtReals."""
        m = random_monotone_measure(space, rng)
        cut = m(space.full_set) * ExtReal(Fraction(rng.randrange(1, 6), 4))
        entries = []
        for A in space.subsets():
            v = INF if m(A) > cut else m(A)
            if v.is_finite and rng.random() < 0.3:
                v = v.as_fraction() if v.as_fraction().denominator > 1 else int(v.as_fraction())
            elif rng.random() < 0.7:
                v = str(v)
            entries.append((list(A.atom_names()), v))
        rng.shuffle(entries)
        return entries

    @staticmethod
    def mutate(space, entries, kind, rng):
        """The entries with one defect of the given kind, or None when the
        space has no room for it."""
        entries = list(entries)
        at = rng.randrange(len(entries))
        names, value = entries[at]
        if kind == "dropped":
            del entries[at]
        elif kind == "duplicated":
            entries.insert(rng.randrange(len(entries) + 1), (names[::-1], value))
        elif kind == "nonzero-empty":
            empty = next(i for i, (n, _) in enumerate(entries) if not n)
            entries[empty] = ([], rng.choice(("1/2", "inf", 3)))
        elif kind == "bump":
            # a set above one of its covers: the cover's finite value plus a bit
            values = {frozenset(n): ExtReal(v) for n, v in entries}
            pairs = [(n, values[frozenset(n) | frozenset(B.atom_names())])
                     for n, _ in entries for B in map(space.block_set, range(space.n_blocks))
                     if not set(B.atom_names()) & set(n)]
            pairs = [(n, v) for n, v in pairs if v.is_finite]
            if not pairs:
                return None
            n, v = rng.choice(pairs)
            bumped = rng.choice((v + Fraction(1, 7), INF))
            entries = [(m, str(bumped) if m == n else w) for m, w in entries]
        elif kind == "unknown":
            entries[at] = (names + ["zz"], value)
        elif kind == "unhashable":
            entries[at] = (names + [["b"]], value)
        elif kind == "string":
            entries[at] = (space.atoms[0], value)
        elif kind == "split":
            wide = [space.block_set(i) for i in range(space.n_blocks)
                    if len(space.block_set(i)) > 1]
            if not wide:
                return None
            entries[at] = ([rng.choice(wide).atom_names()[0]], value)
        return entries

    @staticmethod
    def outcome(read, space, table):
        try:
            m = read(space, table)
        except Exception as exc:  # the error is what is compared
            return type(exc), str(exc), getattr(exc, "witness", None)
        return list(m.fractions().items())

    def test_matches_per_entry_reader(self):
        kinds = {kind: 0 for kind in self.MUTANTS}
        for seed in range(70):
            rng = random.Random(seed)
            n = 1 + seed % 7
            space = build_space([f"x{i}" for i in range(n)])
            if n > 2 and rng.random() < 0.6:
                space = coarsened(space, rng)
            entries = self.table(space, rng)
            for kind in self.MUTANTS:
                table = entries if kind == "none" else self.mutate(space, entries, kind, rng)
                if table is None:
                    continue
                if kind not in ("unhashable", "duplicated") and rng.random() < 0.3:
                    table = {n if isinstance(n, str) else tuple(n): v for n, v in table}
                want = self.outcome(per_entry_measure_from_table, space, table)
                assert self.outcome(measure_from_table, space, table) == want, (seed, kind)
                # every mutant is refused
                assert (kind == "none") == isinstance(want, list), (seed, kind)
                kinds[kind] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_error_texts(self):
        space = build_space(["a", "b", "c"], partition=[["a", "c"], ["b"]])
        for names, text in (
            (["a"], "set is not measurable: it splits an algebra atom"),
            (["z"], "unknown atom 'z'"),
            ([["b"]], "unknown atom ['b']"),
            ("b", "expected a list of atom names, got the string 'b'"),
        ):
            with pytest.raises(Exception) as err:
                measure_from_table(space, [([], 0), (names, 1)])
            assert str(err.value) == text
        with pytest.raises(InvalidMeasureError, match=r"^set \{a,c\} is listed twice$"):
            measure_from_table(space, [([], 0), (["a", "c"], 1), (["c", "a"], 1)])


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


class TestRuleTables:
    """Each rule's lowest-bit fill against the per-set loop it replaces, on
    power-set and coarsened spaces of 1-6 atoms, with weights that are zero,
    tied, missing and infinite, or over distinct large primes, whose common
    denominator is their product."""

    POOL = (0, 0, 1, 1, Fraction(1, 3), Fraction(5, 2), INF)
    PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)

    @classmethod
    def cases(cls, seeds=20):
        """(rng, space, weights) per seed and size, each space twice: as the
        power set and coarsened."""
        for seed in range(seeds):
            rng = random.Random(seed)
            for n in range(1, 7):
                space = build_space([f"x{i}" for i in range(n)])
                for space in (space, coarsened(space, rng)):
                    if rng.random() < 0.25:
                        weights = {a: Fraction(rng.randrange(1, p), p)
                                   for a, p in zip(space.atoms, cls.PRIMES)}
                    else:
                        weights = {a: rng.choice(cls.POOL) for a in space.atoms
                                   if rng.random() < 0.8}
                    yield rng, space, weights

    @staticmethod
    def assert_same(measure, oracle):
        assert list(measure.fractions().items()) == list(oracle.fractions().items())
        assert measure == oracle
        assert hash(measure) == hash(oracle)

    def test_rules_match_per_set_oracles(self):
        for rng, space, weights in self.cases():
            self.assert_same(additive_measure(space, weights),
                             per_set_additive_measure(space, weights))
            self.assert_same(max_weight_measure(space, weights),
                             per_set_max_weight_measure(space, weights))
            for scale in (0, Fraction(1, 3), INF):
                self.assert_same(cardinality_measure(space, scale),
                                 per_set_cardinality_measure(space, scale))
            self.assert_same(zero_measure(space), per_set_measure(space, lambda A: ZERO))
            value = rng.choice(self.POOL)
            self.assert_same(indicator_full_measure(space, value),
                             per_set_indicator_full_measure(space, value))

    def test_indicator_nonempty_matches_per_set_oracle(self):
        for value in (0, 1, Fraction(1, 3), Fraction(5, 2)):
            atoms = [str(k) for k in range(6)]
            model = make_truncation_model(
                atoms, {"rule": "indicator_nonempty", "value": str(value)},
                {"rule": "cardinality"},
            )
            self.assert_same(model.mu,
                             per_set_indicator_nonempty_measure(model.deepest, value))

    def test_is_additive_matches_per_set_oracle(self):
        outcomes = {True: 0, False: 0}
        for rng, space, weights in self.cases():
            additive = additive_measure(space, weights)
            pairs = [(MeasurableSet(space, mask), additive.value_of_mask(mask))
                     for mask in additive.fractions()]
            rng.shuffle(pairs)  # a table listed in any order
            for m in (
                additive,
                measure_from_table(space, pairs),
                random_monotone_measure(space, rng),
                null_heavy_measure(space, rng),
                infinite_measure(space, rng),
                cardinality_measure(space, rng.choice(self.POOL)),
            ):
                verdict = m.is_additive()
                assert verdict == per_set_is_additive(m)
                outcomes[verdict] += 1
        assert min(outcomes.values()) > 100


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

    def test_table_scans_match_set_object_oracle(self):
        """Verdicts and witnesses, sets and values, equal the former walk's
        over power-set, coarsened, null-heavy and partly infinite measures."""
        rng = random.Random(33)
        outcomes = {}

        def partly_infinite(m):
            # infinite above a value of m, or on every set meeting a block:
            # still monotone either way
            cut, block = rng.choice([m(A) for A in m.space.subsets()]), 0
            if rng.random() < 0.5:
                cut, block = INF, rng.choice(m.space.blocks)
            return measure_from_table(m.space, {
                A: INF if m(A) > cut or A.mask & block else m(A)
                for A in m.space.subsets()})

        def check(got, want, label):
            assert got == want, label
            if not got.holds:
                assert all(type(v) is ExtReal for v in got.witness.values), label
                label += "-inf" if INF in got.witness.values else ""
            outcomes[label, got.holds] = outcomes.get((label, got.holds), 0) + 1

        for _ in range(400):
            space = random_space(rng, 1, 6)
            if space.n_blocks > 2 and rng.random() < 0.4:
                space = coarsened(space, rng)
            measures = [null_heavy_measure(space, rng),
                        random_monotone_measure(space, rng, max_step=1)]
            measures += [partly_infinite(m) for m in measures if rng.random() < 0.5]
            for m in measures:
                assert list(m.null_sets()) == set_object_null_sets(m)
                check(is_weakly_null_additive(m), set_object_weakly_null_additive(m),
                      "weak")
                check(is_null_additive(m), set_object_null_additive(m), "null")
            for mu in measures:
                for nu in measures:
                    check(abs_continuous(mu, nu), set_object_abs_continuous(mu, nu),
                          "ac")
        # each verdict holds and fails, and each kind of witness shows inf
        assert len(outcomes) == 9 and min(outcomes.values()) >= 20, outcomes

    def test_strong_abs_continuity_matches_scan_oracle(self):
        rng = random.Random(32)
        outcomes = {True: 0, False: 0, "infinite_nu": 0, "infinite_mu": 0}

        def infinite_above_half(m):
            # values above half the total become infinite: still monotone
            cut = m(m.space.full_set) * ExtReal(Fraction(1, 2))
            return measure_from_table(
                m.space,
                {A: INF if m(A) > cut else m(A) for A in m.space.subsets()},
            )

        for _ in range(300):
            mu = self.random_measure(rng)
            nu = random_monotone_measure(mu.space, rng, max_step=1)
            if rng.random() < 0.3:
                nu = infinite_above_half(nu)
                outcomes["infinite_nu"] += not nu.is_finite
            if rng.random() < 0.3:
                mu = infinite_above_half(mu)
                outcomes["infinite_mu"] += not mu.is_finite
            verdict = strongly_abs_continuous(mu, nu)
            assert verdict == scan_strong_abs_continuity(mu, nu)
            outcomes[verdict.holds] += 1
            if not verdict.holds:
                (A,) = verdict.witness.sets
                eps, delta = verdict.witness.values
                assert mu(A) >= eps > ZERO and nu(A) == delta == ZERO
        assert min(outcomes.values()) >= 30, outcomes
