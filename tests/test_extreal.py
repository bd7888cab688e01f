"""The extended nonnegative rational kernel."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from choquetrn import (
    INF,
    ONE,
    ZERO,
    ExtReal,
    build_space,
    ext_max,
    ext_min,
    ext_sum,
    fixture_f2,
    hahn_positive_set,
    make_family,
    make_truncation_model,
    threshold_tail_family,
)


nonneg_fractions = st.fractions(min_value=0, max_value=100)


class TestConstruction:
    def test_from_int_fraction_and_string(self):
        assert ExtReal(3) == ExtReal("3")
        assert ExtReal(Fraction(5, 3)) == ExtReal("5/3")
        assert ExtReal("inf") == INF
        assert ExtReal(None) == INF

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ExtReal(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtReal(-1)
        with pytest.raises(ValueError):
            ExtReal("-1/2")

    @pytest.mark.parametrize("text", ["1/0", "0/0", " 3/00 "])
    def test_zero_denominator_is_a_value_error_naming_the_value(self, text):
        with pytest.raises(ValueError) as err:
            ExtReal(text)
        assert str(err.value) == f"{text!r}: a denominator may not be 0"

    def test_idempotent_coercion(self):
        v = ExtReal("7/2")
        assert ExtReal(v) == v


class TestArithmetic:
    def test_zero_times_infinity_is_zero(self):
        assert ZERO * INF == ZERO
        assert INF * ZERO == ZERO

    def test_positive_times_infinity_is_infinity(self):
        assert ExtReal("1/3") * INF == INF
        assert INF * ExtReal(2) == INF

    def test_addition_with_infinity(self):
        assert INF + ONE == INF
        assert ONE + INF == INF

    def test_subtraction_guards(self):
        with pytest.raises(ArithmeticError):
            ONE - ExtReal(2)
        with pytest.raises(ArithmeticError):
            INF - INF
        with pytest.raises(ArithmeticError):
            ONE - INF
        assert INF - ONE == INF

    @given(nonneg_fractions, nonneg_fractions)
    def test_add_matches_fractions(self, a, b):
        assert (ExtReal(a) + ExtReal(b)).as_fraction() == a + b

    @given(nonneg_fractions, nonneg_fractions)
    def test_mul_matches_fractions(self, a, b):
        assert (ExtReal(a) * ExtReal(b)).as_fraction() == a * b

    @given(nonneg_fractions, nonneg_fractions)
    def test_sub_inverts_add(self, a, b):
        assert (ExtReal(a) + ExtReal(b)) - ExtReal(b) == ExtReal(a)

    @pytest.mark.parametrize("other", ["2", " inf ", "1/2", 0.5, None, [1]])
    def test_arithmetic_with_other_types_raises(self, other):
        for x in (ExtReal(3), INF):
            for op in (lambda a, b: a + b, lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(x, other)
                with pytest.raises(TypeError):
                    op(other, x)
            with pytest.raises(TypeError):
                x - other

    @given(nonneg_fractions, st.one_of(nonneg_fractions,
                                       st.integers(min_value=0, max_value=100)))
    def test_plain_operands_match_fractions(self, a, b):
        x = ExtReal(a)
        assert x + b == b + x == a + b
        assert x * b == b * x == a * b
        if b <= a:
            assert x - b == a - b


class TestOrderAndHelpers:
    def test_infinity_dominates(self):
        assert ExtReal(10**9) < INF
        assert INF <= INF
        assert not INF < INF

    @given(nonneg_fractions, nonneg_fractions)
    def test_order_matches_fractions(self, a, b):
        assert (ExtReal(a) < ExtReal(b)) == (a < b)
        assert (ExtReal(a) >= ExtReal(b)) == (a >= b)

    # small numerators and denominators, so that lists hold ties; each
    # Fraction is a new object, so a tie's result can be told by identity
    @given(st.lists(
        st.one_of(
            st.builds(Fraction, st.integers(0, 3), st.integers(1, 2)),
            st.integers(0, 3),
            st.builds(Fraction, st.integers(0, 3), st.integers(1, 2)).map(ExtReal),
            st.just(INF),
        ),
        min_size=1,
        max_size=8,
    ))
    def test_min_max_sum(self, values):
        # oracle: Fractions, None standing for +infinity
        def frac(v):
            if isinstance(v, ExtReal):
                return v.as_fraction() if v.is_finite else None
            return v if isinstance(v, Fraction) else Fraction(v)

        def key(v):
            return (frac(v) is None, frac(v) or 0)

        low, high = min(values, key=key), max(values, key=key)
        assert ext_min(*values) == ExtReal(frac(low))
        assert ext_max(*values) == ExtReal(frac(high))
        fracs = [frac(v) for v in values]
        assert ext_sum(values) == ExtReal(None if None in fracs else sum(fracs))
        # the first of tied minima, whose Fraction is kept as it is
        if isinstance(frac(low), Fraction) and not isinstance(low, int):
            assert ext_min(*values).as_fraction() is frac(low)

    def test_hash_and_equality_with_plain_values(self):
        assert ExtReal("2/4") == Fraction(1, 2)
        assert ExtReal(3) == 3
        assert hash(ExtReal(Fraction(1, 2))) == hash(ExtReal("1/2"))

    @given(
        st.one_of(nonneg_fractions, st.none()),
        st.one_of(
            nonneg_fractions,
            st.integers(min_value=-3, max_value=100),
            nonneg_fractions.map(ExtReal),
            st.just(INF),
            nonneg_fractions.map(str),
            st.sampled_from(["inf", "1", "0"]),
        ),
    )
    def test_equal_values_hash_equal(self, a, other):
        x = ExtReal(a)
        if x == other:
            assert hash(x) == hash(other)
        assert (x == other) == (other == x)

    def test_strings_and_negatives_are_not_equal_to_values(self):
        assert ExtReal(1) != "1"
        assert INF != "inf"
        assert ExtReal(1) != -1  # no coercion, so no ValueError either
        assert len({ExtReal(1), 1, Fraction(1)}) == 1

    @given(
        st.one_of(nonneg_fractions, st.none()),
        st.one_of(
            st.fractions(min_value=-100, max_value=100),
            st.integers(min_value=-100, max_value=100),
            st.one_of(nonneg_fractions, st.none()).map(ExtReal),
        ),
    )
    def test_order_agrees_with_fractions(self, a, other):
        """Infinity exceeds every number; numbers, negatives included,
        compare as Fractions, from either side."""
        def key(v):
            if isinstance(v, ExtReal):
                return (1, 0) if not v.is_finite else (0, v.as_fraction())
            return (0, Fraction(v))

        x = ExtReal(a)
        kx, ko = key(x), key(other)
        assert (x < other) == (kx < ko) == (other > x)
        assert (x <= other) == (kx <= ko) == (other >= x)
        assert (x > other) == (kx > ko) == (other < x)
        assert (x >= other) == (kx >= ko) == (other <= x)

    @pytest.mark.parametrize("other", ["2", "inf", 0.5, None])
    def test_order_with_other_types_raises(self, other):
        for x in (ExtReal(1), INF):
            with pytest.raises(TypeError):
                x < other
            with pytest.raises(TypeError):
                other >= x

    @given(st.lists(st.one_of(
        st.one_of(nonneg_fractions, st.none()).map(ExtReal),
        st.integers(min_value=-100, max_value=100),
        st.booleans(),
        st.fractions(min_value=-100, max_value=100),
    ), max_size=12))
    def test_each_operator_agrees_with_fraction_order(self, values):
        """Every pair of operands, at least one an ExtReal, compares as its
        Fraction with infinity on top, through all four operators."""
        def key(v):
            if isinstance(v, ExtReal):
                return (1, 0) if not v.is_finite else (0, v.as_fraction())
            return (0, Fraction(v))

        values = [ExtReal(7), INF] + values
        for x in values:
            for y in values:
                if not (isinstance(x, ExtReal) or isinstance(y, ExtReal)):
                    continue
                kx, ky = key(x), key(y)
                assert (x < y) is (kx < ky)
                assert (x <= y) is (kx <= ky)
                assert (x > y) is (kx > ky)
                assert (x >= y) is (kx >= ky)
        extreals = [v for v in values if isinstance(v, ExtReal)]
        assert [key(v) for v in sorted(extreals)] == sorted(map(key, extreals))

    @pytest.mark.parametrize("other", ["2", "inf", 0.5, float("inf"), None])
    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge],
                             ids=lambda op: op.__name__)
    def test_every_order_operator_rejects_other_types(self, op, other):
        for x in (ExtReal(1), ZERO, INF):
            for left, right in ((x, other), (other, x)):
                with pytest.raises(TypeError):
                    op(left, right)

    def test_as_fraction_raises_on_infinity(self):
        with pytest.raises(OverflowError):
            INF.as_fraction()

    def test_str(self):
        assert str(ExtReal("5/3")) == "5/3"
        assert str(INF) == "inf"


def _family(threshold):
    space = build_space(["a", "b"])
    return make_family(space, [(0, ["a", "b"]), (threshold, ["a"])])


class TestOneReader:
    """Every number a caller hands the library is read by ExtReal."""

    @pytest.mark.parametrize("read", [
        lambda: _family(0.1),
        lambda: _family(1).at(0.05),
        lambda: hahn_positive_set(fixture_f2().mu, fixture_f2().nu, 1.5),
        lambda: make_truncation_model(
            [0.1, 1.5], {"rule": "max_element"}, {"rule": "indicator_nonempty"}
        ),
        lambda: threshold_tail_family(build_space([0.1, 1.5])),
    ], ids=["make_family", "at", "hahn_positive_set", "max_element",
            "threshold_tail_family"])
    def test_floats_are_refused(self, read):
        with pytest.raises(TypeError, match="floats are not allowed"):
            read()
