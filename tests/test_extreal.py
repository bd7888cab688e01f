"""The extended nonnegative rational kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from choquetrn import ExtReal, INF, ONE, ZERO, ext_max, ext_min, ext_sum


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


class TestOrderAndHelpers:
    def test_infinity_dominates(self):
        assert ExtReal(10**9) < INF
        assert INF <= INF
        assert not INF < INF

    @given(nonneg_fractions, nonneg_fractions)
    def test_order_matches_fractions(self, a, b):
        assert (ExtReal(a) < ExtReal(b)) == (a < b)
        assert (ExtReal(a) >= ExtReal(b)) == (a >= b)

    def test_min_max_sum(self):
        vals = [ExtReal(2), ExtReal("1/2"), INF]
        assert ext_min(*vals) == ExtReal("1/2")
        assert ext_max(*vals) == INF
        assert ext_sum(vals) == INF
        assert ext_sum([ExtReal(1), ExtReal("1/2")]) == ExtReal("3/2")

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

    def test_as_fraction_raises_on_infinity(self):
        with pytest.raises(OverflowError):
            INF.as_fraction()

    def test_str(self):
        assert str(ExtReal("5/3")) == "5/3"
        assert str(INF) == "inf"
