"""Exact nonnegative rational numbers extended with +infinity.

All measure values, function values, thresholds and integrals in this library
are ``ExtReal`` instances.  There is no floating point anywhere in the kernel;
every comparison and every arithmetic step is exact.

``ExtReal`` is the one reader of numbers: every value a caller supplies
(measure weights and tables, function values, family thresholds, the Hahn
parameter tau, numeric atom names) is read by its constructor, which takes an
int, a Fraction, a "p/q" string or "inf" and refuses floats, negative
values and zero denominators.  Its order is the order of the library:
infinity sorts last, so callers sort and take the least of values without a
key.

Conventions: ``c * inf = inf`` for ``c > 0`` and ``0 * inf = 0``.  The latter
is what makes a zero-measure layer under an infinite height contribute nothing
to a layer-cake integral.
"""

from __future__ import annotations

from fractions import Fraction


def _operand(value):
    """An ExtReal, int or Fraction as an ExtReal, else NotImplemented:
    arithmetic, like comparison, parses no strings."""
    if isinstance(value, ExtReal):
        return value
    return ExtReal(value) if isinstance(value, (int, Fraction)) else NotImplemented


def _order_operand(value):
    """The Fraction of an ExtReal (None for infinity), an int or Fraction as
    it is, else NotImplemented: equality and order, like arithmetic, parse no
    strings."""
    if isinstance(value, ExtReal):
        return value._frac
    return value if isinstance(value, (int, Fraction)) else NotImplemented


class ExtReal:
    """A nonnegative rational or +infinity; immutable and hashable."""

    __slots__ = ("_frac",)

    def __init__(self, value=0):
        if type(value) is Fraction:  # immutable, so kept as it is
            frac = value
        elif isinstance(value, ExtReal):
            frac = value._frac
        elif value is None:
            frac = None
        elif isinstance(value, float):
            raise TypeError(
                "floats are not allowed; pass int, Fraction or a 'p/q' string"
            )
        elif isinstance(value, str):
            text = value.strip()
            try:
                frac = None if text in ("inf", "+inf", "infinity") else Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"{value!r}: a denominator may not be 0") from None
        else:
            frac = Fraction(value)
        if frac is not None and frac.numerator < 0:
            raise ValueError(f"negative values are not representable: {value!r}")
        self._frac = frac

    # -- predicates ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._frac is not None

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise OverflowError("value is infinite")
        return self._frac

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        if self._frac is None or other._frac is None:
            return INF
        return ExtReal(self._frac + other._frac)

    __radd__ = __add__

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a, b = self._frac, other._frac
        if a is None:
            return ZERO if b == 0 else INF
        if b is None:
            return ZERO if a == 0 else INF
        return ExtReal(a * b)

    __rmul__ = __mul__

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        if self._frac is None:
            if other._frac is None:
                raise ArithmeticError("inf - inf is undefined")
            return INF
        if other._frac is None:
            raise ArithmeticError("cannot subtract infinity from a finite value")
        if other._frac > self._frac:
            raise ArithmeticError(
                f"difference would be negative: {self} - {other}"
            )
        return ExtReal(self._frac - other._frac)

    # -- order --------------------------------------------------------------

    # Equality and order read their operand alike and make at most one
    # comparison of numbers.  Plain numbers are compared as they are, so a
    # negative number equals no value and every value exceeds it, and equal
    # objects hash alike; infinity exceeds every number.

    def __eq__(self, other):
        b = _order_operand(other)
        if b is NotImplemented:
            return b
        return self._frac == b

    def __lt__(self, other):
        b = _order_operand(other)
        if b is NotImplemented:
            return b
        a = self._frac
        return a is not None and (b is None or a < b)

    def __le__(self, other):
        b = _order_operand(other)
        if b is NotImplemented:
            return b
        a = self._frac
        return b is None or (a is not None and a <= b)

    def __gt__(self, other):
        b = _order_operand(other)
        if b is NotImplemented:
            return b
        a = self._frac
        return b is not None and (a is None or a > b)

    def __ge__(self, other):
        b = _order_operand(other)
        if b is NotImplemented:
            return b
        a = self._frac
        return a is None or (b is not None and a >= b)

    def __hash__(self):
        return hash(self._frac)

    def __bool__(self):
        return self._frac != 0

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self):
        return f"ExtReal({str(self)!r})"


ZERO = ExtReal(0)
ONE = ExtReal(1)
INF = ExtReal(None)


def ext_min(*values) -> ExtReal:
    return min(map(ExtReal, values))


def ext_max(*values) -> ExtReal:
    return max(map(ExtReal, values))


def ext_sum(values) -> ExtReal:
    return sum(values, ZERO)
