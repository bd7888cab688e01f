"""Exact nonnegative rational numbers extended with +infinity.

All measure values, function values, thresholds and integrals in this library
are ``ExtReal`` instances.  There is no floating point anywhere in the kernel;
every comparison and every arithmetic step is exact.

Conventions: ``c * inf = inf`` for ``c > 0`` and ``0 * inf = 0``.  The latter
is what makes a zero-measure layer under an infinite height contribute nothing
to a layer-cake integral.
"""

from __future__ import annotations

from fractions import Fraction


def _coerce(value) -> "ExtReal":
    if isinstance(value, ExtReal):
        return value
    return ExtReal(value)


class ExtReal:
    """A nonnegative rational or +infinity; immutable and hashable."""

    __slots__ = ("_frac",)

    def __init__(self, value=0):
        if isinstance(value, ExtReal):
            frac = value._frac
        elif value is None:
            frac = None
        elif isinstance(value, float):
            raise TypeError(
                "floats are not allowed; pass int, Fraction or a 'p/q' string"
            )
        elif isinstance(value, str):
            text = value.strip()
            frac = None if text in ("inf", "+inf", "infinity") else Fraction(text)
        else:
            frac = Fraction(value)
        if frac is not None and frac < 0:
            raise ValueError(f"negative values are not representable: {value!r}")
        object.__setattr__(self, "_frac", frac)

    # -- predicates ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._frac is not None

    @property
    def is_zero(self) -> bool:
        return self._frac == 0

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise OverflowError("value is infinite")
        return self._frac

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if self._frac is None or other._frac is None:
            return INF
        return ExtReal(self._frac + other._frac)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self._frac, other._frac
        if a is None:
            return ZERO if b == 0 else INF
        if b is None:
            return ZERO if a == 0 else INF
        return ExtReal(a * b)

    __rmul__ = __mul__

    def __sub__(self, other):
        other = _coerce(other)
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

    def _cmp(self, other):
        """-1, 0 or 1, or NotImplemented for anything but ExtReal, int or
        Fraction.  Plain numbers are compared as they are, so every value
        exceeds a negative number, as ``__eq__`` has it."""
        if isinstance(other, ExtReal):
            b = other._frac
        elif isinstance(other, (int, Fraction)):
            b = other
        else:
            return NotImplemented
        a = self._frac
        if a is None:
            return 0 if b is None else 1
        if b is None:
            return -1
        return (a > b) - (a < b)

    def __eq__(self, other):
        # strings and negative numbers are never equal to a value, so that
        # equal objects always hash alike
        if isinstance(other, ExtReal):
            return self._frac == other._frac
        if isinstance(other, (int, Fraction)):
            return self._frac is not None and self._frac == other
        return NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

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
    return min((_coerce(v) for v in values), key=lambda v: (not v.is_finite, v._frac or 0))


def ext_max(*values) -> ExtReal:
    vals = [_coerce(v) for v in values]
    best = vals[0]
    for v in vals[1:]:
        if v > best:
            best = v
    return best


def ext_sum(values) -> ExtReal:
    total = ZERO
    for v in values:
        total = total + v
    return total
