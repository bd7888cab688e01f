"""Monotone measures on finite spaces: construction, validation, classifiers.

A monotone measure is a total map from the algebra to nonnegative extended
rationals that vanishes on the empty set and respects inclusion.  Explicit
tables are validated exhaustively; generator-built measures (additive,
indicator-of-the-full-set, max-weight, cardinality-scaled) are monotone by
construction and skip the scan.  Every rule table, and the one ``is_additive``
compares with, is a lowest-bit fill of block weights: a set's value is the
value without its lowest block plus (additive, cardinality, zero) or max
(max-weight) that block's weight.

A measure is one table, mask -> Fraction with None for infinity.  Every
decision reads it by mask; the accessors wrap an entry in ``ExtReal``, and
set objects and ``ExtReal`` values are built only for witnesses.
- An explicit table's sets are read by ``space.mask_of``: one name -> bit
  dict per space, the split-block check only on a partition algebra, no set
  object per entry.  Each distinct value is read once, through ``ExtReal``.
- The cover check compares (numerator, denominator) pairs by integer
  cross-products, with (1, 0) for infinity.
- ``fractions()`` is the table itself, shared by every caller, which must
  not change it.
- Rule fills run in integers over the common denominator of the (at most
  ``specio.MAX_ATOMS``) block weights, with a mask of the blocks whose
  weight is infinite, and read each distinct sum once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add
from typing import Dict, Mapping, Optional

from .errors import InvalidMeasureError, SpaceMismatchError
from .extreal import ExtReal, ZERO
from .results import Verdict, Witness
from .spaces import MeasurableSet, MeasurableSpace, lowest_bit_fill, selector_masks


class MonotoneMeasure:
    """A validated monotone measure: its table, mask -> Fraction with None
    for infinity, over every measurable set.

    The table is never changed after construction.  The accessors wrap one
    entry in ``ExtReal``; ``fractions()`` hands out the table itself.
    """

    __slots__ = ("space", "_table")

    def __init__(self, space: MeasurableSpace, table: dict, validate: bool = True):
        self.space = space
        self._table = table
        missing = space.n_subsets() - len(table)
        if missing:
            raise InvalidMeasureError(f"table is missing {missing} set(s)")
        if validate:
            self._validate()

    def _validate(self) -> None:
        table = self._table
        if table[0] != 0:
            raise InvalidMeasureError(
                "measure must vanish on the empty set",
                witness=Witness(
                    kind="vanishing-at-empty",
                    sets=(self.space.empty_set,),
                    values=(ExtReal(table[0]),),
                ),
            )
        # Checking each set against its covers (add one block) implies full
        # monotonicity, since every inclusion factors through covers.  Values
        # are (numerator, denominator) pairs, (1, 0) for infinity, so a > b
        # is one integer cross-product comparison, for infinite ones too.
        pairs = {
            A: (1, 0) if q is None else (q.numerator, q.denominator)
            for A, q in table.items()
        }
        blocks = self.space.blocks
        for A in selector_masks(blocks):
            a_num, a_den = pairs[A]
            for block in blocks:
                if A & block:
                    continue
                b_num, b_den = pairs[A | block]
                if a_num * b_den > b_num * a_den:
                    small = MeasurableSet(self.space, A)
                    large = MeasurableSet(self.space, A | block)
                    vA, vB = ExtReal(table[A]), ExtReal(table[A | block])
                    raise InvalidMeasureError(
                        f"monotonicity violated: m({small}) = {vA} > {vB} = m({large})",
                        witness=Witness(
                            kind="monotonicity", sets=(small, large), values=(vA, vB)
                        ),
                    )

    def __call__(self, A: MeasurableSet) -> ExtReal:
        if A.space != self.space:
            raise SpaceMismatchError("set and measure live on different spaces")
        return ExtReal(self._table[A.mask])

    def value_of_mask(self, mask: int) -> ExtReal:
        return ExtReal(self._table[mask])

    def fractions(self) -> Dict[int, Optional[Fraction]]:
        """The table, mask -> Fraction with None for infinity; shared by
        every caller, which must not change it."""
        return self._table

    @property
    def is_finite(self) -> bool:
        return self._table[self.space.full_mask] is not None

    def block_value(self, block_index: int) -> ExtReal:
        return ExtReal(self._table[self.space.blocks[block_index]])

    def is_additive(self) -> bool:
        """True iff the measure equals the sum of its block values on every set."""
        if not self.is_finite:
            return False
        values = self.fractions()
        blocks = self.space.blocks
        den, sums, _ = _integer_fill([values[b] for b in blocks], add)
        return all(
            q.numerator * den == v * q.denominator
            for q, v in zip(map(values.__getitem__, selector_masks(blocks)), sums)
        )

    def null_sets(self):
        return (MeasurableSet(self.space, mask) for mask in _null_masks(self))

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMeasure)
            and self.space == other.space
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self._table.items()))))


# -- constructors ------------------------------------------------------------

def measure_from_table(space: MeasurableSpace, table) -> MonotoneMeasure:
    """Build a measure from {set: value} or (set, value) pairs, each set a
    MeasurableSet or atom names; a set given twice is an error."""
    read, full = {}, {}  # a table repeats its values: each text or number is read once
    for key, value in table.items() if isinstance(table, Mapping) else table:
        mask = key.mask if isinstance(key, MeasurableSet) else space.mask_of(key)
        if mask in full:
            raise InvalidMeasureError(f"set {MeasurableSet(space, mask)} is listed twice")
        if type(value) not in (str, int, Fraction):
            full[mask] = ExtReal(value)._frac
        elif value in read:
            full[mask] = read[value]
        else:
            full[mask] = read[value] = ExtReal(value)._frac
    return MonotoneMeasure(space, full)


def _integer_fill(weights, combine):
    """``lowest_bit_fill(weights, combine, 0)`` for ``combine`` add or max
    and Fraction weights, None for infinity, in integers: (den, table, inf)
    with entry s over the common denominator ``den``, infinite iff s & inf."""
    den = lcm(*(w.denominator for w in weights if w is not None))
    ints = [0 if w is None else w.numerator * (den // w.denominator) for w in weights]
    inf = sum(1 << i for i, w in enumerate(weights) if w is None)
    return den, lowest_bit_fill(ints, combine, 0), inf


def _weight_fill(space: MeasurableSpace, weights: Mapping, combine) -> dict:
    """mask -> the set's atom weights (missing ones 0) combined by ``combine``,
    add or max."""
    w = [ZERO] * len(space.atoms)
    for name, value in weights.items():
        w[space.index_of(name)] = ExtReal(value)
    blocks = space.blocks
    block_weights = [
        reduce(combine, (v for i, v in enumerate(w) if block >> i & 1), ZERO)._frac
        for block in blocks
    ]
    den, table, inf = _integer_fill(block_weights, combine)
    value = {v: Fraction(v, den) for v in set(table)}
    return dict(zip(selector_masks(blocks),
                    [None if s & inf else value[v] for s, v in enumerate(table)]))


def additive_measure(space: MeasurableSpace, weights: Mapping) -> MonotoneMeasure:
    """Additive measure from nonnegative atom weights (missing atoms weigh 0)."""
    return MonotoneMeasure(space, _weight_fill(space, weights, add), validate=False)


def indicator_full_measure(space: MeasurableSpace, value=1) -> MonotoneMeasure:
    """value on the whole universe, 0 on every proper subset."""
    table = dict.fromkeys(selector_masks(space.blocks), Fraction(0))
    table[space.full_mask] = ExtReal(value)._frac
    return MonotoneMeasure(space, table, validate=False)


def max_weight_measure(space: MeasurableSpace, weights: Mapping) -> MonotoneMeasure:
    """m(A) = max atom weight over A, 0 on the empty set."""
    return MonotoneMeasure(space, _weight_fill(space, weights, max), validate=False)


def cardinality_measure(space: MeasurableSpace, scale=1) -> MonotoneMeasure:
    """m(A) = scale * |A| (counting points of the universe)."""
    return additive_measure(space, dict.fromkeys(space.atoms, ExtReal(scale)))


def zero_measure(space: MeasurableSpace) -> MonotoneMeasure:
    return additive_measure(space, {})


def make_measure(space: MeasurableSpace, spec: Mapping) -> MonotoneMeasure:
    """Dispatch on a generator spec: {"rule": ..., ...}."""
    rule = spec.get("rule")
    if rule == "explicit":
        return measure_from_table(space, [(e["set"], e["value"]) for e in spec["table"]])
    if rule in ("additive", "max_weight"):
        weights = spec["weights"]
        if not isinstance(weights, Mapping):
            raise InvalidMeasureError("weights must map atom names to values")
        build = additive_measure if rule == "additive" else max_weight_measure
        return build(space, weights)
    if rule == "indicator_full":
        return indicator_full_measure(space, spec.get("value", 1))
    if rule == "cardinality":
        return cardinality_measure(space, spec.get("scale", 1))
    if rule == "zero":
        return zero_measure(space)
    raise InvalidMeasureError(f"unknown measure rule {rule!r}")


# -- classifiers -------------------------------------------------------------

def _null_masks(m: MonotoneMeasure) -> list:
    """The masks of m's null sets, in canonical order."""
    table = m.fractions()
    return [mask for mask in selector_masks(m.space.blocks) if table[mask] == 0]


def _null_union(m: MonotoneMeasure):
    """Adjoin the null sets, in canonical order, to a running union U: returns
    the masks U, N and the value m(U | N) at the first null N with U | N not
    null, else (N*, None, 0)."""
    table = m.fractions()
    U = 0
    for N in _null_masks(m):
        v = table[U | N]
        if v != 0:
            return U, N, v
        U |= N
    return U, None, 0


def _sets(m: MonotoneMeasure, *masks) -> tuple:
    return tuple(MeasurableSet(m.space, mask) for mask in masks)


def is_weakly_null_additive(m: MonotoneMeasure) -> Verdict:
    """Union of two null sets is null.

    Decided in O(2^n): this holds iff the union N* of all null sets is null.
    If it holds, every finite union of null sets is null, N* included; if
    N* is null, every union of two null sets lies inside it and is null by
    monotonicity.  The running union U stays null until the first null N
    with m(U | N) != 0, and (U, N, U | N) is then the witness.
    """
    U, N, v = _null_union(m)
    if N is None:
        return Verdict(holds=True)
    witness = Witness("weak-null-additivity", _sets(m, U, N, U | N),
                      (ZERO, ZERO, ExtReal(v)))
    return Verdict(holds=False, witness=witness)


def is_null_additive(m: MonotoneMeasure) -> Verdict:
    """Adjoining a null set never changes the measure.

    Decided in O(2^n): this holds iff m is weakly null-additive (take A
    null) and m(A | N*) = m(A) for every A, N* the union of all null sets;
    then m(A) <= m(A | N) <= m(A | N*) = m(A) for every null N.  A weak
    failure (U, N) is a witness with A = U.  Otherwise the witness is
    (A, N*, A | N*) at the first A with m(A | N*) != m(A), which is also the
    first A that some null set changes.
    """
    U, N, v_union = _null_union(m)
    A, v_A = U, 0
    if N is None:
        N = U  # the union N* of all null sets
        table = m.fractions()
        for A in selector_masks(m.space.blocks):
            v_A, v_union = table[A], table[A | N]
            if v_union != v_A:
                break
        else:
            return Verdict(holds=True)
    witness = Witness("null-additivity", _sets(m, A, N, A | N),
                      (ExtReal(v_A), ZERO, ExtReal(v_union)))
    return Verdict(holds=False, witness=witness)


_SIGMA_NOTE = (
    "on a finite algebra every increasing sequence of sets stabilizes, so "
    "null-continuity holds automatically and property (sigma) reduces to "
    "weak null-additivity"
)


def has_property_sigma(m: MonotoneMeasure) -> Verdict:
    """Null sets form a sigma-ideal; on finite spaces this is weak null-additivity."""
    base = is_weakly_null_additive(m)
    return Verdict(holds=base.holds, witness=base.witness, note=_SIGMA_NOTE)


def abs_continuous(mu: MonotoneMeasure, nu: MonotoneMeasure) -> Verdict:
    """Every nu-null set is mu-null."""
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    mu_t = mu.fractions()
    for A in _null_masks(nu):
        if mu_t[A] != 0:
            return Verdict(
                holds=False,
                witness=Witness(kind="absolute-continuity", sets=_sets(mu, A),
                                values=(ZERO, ExtReal(mu_t[A]))),
            )
    return Verdict(holds=True)


def strongly_abs_continuous(mu: MonotoneMeasure, nu: MonotoneMeasure) -> Verdict:
    """Epsilon-delta absolute continuity, with the (eps, delta) modulus table.

    For each distinct positive value eps of mu, delta(eps) is the smallest
    nu-value among sets with mu >= eps; the property holds iff every delta is
    positive.  Grouping the sets by their mu value gives the least nu per
    value, and a running minimum of those, from the largest value down,
    gives every delta; only the distinct values are sorted.  delta grows
    with eps, so the property fails iff delta is 0 at the smallest eps,
    where {mu >= eps} = {mu > 0}: iff some set with mu > 0 is nu-null.  The
    witness is the last such set in canonical order.  None of this needs mu
    finite: an infinite eps is one more row, the last.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    mu_t, nu_t = mu.fractions(), nu.fractions()
    least = {}  # mu value -> least nu value over its sets; None is infinity
    null = None
    for A in selector_masks(mu.space.blocks):
        eps = mu_t[A]
        if eps == 0:
            continue
        v = nu_t[A]
        if v == 0:
            null = A
        if eps not in least or _below(v, least[eps]):
            least[eps] = v
    table = []
    delta = None
    for eps in sorted(map(ExtReal, least), reverse=True):
        if _below(least[eps._frac], delta):
            delta = least[eps._frac]
        table.append((eps, ExtReal(delta)))
    table.reverse()
    if null is None:
        return Verdict(holds=True, table=tuple(table))
    witness = Witness("strong-absolute-continuity",
                      (MeasurableSet(mu.space, null),), (table[0][0], ZERO))
    return Verdict(holds=False, witness=witness, table=tuple(table))


def _below(a: Optional[Fraction], b: Optional[Fraction]) -> bool:
    """a < b for Fractions with None for infinity."""
    return a is not None and (b is None or a < b)
