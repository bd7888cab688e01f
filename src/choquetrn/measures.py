"""Monotone measures on finite spaces: construction, validation, classifiers.

A monotone measure is a total map from the algebra to nonnegative extended
rationals that vanishes on the empty set and respects inclusion.  Explicit
tables are validated exhaustively; generator-built measures (additive,
indicator-of-the-full-set, max-weight, cardinality-scaled) are monotone by
construction and skip the scan.  Every rule table, and the one ``is_additive``
compares with, is a lowest-bit fill of block weights: a set's value is the
value without its lowest block plus (additive, cardinality, zero) or max
(max-weight) that block's weight.

Tables are built over masks and integers; ``ExtReal`` reads each value once
and is what every accessor returns.
- An explicit table's sets are read by ``space.mask_of``: one name -> bit
  dict per space, the split-block check only on a partition algebra, no set
  object per entry.  Each distinct value text of a table is read once.
- The cover check compares (numerator, denominator) pairs by integer
  cross-products, with (1, 0) for infinity, and builds set objects only for
  the witness.
- ``fractions()``, the table as Fractions with None for infinity, is built
  once per measure and shared by every caller, which must not change it.
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
from .extreal import ExtReal, INF, ZERO
from .results import Verdict, Witness
from .spaces import MeasurableSet, MeasurableSpace, lowest_bit_fill, selector_masks


class MonotoneMeasure:
    """A validated monotone measure, materialized as a full table.

    The table is never changed after construction, so what is derived from
    it alone (its Fraction view, the running null union of the classifiers)
    is computed once and kept here.
    """

    __slots__ = ("space", "_table", "_fractions", "_null_scan")

    def __init__(self, space: MeasurableSpace, table: Dict[int, ExtReal],
                 validate: bool = True):
        self.space = space
        self._table = table
        self._fractions = None
        self._null_scan = None
        missing = space.n_subsets() - len(table)
        if missing:
            raise InvalidMeasureError(f"table is missing {missing} set(s)")
        if validate:
            self._validate()

    def _validate(self) -> None:
        empty = self._table[0]
        if empty != ZERO:
            raise InvalidMeasureError(
                "measure must vanish on the empty set",
                witness=Witness(
                    kind="vanishing-at-empty",
                    sets=(self.space.empty_set,),
                    values=(empty,),
                ),
            )
        # Checking each set against its covers (add one block) implies full
        # monotonicity, since every inclusion factors through covers.  Values
        # are (numerator, denominator) pairs, (1, 0) for infinity, so a > b
        # is one integer cross-product comparison, for infinite ones too.
        pairs = {
            A: (1, 0) if q is None else (q.numerator, q.denominator)
            for A, q in self.fractions().items()
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
                    vA, vB = self._table[A], self._table[A | block]
                    raise InvalidMeasureError(
                        f"monotonicity violated: m({small}) = {vA} > {vB} = m({large})",
                        witness=Witness(
                            kind="monotonicity", sets=(small, large), values=(vA, vB)
                        ),
                    )

    def __call__(self, A: MeasurableSet) -> ExtReal:
        if A.space != self.space:
            raise SpaceMismatchError("set and measure live on different spaces")
        return self._table[A.mask]

    def value_of_mask(self, mask: int) -> ExtReal:
        return self._table[mask]

    def fractions(self) -> Dict[int, Optional[Fraction]]:
        """The table as mask -> Fraction, None standing for infinity.

        Built once and shared by every caller, which must not change it."""
        if self._fractions is None:
            self._fractions = {mask: v._frac for mask, v in self._table.items()}
        return self._fractions

    @property
    def is_finite(self) -> bool:
        return self._table[self.space.full_mask].is_finite

    def block_value(self, block_index: int) -> ExtReal:
        return self._table[self.space.blocks[block_index]]

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
        for A in self.space.subsets():
            if self._table[A.mask] == ZERO:
                yield A

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
    read: Dict[str, ExtReal] = {}  # a table repeats its values: each text is read once
    full: Dict[int, ExtReal] = {}
    for key, value in table.items() if isinstance(table, Mapping) else table:
        mask = key.mask if isinstance(key, MeasurableSet) else space.mask_of(key)
        if mask in full:
            raise InvalidMeasureError(f"set {MeasurableSet(space, mask)} is listed twice")
        if type(value) is not str:
            full[mask] = ExtReal(value)
        elif value in read:
            full[mask] = read[value]
        else:
            full[mask] = read[value] = ExtReal(value)
    return MonotoneMeasure(space, full)


def _integer_fill(weights, combine):
    """``lowest_bit_fill(weights, combine, 0)`` for ``combine`` add or max
    and Fraction weights, None for infinity, in integers: (den, table, inf)
    with entry s over the common denominator ``den``, infinite iff s & inf."""
    den = lcm(*(w.denominator for w in weights if w is not None))
    ints = [0 if w is None else w.numerator * (den // w.denominator) for w in weights]
    inf = sum(1 << i for i, w in enumerate(weights) if w is None)
    return den, lowest_bit_fill(ints, combine, 0), inf


def _weight_fill(space: MeasurableSpace, weights: Mapping, combine) -> Dict[int, ExtReal]:
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
    value = {v: ExtReal(Fraction(v, den)) for v in set(table)}
    return dict(zip(selector_masks(blocks),
                    [INF if s & inf else value[v] for s, v in enumerate(table)]))


def additive_measure(space: MeasurableSpace, weights: Mapping) -> MonotoneMeasure:
    """Additive measure from nonnegative atom weights (missing atoms weigh 0)."""
    return MonotoneMeasure(space, _weight_fill(space, weights, add), validate=False)


def indicator_full_measure(space: MeasurableSpace, value=1) -> MonotoneMeasure:
    """value on the whole universe, 0 on every proper subset."""
    table = _weight_fill(space, {}, add)
    table[space.full_mask] = ExtReal(value)
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

def _null_union(m: MonotoneMeasure):
    """Adjoin the null sets, in canonical order, to a running union U: returns
    (U, N, m(U | N)) at the first null N with U | N not null, else (N*, None, 0).
    """
    U = m.space.empty_set
    for N in m.null_sets():
        v = m(U | N)
        if v != ZERO:
            return U, N, v
        U = U | N
    return U, None, ZERO


def _null_scan(m: MonotoneMeasure):
    """``_null_union(m)``, computed once per measure for all classifiers."""
    if m._null_scan is None:
        m._null_scan = _null_union(m)
    return m._null_scan


def is_weakly_null_additive(m: MonotoneMeasure) -> Verdict:
    """Union of two null sets is null.

    Decided in O(2^n): this holds iff the union N* of all null sets is null.
    If it holds, every finite union of null sets is null, N* included; if
    N* is null, every union of two null sets lies inside it and is null by
    monotonicity.  The running union U stays null until the first null N
    with m(U | N) != 0, and (U, N, U | N) is then the witness.
    """
    U, N, v = _null_scan(m)
    if N is None:
        return Verdict(holds=True)
    witness = Witness("weak-null-additivity", (U, N, U | N), (ZERO, ZERO, v))
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
    U, N, v_union = _null_scan(m)
    A, v_A = U, ZERO
    if N is None:
        N = U  # the union N* of all null sets
        for A in m.space.subsets():
            v_A, v_union = m(A), m(A | N)
            if v_union != v_A:
                break
        else:
            return Verdict(holds=True)
    witness = Witness("null-additivity", (A, N, A | N), (v_A, ZERO, v_union))
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
    for A in nu.null_sets():
        v = mu(A)
        if v != ZERO:
            return Verdict(
                holds=False,
                witness=Witness(
                    kind="absolute-continuity", sets=(A,), values=(ZERO, v)
                ),
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
