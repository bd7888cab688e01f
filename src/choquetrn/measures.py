"""Monotone measures on finite spaces: construction, validation, classifiers.

A monotone measure is a total map from the algebra to nonnegative extended
rationals that vanishes on the empty set and respects inclusion.  Explicit
tables are validated exhaustively; generator-built measures (additive,
indicator-of-the-full-set, max-weight, cardinality-scaled) are monotone by
construction and skip the scan.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, Mapping

from .errors import InvalidMeasureError, PreconditionError, SpaceMismatchError
from .extreal import ExtReal, INF, ZERO, ext_max, ext_min, ext_sum
from .results import Verdict, Witness
from .spaces import MeasurableSet, MeasurableSpace


class MonotoneMeasure:
    """A validated monotone measure, materialized as a full table."""

    __slots__ = ("space", "_table", "generator")

    def __init__(self, space: MeasurableSpace, table: Dict[int, ExtReal],
                 generator: str = "explicit", validate: bool = True):
        self.space = space
        self._table = table
        self.generator = generator
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
        # monotonicity, since every inclusion factors through covers.
        for A in self.space.subsets():
            vA = self._table[A.mask]
            for block in self.space.blocks:
                if A.mask & block:
                    continue
                B = MeasurableSet(self.space, A.mask | block)
                vB = self._table[B.mask]
                if vA > vB:
                    raise InvalidMeasureError(
                        f"monotonicity violated: m({A}) = {vA} > {vB} = m({B})",
                        witness=Witness(
                            kind="monotonicity", sets=(A, B), values=(vA, vB)
                        ),
                    )

    def __call__(self, A: MeasurableSet) -> ExtReal:
        if A.space != self.space:
            raise SpaceMismatchError("set and measure live on different spaces")
        return self._table[A.mask]

    def value_of_mask(self, mask: int) -> ExtReal:
        return self._table[mask]

    @property
    def is_finite(self) -> bool:
        return self._table[self.space.full_mask].is_finite

    def block_value(self, block_index: int) -> ExtReal:
        return self._table[self.space.blocks[block_index]]

    def is_additive(self) -> bool:
        """True iff the measure equals the sum of its block values on every set."""
        if not self.is_finite:
            return False
        for A in self.space.subsets():
            total = ext_sum(self.block_value(i) for i in A.block_indices())
            if total != self._table[A.mask]:
                return False
        return True

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

def measure_from_table(space: MeasurableSpace,
                       table: Mapping, generator: str = "explicit",
                       validate: bool = True) -> MonotoneMeasure:
    """Build a measure from {MeasurableSet | iterable-of-atoms: value}."""
    full: Dict[int, ExtReal] = {}
    for key, value in table.items():
        A = key if isinstance(key, MeasurableSet) else space.make_set(key)
        full[A.mask] = ExtReal(value)
    return MonotoneMeasure(space, full, generator=generator, validate=validate)


def additive_measure(space: MeasurableSpace, weights: Mapping) -> MonotoneMeasure:
    """Additive measure from nonnegative atom weights (missing atoms weigh 0)."""
    w = [ZERO] * len(space.atoms)
    for name, value in weights.items():
        w[space.index_of(name)] = ExtReal(value)
    table = {}
    for A in space.subsets():
        table[A.mask] = ext_sum(
            w[i] for i in range(len(space.atoms)) if A.mask & (1 << i)
        )
    return MonotoneMeasure(space, table, generator="additive", validate=False)


def indicator_full_measure(space: MeasurableSpace, value=1) -> MonotoneMeasure:
    """value on the whole universe, 0 on every proper subset."""
    top = ExtReal(value)
    table = {A.mask: (top if A.is_full else ZERO) for A in space.subsets()}
    return MonotoneMeasure(space, table, generator="indicator_full", validate=False)


def max_weight_measure(space: MeasurableSpace, weights: Mapping) -> MonotoneMeasure:
    """m(A) = max atom weight over A, 0 on the empty set."""
    w = [ZERO] * len(space.atoms)
    for name, value in weights.items():
        w[space.index_of(name)] = ExtReal(value)
    table = {}
    for A in space.subsets():
        members = [w[i] for i in range(len(space.atoms)) if A.mask & (1 << i)]
        table[A.mask] = ext_max(ZERO, *members) if members else ZERO
    return MonotoneMeasure(space, table, generator="max_weight", validate=False)


def cardinality_measure(space: MeasurableSpace, scale=1) -> MonotoneMeasure:
    """m(A) = scale * |A| (counting points of the universe)."""
    c = ExtReal(scale)
    table = {A.mask: c * len(A) for A in space.subsets()}
    return MonotoneMeasure(space, table, generator="cardinality", validate=False)


def zero_measure(space: MeasurableSpace) -> MonotoneMeasure:
    table = {A.mask: ZERO for A in space.subsets()}
    return MonotoneMeasure(space, table, generator="zero", validate=False)


def make_measure(space: MeasurableSpace, spec: Mapping) -> MonotoneMeasure:
    """Dispatch on a generator spec: {"rule": ..., ...}."""
    rule = spec.get("rule")
    if rule == "explicit":
        table = {tuple(entry["set"]): entry["value"] for entry in spec["table"]}
        return measure_from_table(space, table)
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
    U, N, v_union = _null_union(m)
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
    positive.  One sort of the sets by mu, descending, gives every delta as
    a running minimum of nu.  delta grows with eps, so the property fails iff
    delta is 0 at the smallest eps, where {mu >= eps} = {mu > 0}: iff some
    set with mu > 0 is nu-null.  The witness is the last such set in
    canonical order.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    if not mu.is_finite:
        raise PreconditionError("strong absolute continuity requires finite mu")
    rows = [(mu(A), nu(A), A) for A in mu.space.subsets() if mu(A) != ZERO]
    by_eps = sorted(rows, key=lambda row: row[0].as_fraction(), reverse=True)
    table = []
    delta = INF
    for eps, group in groupby(by_eps, key=lambda row: row[0]):
        delta = ext_min(delta, *(v for _, v, _ in group))
        table.append((eps, delta))
    table.reverse()
    null = [A for _, v, A in rows if v == ZERO]
    if not null:
        return Verdict(holds=True, table=tuple(table))
    witness = Witness("strong-absolute-continuity", (null[-1],), (table[0][0], ZERO))
    return Verdict(holds=False, witness=witness, table=tuple(table))
