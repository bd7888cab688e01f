"""Monotone measures on finite spaces: construction, validation, classifiers.

A monotone measure is a total map from the algebra to nonnegative extended
rationals that vanishes on the empty set and respects inclusion.  Explicit
tables are validated exhaustively; generator-built measures (additive,
indicator-of-the-full-set, max-weight, cardinality-scaled) are monotone by
construction and skip the scan.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional

from .errors import InvalidMeasureError, PreconditionError, SpaceMismatchError
from .extreal import ExtReal, INF, ZERO, ext_max, ext_sum
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

def is_weakly_null_additive(m: MonotoneMeasure) -> Verdict:
    """Union of two null sets is null."""
    nulls = list(m.null_sets())
    for A1 in nulls:
        for A2 in nulls:
            u = A1 | A2
            v = m(u)
            if v != ZERO:
                return Verdict(
                    holds=False,
                    witness=Witness(
                        kind="weak-null-additivity",
                        sets=(A1, A2, u),
                        values=(ZERO, ZERO, v),
                    ),
                )
    return Verdict(holds=True)


def is_null_additive(m: MonotoneMeasure) -> Verdict:
    """Adjoining a null set never changes the measure."""
    nulls = list(m.null_sets())
    for A in m.space.subsets():
        vA = m(A)
        for N in nulls:
            u = A | N
            vU = m(u)
            if vU != vA:
                return Verdict(
                    holds=False,
                    witness=Witness(
                        kind="null-additivity",
                        sets=(A, N, u),
                        values=(vA, ZERO, vU),
                    ),
                )
    return Verdict(holds=True)


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
    positive.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    if not mu.is_finite:
        raise PreconditionError("strong absolute continuity requires finite mu")
    eps_values = sorted(
        {mu(A) for A in mu.space.subsets() if mu(A) != ZERO},
        key=lambda v: v.as_fraction(),
    )
    table = []
    holds = True
    witness = None
    for eps in eps_values:
        candidates = [nu(A) for A in mu.space.subsets() if mu(A) >= eps]
        delta = candidates[0]
        best_set = None
        for A in mu.space.subsets():
            if mu(A) >= eps and nu(A) <= delta:
                delta = nu(A)
                best_set = A
        table.append((eps, delta))
        if delta == ZERO and holds:
            holds = False
            witness = Witness(
                kind="strong-absolute-continuity",
                sets=(best_set,),
                values=(eps, delta),
            )
    return Verdict(holds=holds, witness=witness, table=tuple(table))
