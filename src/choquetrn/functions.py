"""Nonnegative measurable simple functions: constant on algebra atoms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import SpaceMismatchError
from .extreal import ExtReal, INF, ZERO
from .measures import MonotoneMeasure
from .spaces import MeasurableSet, MeasurableSpace


@dataclass(frozen=True)
class SimpleFunction:
    """A nonnegative function with one extended-rational value per algebra atom."""

    space: MeasurableSpace
    values: tuple  # ExtReal per block

    def __post_init__(self):
        if len(self.values) != self.space.n_blocks:
            raise ValueError("need exactly one value per algebra atom")

    def _check(self, other) -> None:
        if self.space != other.space:
            raise SpaceMismatchError("functions live on different spaces")

    # -- evaluation ---------------------------------------------------------

    def value_on_block(self, block_index: int) -> ExtReal:
        return self.values[block_index]

    def __call__(self, atom) -> ExtReal:
        return self.values[self.space.block_index_of(atom)]

    def level_set(self, threshold, strict: bool = False) -> MeasurableSet:
        """{f >= t} (or {f > t} when strict)."""
        t = ExtReal(threshold)
        mask = 0
        for i, v in enumerate(self.values):
            if (v > t) if strict else (v >= t):
                mask |= self.space.blocks[i]
        return MeasurableSet(self.space, mask)

    @property
    def infinity_set(self) -> MeasurableSet:
        mask = 0
        for i, v in enumerate(self.values):
            if not v.is_finite:
                mask |= self.space.blocks[i]
        return MeasurableSet(self.space, mask)

    @property
    def is_finite(self) -> bool:
        return all(v.is_finite for v in self.values)

    def distinct_values(self) -> tuple:
        seen = []
        for v in self.values:
            if v not in seen:
                seen.append(v)
        finite = sorted((v for v in seen if v.is_finite), key=lambda v: v.as_fraction())
        return tuple(finite) + ((INF,) if any(not v.is_finite for v in seen) else ())

    # -- pointwise algebra --------------------------------------------------

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        self._check(other)
        return SimpleFunction(
            self.space, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def scale(self, c) -> "SimpleFunction":
        c = ExtReal(c)
        return SimpleFunction(self.space, tuple(c * v for v in self.values))

    def cap(self, c) -> "SimpleFunction":
        """f wedge c (pointwise minimum with a constant)."""
        c = ExtReal(c)
        return SimpleFunction(
            self.space, tuple(v if v <= c else c for v in self.values)
        )

    def excess(self, c) -> "SimpleFunction":
        """(f - c) vee 0 (pointwise shifted-down positive part)."""
        c = ExtReal(c)
        return SimpleFunction(
            self.space, tuple(v - c if v > c else ZERO for v in self.values)
        )

    def restrict(self, A: MeasurableSet) -> "SimpleFunction":
        """f * indicator(A)."""
        if A.space != self.space:
            raise SpaceMismatchError("set and function live on different spaces")
        vals = []
        for i, v in enumerate(self.values):
            inside = self.space.blocks[i] & A.mask == self.space.blocks[i]
            vals.append(v if inside else ZERO)
        return SimpleFunction(self.space, tuple(vals))

    def __str__(self):
        pairs = []
        for i in range(self.space.n_blocks):
            names = ",".join(str(n) for n in self.space.block_set(i).atom_names())
            pairs.append(f"{names}:{self.values[i]}")
        return "(" + " ".join(pairs) + ")"


def function_from_values(space: MeasurableSpace, assignment: Mapping) -> SimpleFunction:
    """Build from {atom name: value}; values must be constant per algebra atom."""
    vals: list = [None] * space.n_blocks
    for name, value in assignment.items():
        i = space.block_index_of(name)
        v = ExtReal(value)
        if vals[i] is not None and vals[i] != v:
            raise ValueError(
                f"atom {name!r} assigns {v} but its algebra atom already has {vals[i]}"
            )
        vals[i] = v
    if any(v is None for v in vals):
        raise ValueError("assignment must cover every algebra atom")
    return SimpleFunction(space, tuple(vals))


def constant_function(space: MeasurableSpace, value) -> SimpleFunction:
    return SimpleFunction(space, (ExtReal(value),) * space.n_blocks)


def indicator_function(A: MeasurableSet) -> SimpleFunction:
    space = A.space
    vals = tuple(
        ExtReal(1) if space.blocks[i] & A.mask == space.blocks[i] else ZERO
        for i in range(space.n_blocks)
    )
    return SimpleFunction(space, vals)


@dataclass(frozen=True)
class AeComparison:
    """Result of comparing two functions almost everywhere w.r.t. a measure."""

    equal: bool
    diff_set: MeasurableSet
    diff_measure: ExtReal

    def __bool__(self):
        return self.equal


def equal_ae(f: SimpleFunction, g: SimpleFunction, nu: MonotoneMeasure) -> AeComparison:
    """Exact {f != g} and its nu-measure; equal a.e. iff that measure is 0."""
    f._check(g)
    if nu.space != f.space:
        raise SpaceMismatchError("measure lives on a different space")
    mask = 0
    for i, (a, b) in enumerate(zip(f.values, g.values)):
        if a != b:
            mask |= f.space.blocks[i]
    diff = MeasurableSet(f.space, mask)
    m = nu(diff)
    return AeComparison(equal=(m == ZERO), diff_set=diff, diff_measure=m)
