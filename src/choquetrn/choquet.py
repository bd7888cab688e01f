"""Exact Choquet integration over finite spaces and comonotonicity.

The integral of a nonnegative simple function f against a monotone measure nu
on a set A is the layer-cake integral of alpha -> nu({f >= alpha} & A).  For a
simple integrand that map is a step function, so the improper Riemann integral
reduces to a finite sum over the distinct values of f: each layer contributes
(t_k - t_{k-1}) * nu({f >= t_k} & A).  An atom where f is infinite contributes
inf * nu({f = inf} & A), which is 0 on a nu-null set (0 * inf = 0).

The layers come from one pass over the blocks inside A, one sort of the
distinct finite nonzero values and a running union from the top threshold
down, so an integral over m thresholds costs O(n + m log m) mask operations
and m table reads instead of a level-set scan per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import SpaceMismatchError
from .extreal import ExtReal, INF, ZERO
from .functions import SimpleFunction
from .measures import MonotoneMeasure
from .results import Verdict, Witness
from .spaces import MeasurableSet


@dataclass(frozen=True)
class IntegralBreakdown:
    """The exact layer-by-layer evaluation of a Choquet integral."""

    thresholds: tuple          # 0 < t_1 < ... < t_m, finite distinct values of f on A
    layer_sets: tuple          # {f >= t_k} & A
    layer_measures: tuple      # nu of each layer set
    contributions: tuple       # (t_k - t_{k-1}) * nu(layer)
    infinite_set: MeasurableSet
    infinite_contribution: ExtReal
    total: ExtReal


def choquet_integral(
    f: SimpleFunction,
    nu: MonotoneMeasure,
    A: Optional[MeasurableSet] = None,
) -> IntegralBreakdown:
    """Exact Choquet integral of f w.r.t. nu over A (default: the whole space).

    The block masks inside A are grouped by value of f, the distinct finite
    nonzero values are sorted once, and the layer {f >= t_k} & A is the
    running union of the groups from the top threshold down to t_k, started
    from the infinite blocks, which lie in every layer.  Zero blocks lie in
    none.
    """
    space = f.space
    if nu.space != space:
        raise SpaceMismatchError("function and measure live on different spaces")
    if A is None:
        A = space.full_set
    elif A.space != space:
        raise SpaceMismatchError("integration set lives on a different space")

    by_value = {}
    inf_mask = 0
    for block, v in zip(space.blocks, f.values):
        part = block & A.mask
        if not part:
            continue
        if not v.is_finite:
            inf_mask |= part
        elif v:
            by_value[v] = by_value.get(v, 0) | part
    thresholds = sorted(by_value, key=ExtReal.as_fraction)

    layer_masks = []
    running = inf_mask
    for t in reversed(thresholds):
        running |= by_value[t]
        layer_masks.append(running)
    layer_masks.reverse()

    layer_measures = []
    contributions = []
    total = ZERO
    prev = ZERO
    for t, mask in zip(thresholds, layer_masks):
        m = nu.value_of_mask(mask)
        c = (t - prev) * m
        layer_measures.append(m)
        contributions.append(c)
        total = total + c
        prev = t

    inf_contribution = ZERO if not inf_mask else INF * nu.value_of_mask(inf_mask)
    total = total + inf_contribution

    return IntegralBreakdown(
        thresholds=tuple(thresholds),
        layer_sets=tuple(MeasurableSet(space, mask) for mask in layer_masks),
        layer_measures=tuple(layer_measures),
        contributions=tuple(contributions),
        infinite_set=MeasurableSet(space, inf_mask),
        infinite_contribution=inf_contribution,
        total=total,
    )


def choquet_value(
    f: SimpleFunction, nu: MonotoneMeasure, A: Optional[MeasurableSet] = None
) -> ExtReal:
    return choquet_integral(f, nu, A).total


def indefinite_integral_measure(f: SimpleFunction, nu: MonotoneMeasure) -> MonotoneMeasure:
    """The set function A -> integral of f over A; always a monotone measure."""
    table = {A.mask: choquet_value(f, nu, A) for A in f.space.subsets()}
    return MonotoneMeasure(f.space, table, generator="indefinite-integral", validate=False)


def is_comonotone(f: SimpleFunction, g: SimpleFunction) -> Verdict:
    """True iff no pair of points orders oppositely under f and g."""
    f._check(g)
    space = f.space
    n = space.n_blocks
    for i in range(n):
        for j in range(i + 1, n):
            df = f.values[i]._cmp(f.values[j])
            dg = g.values[i]._cmp(g.values[j])
            if df * dg < 0:
                a = space.block_set(i).atom_names()[0]
                b = space.block_set(j).atom_names()[0]
                return Verdict(
                    holds=False,
                    witness=Witness(
                        kind="comonotonicity",
                        sets=(space.block_set(i), space.block_set(j)),
                        values=(f.values[i], f.values[j], g.values[i], g.values[j]),
                        detail=f"f and g order {a!r} and {b!r} oppositely",
                    ),
                )
    return Verdict(holds=True)
