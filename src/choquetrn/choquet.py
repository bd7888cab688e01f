"""Exact Choquet integration over finite spaces and comonotonicity.

The integral of a nonnegative simple function f against a monotone measure nu
on a set A is the layer-cake integral of alpha -> nu({f >= alpha} & A).  For a
simple integrand that map is a step function, so the improper Riemann integral
reduces to a finite sum over the distinct values of f: each layer contributes
(t_k - t_{k-1}) * nu({f >= t_k} & A).  An atom where f is infinite contributes
inf * nu({f = inf} & A), which is 0 on a nu-null set (0 * inf = 0).
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
    """Exact Choquet integral of f w.r.t. nu over A (default: the whole space)."""
    space = f.space
    if nu.space != space:
        raise SpaceMismatchError("function and measure live on different spaces")
    if A is None:
        A = space.full_set
    elif A.space != space:
        raise SpaceMismatchError("integration set lives on a different space")

    present = {
        f.values[i]
        for i in range(space.n_blocks)
        if space.blocks[i] & A.mask
    }
    thresholds = sorted(
        (v for v in present if v.is_finite and v != ZERO),
        key=lambda v: v.as_fraction(),
    )

    layer_sets = []
    layer_measures = []
    contributions = []
    total = ZERO
    prev = ZERO
    for t in thresholds:
        layer = f.level_set(t) & A
        m = nu(layer)
        c = (t - prev) * m
        layer_sets.append(layer)
        layer_measures.append(m)
        contributions.append(c)
        total = total + c
        prev = t

    inf_set = f.infinity_set & A
    inf_contribution = ZERO if inf_set.is_empty else INF * nu(inf_set)
    total = total + inf_contribution

    return IntegralBreakdown(
        thresholds=tuple(thresholds),
        layer_sets=tuple(layer_sets),
        layer_measures=tuple(layer_measures),
        contributions=tuple(contributions),
        infinite_set=inf_set,
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
