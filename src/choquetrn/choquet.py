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

The integral over every set at once is one step per set, by a lemma.  Let b
be a block where f is least on A (ties allowed).  Then

    integral_A f dnu - integral_{A \\ b} f dnu = f(b) * (nu(A) - nu(A \\ b)):

for a threshold t <= f(b) the layers of A and of A \\ b are the sets
themselves, and for t > f(b) they are the same set.  With the blocks indexed
by ascending f, the lowest block of every block selector is least on its
set, so one ascending pass over the selectors fills the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import SpaceMismatchError
from .extreal import ExtReal, INF, ZERO
from .functions import SimpleFunction
from .measures import MonotoneMeasure
from .results import Verdict, Witness
from .spaces import MeasurableSet, selector_masks


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
    thresholds = sorted(by_value)

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


def lemma_order(f: SimpleFunction) -> tuple:
    """(heights, masks): the values of f as Fractions, None for inf, with the
    blocks in ascending f (ties by index), and the selector masks over the
    blocks in that order.  The lowest block of every selector is least on
    its set, so the lemma steps from the set without it."""
    space = f.space
    order = sorted(range(space.n_blocks), key=f.values.__getitem__)
    heights = [f.values[i]._frac for i in order]
    return heights, selector_masks([space.blocks[i] for i in order])


def integral_fractions(f: SimpleFunction, nu: MonotoneMeasure) -> dict:
    """mask -> integral of f over the set, for every measurable set, as a
    Fraction, None standing for infinity.

    One ascending pass over the block selectors, the blocks ordered by
    ascending f (ties by index), with b the lowest block of selector s:

        tab[s] = f(b) * (nu[s] - nu[s \\ b]) + tab[s \\ b]     (the lemma)

    except that f(b) = 0 gives tab[s \\ b]; f(b) = inf, which makes f infinite
    on all of A, gives inf * nu(A), that is 0 on a nu-null A and inf
    otherwise; nu(A) = inf with f(b) > 0 gives inf; and an infinite
    tab[s \\ b] stays infinite.
    """
    if nu.space != f.space:
        raise SpaceMismatchError("function and measure live on different spaces")
    heights, masks = lemma_order(f)
    nu_t = nu.fractions()
    nus = [nu_t[mask] for mask in masks]
    tab = [Fraction(0)] * len(masks)
    for s in range(1, len(masks)):
        low = s & -s
        rest = s ^ low
        h = heights[low.bit_length() - 1]
        below = tab[rest]
        if h == 0:
            tab[s] = below
        elif h is None:
            tab[s] = nus[s] if nus[s] == 0 else None
        elif nus[s] is None or below is None:
            tab[s] = None
        else:
            tab[s] = h * (nus[s] - nus[rest]) + below
    return dict(zip(masks, tab))


def indefinite_integral_measure(f: SimpleFunction, nu: MonotoneMeasure) -> MonotoneMeasure:
    """The set function A -> integral of f over A; always a monotone measure.

    The table is ``integral_fractions(f, nu)``: one lemma step per set, with
    the conventions of ``ExtReal`` (0 * inf = 0, c * inf = inf for c > 0).
    """
    return MonotoneMeasure(f.space, integral_fractions(f, nu), validate=False)


def is_comonotone(f: SimpleFunction, g: SimpleFunction) -> Verdict:
    """True iff no pair of points orders oppositely under f and g."""
    f._check(g)
    space = f.space
    n = space.n_blocks
    for i in range(n):
        for j in range(i + 1, n):
            fi, fj, gi, gj = f.values[i], f.values[j], g.values[i], g.values[j]
            if (fi < fj and gi > gj) or (fi > fj and gi < gj):
                a = space.block_set(i).atom_names()[0]
                b = space.block_set(j).atom_names()[0]
                return Verdict(
                    holds=False,
                    witness=Witness(
                        kind="comonotonicity",
                        sets=(space.block_set(i), space.block_set(j)),
                        values=(fi, fj, gi, gj),
                        detail=f"f and g order {a!r} and {b!r} oppositely",
                    ),
                )
    return Verdict(holds=True)
