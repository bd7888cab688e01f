"""Deciding existence of a density for a finite pair of monotone measures.

Any candidate density on a finite algebra is constant on algebra atoms and is
determined by a maximal strictly decreasing chain U = B_0 > B_1 > ... > B_m
(each step removing one algebra atom) together with nondecreasing heights
h_0 <= h_1 <= ... <= h_m: the function takes value h_i on B_i \\ B_{i+1} and
h_m on B_m.

The lemma.  Let b be an atom where f is least on a set A (ties allowed).
Then

    integral_A f dnu - integral_{A \\ b} f dnu = f(b) * (nu(A) - nu(A \\ b)):

for a threshold t <= f(b) the layers of A and of A \\ b are the sets
themselves, and for t > f(b) they are the same set.

The reduction.  Along a chain, the atom of A removed first is least on A.
So, by induction on the size of A, f is a density iff for every step (R, b)
of the chain, R the atoms removed before b, and every set A inside U \\ R
that holds b,

    Delta_b mu(A) = h_b * Delta_b nu(A),   Delta_b m(A) = m(A) - m(A \\ b).

Every Delta is nonnegative, by monotonicity.  Each height is therefore
forced (one common ratio Delta mu / Delta nu over the sets with
Delta nu > 0, and Delta mu = 0 wherever Delta nu = 0), free (Delta mu =
Delta nu = 0 on every such A) or contradicted, and it depends on the set R
only, not on its order.  A chain carries a density iff none of its heights is
contradicted and its forced heights are nondecreasing.

The search.  Every mu and nu value is scaled to one common denominator, the
lcm of the values' denominators, so the tables are Python ints and ratios
are compared by cross-multiplication.  A backward pass over the subsets R of
removed atoms fills thr[R], the largest current height (the last forced one)
from which U can still be reached.  A depth-first search in canonical order
(lexicographic by removed-atom index) then takes at each node the first
child whose height is not contradicted and from which thr says U is
reachable, so it never backtracks and ends at the first feasible chain.  A
forced height on its path is never below the current height c: the density
the path ends in is at least c on U \\ R, so for any A there its layers at
thresholds t <= c are A itself, and Delta_b mu(A) >= c * Delta_b nu(A).
Each child the search skips is recorded with its witness sets and the
(m + 1 - k)! maximal chains below it, k the length of its removal order; on
a refutation the root's children cover all of them.  A free height takes the
next forced height along the chain, trailing free heights the last forced
one, and 0 when no height is forced.  The density is re-verified on every
set.

Completeness: any density induces an ordering of algebra atoms by value;
every maximal chain refining that ordering reproduces it with repeated
heights, so restricting to maximal chains loses nothing.  Infinite heights
are never needed: the tail set carrying an infinite value must be nu-null in
every layer, so replacing the infinite height by the previous one leaves all
layer values, and hence all integrals, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Optional

from .decomposition import (
    DecompositionFamily,
    DecompositionReport,
    RnReport,
    check_decomposition,
    derive_function,
    family_from_function,
    verify_rn,
)
from .errors import (
    NotAbsolutelyContinuousError,
    NotAdditiveError,
    PreconditionError,
    SpaceMismatchError,
)
from .extreal import ExtReal, ZERO
from .functions import AeComparison, SimpleFunction, equal_ae
from .measures import MonotoneMeasure, abs_continuous
from .results import Verdict, Witness
from .spaces import MeasurableSet, selector_masks


# -- the subset recursion ----------------------------------------------------

@dataclass(frozen=True)
class ChainRecord:
    """A child the search skips: the removal order ending in its atom, the
    ``chains`` maximal chains that extend it, and why none of them carries a
    density.  ``reason`` is one of

    - "contradicted": the step's equations have no common height; ``sets``
      is one set with Delta nu = 0 != Delta mu, or two sets whose ratios
      Delta mu / Delta nu differ;
    - "no completion": U cannot be reached from the new current height;
      ``sets`` is the set forcing that height, empty when none is forced.
    """

    removal_order: tuple  # block indices in removal order
    reason: str
    sets: tuple
    chains: int


@dataclass(frozen=True)
class SolverCertificate:
    solvable: bool
    function: Optional[SimpleFunction]
    family: Optional[DecompositionFamily]
    verification: Optional[RnReport]
    chain: Optional[tuple]
    ac_witness: Optional[Witness]
    chain_records: tuple
    note: str

    def __bool__(self):
        return self.solvable

    @property
    def chains_refuted(self) -> int:
        """The number of maximal chains the records rule out."""
        return sum(r.chains for r in self.chain_records)


def _le(x, y):
    """x <= y for heights (numerator, denominator > 0); (1, 0) is infinity."""
    return x[0] * y[1] <= y[0] * x[1]


def solve_rn(mu: MonotoneMeasure, nu: MonotoneMeasure) -> SolverCertificate:
    """Decide whether mu(A) = integral of f d nu for some nonnegative f.

    Success certificates carry the density, its level-set family and a full
    re-verification.  Failure certificates record every child of the root
    with the reason it fails, which together cover all maximal chains, plus
    an absolute-continuity witness when one exists.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    if not (mu.is_finite and nu.is_finite):
        raise PreconditionError("the solver requires finite measures")
    space = mu.space
    nb = space.n_blocks
    full = (1 << nb) - 1

    # tables indexed by block selectors, over one common denominator
    masks = selector_masks(space.blocks)
    values = [[m.value_of_mask(A).as_fraction() for A in masks] for m in (mu, nu)]
    den = lcm(*(v.denominator for table in values for v in table))
    mu_t, nu_t = ([v.numerator * (den // v.denominator) for v in table]
                  for table in values)

    def step(removed, b):
        """The height of removing b after ``removed`` and its witness sets:
        (ratio, (A,)) when forced, (None, ()) when free and (None, sets)
        when contradicted."""
        bit = 1 << b
        rest = full & ~removed & ~bit
        forced = None
        sub = 0  # the subsets of rest in ascending order
        while True:
            A = sub | bit
            d_mu, d_nu = mu_t[A] - mu_t[sub], nu_t[A] - nu_t[sub]
            if not d_nu:
                if d_mu:
                    return None, (A,)
            elif forced is None:
                forced = (d_mu, d_nu), (A,)
            elif d_mu * forced[0][1] != forced[0][0] * d_nu:
                return None, forced[1] + (A,)
            if sub == rest:
                return forced or (None, ())
            sub = (sub - rest) & rest

    # thr[R]: the largest current height from which U is reachable, or None
    thr = [None] * (full + 1)
    thr[full] = (1, 0)
    for removed in range(full - 1, -1, -1):
        for b in range(nb):
            reach = thr[removed | 1 << b]
            if removed >> b & 1 or reach is None:
                continue
            h, sets = step(removed, b)
            if h is None and sets or h is not None and not _le(h, reach):
                continue
            top = reach if h is None else h
            if thr[removed] is None or _le(thr[removed], top):
                thr[removed] = top

    # the first feasible chain: thr rules out every dead end at once
    records = []
    removed, order, path_heights = 0, (), []  # forced heights, None if free
    current, witness = (0, 1), ()  # the last forced height and its set
    while removed != full:
        for b in range(nb):
            if removed >> b & 1:
                continue
            h, sets = step(removed, b)
            reach = thr[removed | 1 << b]
            if h is None and sets:
                reason = "contradicted"
            elif reach is None or not _le(current if h is None else h, reach):
                reason, sets = "no completion", witness if h is None else sets
            else:
                break
            records.append(ChainRecord(
                removal_order=order + (b,), reason=reason,
                sets=tuple(space.set_from_mask(masks[s]) for s in sets),
                chains=factorial(nb - len(order) - 1)))
        else:
            break  # only at the root: no chain carries a density
        removed |= 1 << b
        order += (b,)
        path_heights.append(h)
        if h is not None:
            current, witness = h, sets

    if removed != full:
        ac = abs_continuous(mu, nu)
        return SolverCertificate(
            solvable=False,
            function=None,
            family=None,
            verification=None,
            chain=None,
            ac_witness=None if ac.holds else ac.witness,
            chain_records=tuple(records),
            note="every maximal chain is infeasible",
        )

    # a free height takes the next forced one, trailing ones the last
    heights = [None] * nb
    for b, h in zip(reversed(order), reversed(path_heights)):
        if h is not None:
            current = h
        heights[b] = ExtReal(Fraction(*current))
    f = SimpleFunction(space, tuple(heights))
    verification = verify_rn(mu, nu, f)
    if not verification.holds:  # cannot happen: the steps cover all sets
        raise RuntimeError("the solver's density failed re-verification")
    return SolverCertificate(
        solvable=True,
        function=f,
        family=family_from_function(f),
        verification=verification,
        chain=order,
        ac_witness=None,
        chain_records=tuple(records),
        note="first feasible chain in canonical order",
    )


# -- the classical additive pathway ------------------------------------------

def _require_additive(*measures) -> None:
    if not all(m.is_finite for m in measures):
        raise PreconditionError("the classical pathway requires finite measures")
    for m in measures:
        if not m.is_additive():
            raise NotAdditiveError(
                "this operation is restricted to additive (atom-weight) measures"
            )


def hahn_positive_set(mu: MonotoneMeasure, nu: MonotoneMeasure, tau) -> MeasurableSet:
    """The positive set of the signed measure mu - tau * nu, for additive inputs.

    Atoms with mu-weight exactly tau times the nu-weight are kept in the
    positive set, so the result stays a positive set under ties.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    _require_additive(mu, nu)
    t = ExtReal(tau).as_fraction()
    space = mu.space
    mask = 0
    for i in range(space.n_blocks):
        mw = mu.block_value(i).as_fraction()
        nw = nu.block_value(i).as_fraction()
        if mw - t * nw >= 0:
            mask |= space.blocks[i]
    return MeasurableSet(space, mask)


def classical_family(mu: MonotoneMeasure, nu: MonotoneMeasure) -> DecompositionFamily:
    """The decreasing family of Hahn positive sets for an additive pair.

    Breakpoints sit at 0 and the distinct atom-weight ratios; the set stored
    at a breakpoint is the positive set just above it, matching the
    right-continuous family convention.  Requires mu absolutely continuous
    w.r.t. nu (atoms with nu-weight 0 must have mu-weight 0).
    """
    _require_additive(mu, nu)
    ac = abs_continuous(mu, nu)
    if not ac.holds:
        raise NotAbsolutelyContinuousError(
            "mu is not absolutely continuous w.r.t. nu", witness=ac.witness
        )
    return family_from_function(_ratios(mu, nu))


def density_ratios(mu: MonotoneMeasure, nu: MonotoneMeasure) -> SimpleFunction:
    """The atomwise ratio function mu-weight / nu-weight (0 on nu-null atoms)."""
    _require_additive(mu, nu)
    return _ratios(mu, nu)


def _ratios(mu: MonotoneMeasure, nu: MonotoneMeasure) -> SimpleFunction:
    space = mu.space
    values = []
    for i in range(space.n_blocks):
        nw = nu.block_value(i)
        if nw == ZERO:
            values.append(ZERO)
        else:
            values.append(
                ExtReal(mu.block_value(i).as_fraction() / nw.as_fraction())
            )
    return SimpleFunction(space, tuple(values))


@dataclass(frozen=True)
class ClassicalReport:
    """End-to-end check of the additive special case: a density exists iff
    mu is absolutely continuous w.r.t. nu."""

    holds: bool
    ac: Verdict
    family: Optional[DecompositionFamily]
    decomposition: Optional[DecompositionReport]
    function: Optional[SimpleFunction]
    verification: Optional[RnReport]
    ratio_match: Optional[AeComparison]
    solver_agrees: bool  # solve_rn finds a density exactly when mu << nu

    def __bool__(self):
        return self.holds


def classical_rn_check(mu: MonotoneMeasure, nu: MonotoneMeasure) -> ClassicalReport:
    _require_additive(mu, nu)
    ac = abs_continuous(mu, nu)
    certificate = solve_rn(mu, nu)
    if ac.holds:
        ratios = _ratios(mu, nu)
        family = family_from_function(ratios)
        decomposition = check_decomposition(mu, nu, family)
        f = derive_function(family)
        verification = verify_rn(mu, nu, f)
        ratio_match = equal_ae(f, ratios, nu)
        return ClassicalReport(
            holds=decomposition.holds and verification.holds and ratio_match.equal,
            ac=ac,
            family=family,
            decomposition=decomposition,
            function=f,
            verification=verification,
            ratio_match=ratio_match,
            solver_agrees=certificate.solvable,
        )
    return ClassicalReport(
        holds=False,
        ac=ac,
        family=None,
        decomposition=None,
        function=None,
        verification=None,
        ratio_match=None,
        solver_agrees=not certificate.solvable,
    )
