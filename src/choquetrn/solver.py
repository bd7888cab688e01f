"""Deciding existence of a density for a finite pair of monotone measures.

Any candidate density on a finite algebra is constant on algebra atoms and is
determined by a maximal strictly decreasing chain U = B_0 > B_1 > ... > B_m
(each step removing one algebra atom) together with nondecreasing heights
h_0 <= h_1 <= ... <= h_m: the function takes value h_i on B_i \\ B_{i+1} and
h_m on B_m.  Writing d_0 = h_0 >= 0 and d_i = h_i - h_{i-1} >= 0, the Choquet
integral of such a function over any set A is

    sum_i d_i * nu(A & B_i),

so the density equations mu(A) = integral over A become an exact linear
system in d with nonnegativity constraints.  The solver searches the maximal
chains in canonical order (lexicographic by removed-atom index), eliminates
each system exactly, and decides nonnegativity on the solution manifold by
Fourier-Motzkin elimination.  The first feasible chain yields the density;
if every chain is infeasible the pair has no density at all.

The search is depth first over removal prefixes and skips whole subtrees.
Let R_k be the union of the first k removed atoms, 1 <= k <= m - 1.  For
every A inside R_k the set A & B_i is empty for i >= k, so the equation for A
involves only d_0, ..., d_{k-1}.  When these prefix equations have no
nonnegative solution, no chain extending the prefix has one either, and the
(m + 1 - k)! chains below it are refuted together.

The same fact makes the elimination incremental.  Prefix k + 1's system is
prefix k's plus the equations of the sets holding the newest atom, whose old
rows have a zero coefficient for d_k; a full chain's system is the deepest
prefix's plus the sets meeting the last two atoms.  So the reduced echelon
form is carried from each node of the search to its children and extended by
the new rows only.  Every mu and nu value is scaled to one common
denominator, the lcm of the values' denominators, so the rows are Python
ints and the elimination is fraction-free (Bareiss 1968); Fractions appear
only when a node's reduced rows are read off as affine expressions for the
nonnegativity check.  Full chains are still solved on all sets and
re-verified.  The reduced row echelon form of a system does not depend on
the order of its rows, so the point found on it, and with it every verdict,
record, first feasible chain and density, is the one that eliminating each
system afresh finds, free columns (null atoms) included.

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
from .spaces import MeasurableSet


# -- exact linear feasibility ------------------------------------------------

def _extend(state, rows):
    """The elimination state of ``state``'s system plus ``rows``, or None
    when the rows contradict it.

    Rows are lists of ints: the coefficients of d_0, d_1, ... and the
    right-hand side last.  The new rows may have more columns than the
    state's, which are zero in its equations.  A state is ``(lead,
    pivots)``, a list of (pivot column, row) pairs in reduced form over one
    common lead: each pivot row holds ``lead`` at its own column and zero at
    the other pivot columns.

    A new row eliminates to ``lead * row - sum of row[c] * pivot row c``
    over the pivots, which is zero at every pivot column, so only the other
    columns and the right-hand side are computed.  A row that leaves a
    nonzero column becomes a pivot, and the old pivot rows are cleared at its
    column fraction-free: ``lead`` stays the absolute determinant of the
    pivot rows' original entries at the pivot columns (Bareiss 1968), so the
    division by the old lead is exact.  The parent state is never changed,
    because the sibling nodes of the search extend it too.
    """
    lead, pivots = state
    rest = None  # the non-pivot columns, the right-hand side last
    for row in rows:
        if rest is None:
            pivots = _widened(pivots, len(row))
            taken = {c for c, _ in pivots}
            rest = [j for j in range(len(row)) if j not in taken]
        reduced = [lead * row[j] - sum([row[c] * p[j] for c, p in pivots])
                   for j in rest]
        k = next((i for i in range(len(rest) - 1) if reduced[i]), None)
        if k is None:
            if reduced[-1]:
                return None  # inconsistent equation
            continue
        new = [0] * len(row)
        sign = 1 if reduced[k] > 0 else -1
        for j, x in zip(rest, reduced):
            new[j] = sign * x
        col = rest.pop(k)
        top = new[col]
        pivots = [
            (c, [(top * x - p[col] * y) // lead for x, y in zip(p, new)])
            for c, p in pivots
        ]
        pivots.append((col, new))
        lead = top
    return lead, pivots


def _widened(pivots, width):
    """Copies of the pivot rows with zero columns added before the
    right-hand side, up to ``width`` entries."""
    return [(c, p[:-1] + [0] * (width - len(p)) + p[-1:]) for c, p in pivots]


def _reduced_point(state, n):
    """The nonnegative solution in d_0..d_{n-1} that ``_feasible_point``
    picks on the state's reduced system, as Fractions, or None.

    Each pivot column is an affine expression in the free columns, read off
    its reduced row.  The reduced form, and with it the point, does not
    depend on the order in which the rows were eliminated.
    """
    lead, pivots = state
    rows = dict(_widened(pivots, n + 1))
    free = [j for j in range(n) if j not in rows]
    exprs = []
    for j in range(n):
        row = rows.get(j)
        if row is None:
            exprs.append((Fraction(0), tuple(Fraction(int(c == j)) for c in free)))
        else:
            exprs.append((Fraction(row[-1], lead),
                          tuple(Fraction(-row[c], lead) for c in free)))
    point = _feasible_point(exprs, len(free))
    if point is None:
        return None
    return [const + sum(cv * xv for cv, xv in zip(coeffs, point))
            for const, coeffs in exprs]


def _feasible_point(inequalities, nvars):
    """Find x with const + coeffs . x >= 0 for every inequality, or None.

    Plain Fourier-Motzkin elimination; fine at this problem scale.
    """
    systems = [list(inequalities)]
    for _ in range(nvars):
        current = systems[-1]
        var = nvars - len(systems)  # eliminate the last remaining variable
        lowers, uppers, rest = [], [], []
        for const, coeffs in current:
            c = coeffs[var]
            if c > 0:
                lowers.append((const, coeffs))   # x >= -const/c ... lower bound
            elif c < 0:
                uppers.append((const, coeffs))
            else:
                rest.append((const, coeffs))
        combined = list(rest)
        for lc, lv in lowers:
            for uc, uv in uppers:
                a, b = lv[var], -uv[var]
                const = lc * b + uc * a
                coeffs = tuple(x * b + y * a for x, y in zip(lv, uv))
                combined.append((const, coeffs))
        systems.append(combined)

    for const, _ in systems[-1]:
        if const < 0:
            return None

    point = [Fraction(0)] * nvars
    for var in range(nvars - 1, -1, -1):
        current = systems[nvars - 1 - var]
        lo, hi = None, None
        for const, coeffs in current:
            c = coeffs[var]
            if c == 0:
                continue
            value = const + sum(
                coeffs[j] * point[j] for j in range(var + 1, nvars)
            )
            bound = -value / c
            if c > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        if lo is not None:
            point[var] = lo
        elif hi is not None:
            point[var] = min(hi, Fraction(0))
        else:
            point[var] = Fraction(0)
    return point


# -- chain search solver -----------------------------------------------------

@dataclass(frozen=True)
class ChainRecord:
    """An infeasible removal order: a full maximal chain, or a prefix whose
    own equations already fail, standing for the ``chains`` maximal chains
    that extend it."""

    removal_order: tuple  # block indices in removal order
    feasible: bool
    reason: str
    chains: int = 1


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


def solve_rn(mu: MonotoneMeasure, nu: MonotoneMeasure) -> SolverCertificate:
    """Decide whether mu(A) = integral of f d nu for some nonnegative f.

    Success certificates carry the density, its level-set family and a full
    re-verification.  Failure certificates record every infeasible prefix
    and full chain, which together cover all maximal chains, plus an
    absolute-continuity witness when one exists.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    if not (mu.is_finite and nu.is_finite):
        raise PreconditionError("the solver requires finite measures")
    space = mu.space
    nb = space.n_blocks
    blocks = space.blocks

    # every value over one common denominator, so the rows are in ints
    all_masks = [A.mask for A in space.subsets()]
    den = lcm(*(m.value_of_mask(A).as_fraction().denominator
                for m in (mu, nu) for A in all_masks))

    def scaled(m):
        table = {}
        for A in all_masks:
            v = m.value_of_mask(A).as_fraction()
            table[A] = v.numerator * (den // v.denominator)
        return table

    mu_int, nu_int = scaled(mu), scaled(nu)

    def rows(sets, chain_masks):
        # the equations sum_i nu(A & B_i) d_i = mu(A)
        for A in sets:
            yield [nu_int[A & B] for B in chain_masks] + [mu_int[A]]

    records = []

    def orders(prefix, remaining, chain_masks, rest, inside, state):
        # Full removal orders in lexicographic order, with their chain masks
        # and elimination states, skipping the subtrees of infeasible
        # prefixes.  ``rest`` is U minus the removed atoms, ``inside`` every
        # set inside them, and ``state`` holds the equations of those sets.
        # A child adds the sets holding its newest atom; a full chain adds
        # the sets meeting its last one or two atoms.
        if len(remaining) <= 2:
            tops = [blocks[idx] for idx in remaining]
            if len(tops) == 2:
                tops.append(rest)
            new = [A | T for A in inside for T in tops]
            for pos, idx in enumerate(remaining):
                order = prefix + (idx,) + remaining[:pos] + remaining[pos + 1:]
                masks = chain_masks + (rest, rest & ~blocks[idx])[:len(remaining)]
                yield order, masks, _extend(state, rows(new, masks))
            return
        for pos, idx in enumerate(remaining):
            order = prefix + (idx,)
            masks = chain_masks + (rest,)
            new = [A | blocks[idx] for A in inside]
            child = _extend(state, rows(new, masks))
            if child is None or _reduced_point(child, len(order)) is None:
                records.append(
                    ChainRecord(removal_order=order, feasible=False,
                                reason="no nonnegative solution of the prefix system",
                                chains=factorial(len(remaining) - 1))
                )
                continue
            yield from orders(order, remaining[:pos] + remaining[pos + 1:],
                              masks, rest & ~blocks[idx], inside + new, child)

    for order, chain_masks, state in orders(
        (), tuple(range(nb)), (), space.full_mask, [0], (1, [])
    ):
        d = None if state is None else _reduced_point(state, nb)
        if d is None:
            records.append(
                ChainRecord(removal_order=order, feasible=False,
                            reason="no nonnegative solution of the layer system")
            )
            continue

        heights = []
        acc = Fraction(0)
        for inc in d:
            acc += inc
            heights.append(acc)
        values = [None] * nb
        for i, B in enumerate(chain_masks):
            for b in range(nb):
                if blocks[b] & B == blocks[b]:
                    values[b] = ExtReal(heights[i])
        f = SimpleFunction(space, tuple(values))
        verification = verify_rn(mu, nu, f)
        if not verification.holds:  # cannot happen: the system covers all sets
            records.append(
                ChainRecord(removal_order=order, feasible=False,
                            reason="solution failed re-verification")
            )
            continue
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


# -- the classical additive pathway ------------------------------------------

def _require_additive(*measures) -> None:
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
    t = Fraction(tau) if not isinstance(tau, ExtReal) else tau.as_fraction()
    if t < 0:
        raise ValueError("tau must be nonnegative")
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
    return family_from_function(density_ratios(mu, nu))


def density_ratios(mu: MonotoneMeasure, nu: MonotoneMeasure) -> SimpleFunction:
    """The atomwise ratio function mu-weight / nu-weight (0 on nu-null atoms)."""
    _require_additive(mu, nu)
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
        family = classical_family(mu, nu)
        decomposition = check_decomposition(mu, nu, family)
        f = derive_function(family)
        verification = verify_rn(mu, nu, f)
        ratio_match = equal_ae(f, density_ratios(mu, nu), nu)
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
