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
chains in canonical order (lexicographic by removed-atom index), solves each
system by exact Gaussian elimination over the rationals, and decides
nonnegativity on the solution manifold by Fourier-Motzkin elimination.  The
first feasible chain yields the density; if every chain is infeasible the
pair has no density at all.

The search is depth first over removal prefixes and skips whole subtrees.
Let R_k be the union of the first k removed atoms, 1 <= k <= m - 1.  For
every A inside R_k the set A & B_i is empty for i >= k, so the equation for A
involves only d_0, ..., d_{k-1}.  When these prefix equations have no
nonnegative solution, no chain extending the prefix has one either, and the
(m + 1 - k)! chains below it are refuted together.  Full chains are still
solved on all sets and re-verified, so pruning changes neither the verdict
nor the first feasible chain nor its density.

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
from math import factorial
from typing import List, Optional, Tuple

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

def _solve_chain_system(rows, n):
    """Solve {sum_j row[j] * d_j = rhs for each row, d >= 0} exactly.

    ``rows`` yields (coefficients tuple, rhs) with Fraction entries.  Returns
    a list of Fractions or None when infeasible.
    """
    pivots: List[Tuple[List[Fraction], Fraction]] = []
    pivot_cols: List[int] = []
    for coeffs, rhs in rows:
        vec = list(coeffs)
        r = rhs
        for (pvec, prhs), col in zip(pivots, pivot_cols):
            factor = vec[col]
            if factor:
                for j in range(n):
                    vec[j] -= factor * pvec[j]
                r -= factor * prhs
        col = next((j for j in range(n) if vec[j]), None)
        if col is None:
            if r:
                return None  # inconsistent equation
            continue
        inv = Fraction(1) / vec[col]
        vec = [v * inv for v in vec]
        r *= inv
        pivots.append((vec, r))
        pivot_cols.append(col)

    # back-substitution: express pivot rows over free columns only
    for i in range(len(pivots) - 1, -1, -1):
        vec_i, rhs_i = pivots[i]
        for k in range(i):
            vec_k, rhs_k = pivots[k]
            factor = vec_k[pivot_cols[i]]
            if factor:
                pivots[k] = (
                    [a - factor * b for a, b in zip(vec_k, vec_i)],
                    rhs_k - factor * rhs_i,
                )

    free_cols = [j for j in range(n) if j not in pivot_cols]
    k = len(free_cols)
    free_index = {c: t for t, c in enumerate(free_cols)}

    # each d_j as (const, coeffs over free variables)
    exprs: List[Tuple[Fraction, List[Fraction]]] = []
    for j in range(n):
        if j in pivot_cols:
            i = pivot_cols.index(j)
            vec, rhs = pivots[i]
            coeffs = [Fraction(0)] * k
            for c in free_cols:
                coeffs[free_index[c]] = -vec[c]
            exprs.append((rhs, coeffs))
        else:
            coeffs = [Fraction(0)] * k
            coeffs[free_index[j]] = Fraction(1)
            exprs.append((Fraction(0), coeffs))

    point = _feasible_point([(c, tuple(v)) for c, v in exprs], k)
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

    all_masks = [A.mask for A in space.subsets()]
    mu_frac = {m: mu.value_of_mask(m).as_fraction() for m in all_masks}
    nu_frac = {m: nu.value_of_mask(m).as_fraction() for m in all_masks}

    def chain_masks_of(order):
        masks = [space.full_mask]
        for idx in order[:-1]:
            masks.append(masks[-1] & ~blocks[idx])
        return masks

    def prefix_feasible(prefix):
        # the equations of the sets inside the removed atoms, in d_0..d_{k-1}.
        # The removed atoms one by one come first and form a triangular
        # system; the sets holding the newest atom follow, since the others
        # already passed with the shorter prefix.
        chain_masks = chain_masks_of(prefix)
        removed = [blocks[idx] for idx in prefix]
        subsets = [0]
        for block in removed:
            subsets += [A | block for A in subsets]
        half = len(subsets) // 2
        singles = set(removed)
        ordered = removed + [
            A for A in subsets[half:] + subsets[1:half] if A not in singles
        ]
        rows = (
            (tuple(nu_frac[A & B] for B in chain_masks), mu_frac[A])
            for A in ordered
        )
        return _solve_chain_system(rows, len(prefix)) is not None

    records = []

    def orders(prefix, remaining):
        # full removal orders in lexicographic order, skipping the subtrees
        # of infeasible prefixes
        if len(remaining) <= 1:
            yield prefix + remaining
            return
        for pos, idx in enumerate(remaining):
            order = prefix + (idx,)
            rest = remaining[:pos] + remaining[pos + 1:]
            if len(rest) > 1 and not prefix_feasible(order):
                records.append(
                    ChainRecord(removal_order=order, feasible=False,
                                reason="no nonnegative solution of the prefix system",
                                chains=factorial(len(rest)))
                )
                continue
            yield from orders(order, rest)

    for order in orders((), tuple(range(nb))):
        chain_masks = chain_masks_of(order)

        def rows():
            # chain sets and singletons first: they expose pivots and
            # contradictions quickly; the remaining sets only confirm.
            ordered = chain_masks + list(blocks)
            seen = set(ordered)
            ordered += [m for m in all_masks if m not in seen]
            for A_mask in ordered:
                coeffs = tuple(
                    nu_frac[A_mask & B] for B in chain_masks
                )
                yield coeffs, mu_frac[A_mask]

        d = _solve_chain_system(rows(), nb)
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
