"""Deciding existence of a density for a finite pair of monotone measures.

The lemma.  Let b be an atom where f is least on a set A (ties allowed).
Then

    integral_A f dnu - integral_{A \\ b} f dnu = f(b) * (nu(A) - nu(A \\ b)):

for a threshold t <= f(b) the layers of A and of A \\ b are the sets
themselves, and for t > f(b) they are the same set.  Re-verification
(``verify_rn``) fills every set's integral by it, one step per set.

The Moebius identity.  Over block selectors write m(A) = sum over B inside
A of (-1)^|A \\ B| nu(B), so that nu(C) is the sum of m(A) over A inside C.
Summing the layers of the Choquet integral set by set gives

    integral_C f dnu = sum over nonempty A inside C of m_nu(A) * min_A f

(Chateauneuf and Jaffray, 1989), and Moebius inversion is unique, so f is a
density of mu w.r.t. nu iff m_mu(A) = m_nu(A) * min_A f for every A.

The decision.  Let S be the sets with m_nu(A) != 0, r_A = m_mu(A) / m_nu(A)
there, and g(a) = max(0, max of r_A over a in A in S).  Every density is at
least g, since min_A f = r_A forces f >= r_A on A.  A density exists iff
m_mu vanishes off S, no r_A is negative and min_A g = r_A on S; then g is
the least density, and every density equals g nu-a.e.  A refutation names
the first set, in canonical order, where m_mu is nonzero off S or r_A is
negative, or else the first set where min_A g != r_A.

The computation.  Both tables are scaled to one common denominator, so they
are Python ints, and the two subset transforms take n * 2^(n-1)
subtractions.  The ratios are compared by cross-multiplication, and the
min over A of g is one lowest-bit fill over g's common denominator.  The
density is re-verified on every set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, cycle
from math import gcd, lcm
from operator import sub
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
from .spaces import MeasurableSet, lowest_bit_fill, selector_masks


# -- the Moebius decision ----------------------------------------------------

@dataclass(frozen=True)
class SolverCertificate:
    solvable: bool
    function: Optional[SimpleFunction]
    verification: Optional[RnReport]
    ac_witness: Optional[Witness]
    note: str

    # always empty: the benchmark's tracer counts its length
    chain_records = ()

    @property
    def family(self) -> Optional[DecompositionFamily]:
        """The density's level-set family, built when read."""
        return None if self.function is None else family_from_function(self.function)

    def __bool__(self):
        return self.solvable


def _moebius(table: list, nb: int) -> list:
    """The subset transform of a table over nb block selectors: at each step
    the odd entries (the sets holding the lowest bit) lose their even
    neighbours, and one shuffle brings the next bit down."""
    for _ in range(nb):
        table[1::2] = map(sub, table[1::2], table[::2])
        table = table[::2] + table[1::2]
    return table


def solve_rn(mu: MonotoneMeasure, nu: MonotoneMeasure) -> SolverCertificate:
    """Decide whether mu(A) = integral of f d nu for some nonnegative f.

    Success certificates carry the least density, its level-set family and a
    full re-verification.  Failure certificates name the first set that
    refutes the Moebius identity, plus an absolute-continuity witness when
    one exists.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    if not (mu.is_finite and nu.is_finite):
        raise PreconditionError("the solver requires finite measures")
    space = mu.space
    nb = space.n_blocks

    # tables indexed by block selectors, over one common denominator
    masks = selector_masks(space.blocks)
    values = [list(map(m.fractions().__getitem__, masks)) for m in (mu, nu)]
    den = lcm(*(v.denominator for table in values for v in table))
    m_mu, m_nu = (_moebius([v.numerator * (den // v.denominator) for v in table], nb)
                  for table in values)

    def refuted(note):
        ac = abs_continuous(mu, nu)
        return SolverCertificate(
            solvable=False,
            function=None,
            verification=None,
            ac_witness=None if ac.holds else ac.witness,
            note=note,
        )

    def named(s):
        return space.set_from_mask(masks[s])

    # off S, m_mu must vanish; on S, r_A = m_mu / m_nu must be nonnegative
    s = next((s for s, (p, q) in enumerate(zip(m_mu, m_nu))
              if p and (not q or (p < 0) != (q < 0))), None)
    if s is not None:
        A, p, q = named(s), Fraction(m_mu[s], den), Fraction(m_nu[s], den)
        return refuted(f"m_mu({A}) = {p} but m_nu({A}) = 0" if not q
                       else f"m_mu({A}) / m_nu({A}) = {p / q} < 0")

    # g, the largest r_A over the sets holding each block (0 when none);
    # every ratio is now |m_mu| / |m_nu|, and 0 / 0 off S never wins.  The
    # best one is kept in lowest terms, so that with large common
    # denominators each comparison multiplies by small numbers only.
    ratios = list(zip(map(abs, m_mu), map(abs, m_nu)))
    g = []
    for i in range(nb):
        low = 1 << i
        best_p, best_q = 0, 1
        for p, q in compress(ratios, cycle([0] * low + [1] * low)):
            if p * best_q > best_p * q:
                k = gcd(p, q)
                best_p, best_q = p // k, q // k
        g.append(Fraction(best_p, best_q))

    # min_A g = r_A on S, that is m_mu(A) = m_nu(A) * min_A g everywhere
    g_den = lcm(*(v.denominator for v in g))
    g_int = [v.numerator * (g_den // v.denominator) for v in g]
    least = lowest_bit_fill(g_int, min, max(g_int))
    s = next((s for s, (p, q, m) in enumerate(zip(m_mu, m_nu, least))
              if p * g_den != q * m), None)
    if s is not None:
        A = named(s)
        return refuted(f"min of g over {A} is {Fraction(least[s], g_den)} "
                       f"but m_mu({A}) / m_nu({A}) = {Fraction(m_mu[s], m_nu[s])}")

    f = SimpleFunction(space, tuple(map(ExtReal, g)))
    verification = verify_rn(mu, nu, f)
    if not verification.holds:  # cannot happen: the identity covers all sets
        raise RuntimeError("the solver's density failed re-verification")
    return SolverCertificate(
        solvable=True,
        function=f,
        verification=verification,
        ac_witness=None,
        note="the least density",
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
    mu_t, nu_t = mu.fractions(), nu.fractions()
    mask = 0
    for block in mu.space.blocks:
        if mu_t[block] - t * nu_t[block] >= 0:
            mask |= block
    return MeasurableSet(mu.space, mask)


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
    mu_t, nu_t = mu.fractions(), nu.fractions()
    return SimpleFunction(mu.space, tuple(
        ExtReal(mu_t[b] / nu_t[b]) if nu_t[b] else ZERO for b in mu.space.blocks))


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
