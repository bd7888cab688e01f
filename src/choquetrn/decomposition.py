"""Decreasing threshold families and the two-sided decomposition inequalities.

A family maps every nonnegative rational alpha to a measurable set, decreasing
in alpha, with value U at alpha = 0.  On a finite space only finitely many
distinct sets occur, so the family is stored as a right-continuous step
function: breakpoints 0 = a_0 < a_1 < ... < a_m with sets U = A_0, A_1, ...,
A_m, where family(alpha) = A_i on [a_i, a_{i+1}) and A_m on [a_m, inf).

One refinement is needed for exactness: the level-set family of a function f,
alpha -> {f >= alpha}, equals U at alpha = 0 but {f > 0} on the open interval
(0, a_1).  A plain right-continuous step cannot express that jump when f
vanishes somewhere, so a family carries an explicit ``zero_plus`` set: its
value on (0, a_1).  For families built from breakpoint lists it defaults to
A_0 = U, which recovers the plain step semantics.

The two-sided inequality check quantifies over all rational pairs
alpha < beta.  Within a constant band the inequalities are trivial; across
bands they are linear in alpha and beta, and since the order relation is
closed, the infinitely many rational instances reduce to one inequality pair
per ordered band pair p < q, taken at the supremum hi_p of the lower band
(left coefficient) and the infimum lo_q of the upper band (right coefficient)
-- whether or not those endpoints are attained.

Adjacent band pairs decide all of them.  Bands are contiguous, hi_k =
lo_{k+1}, so the pair (k, k+1) on a set A says dmu_k = hi_k * dnu_k exactly,
where dnu_k = nu(A & S_k) - nu(A & S_{k+1}) >= 0 because nu is monotone and
the band sets S_k decrease.  For p < q the drops add up:
dmu_{p,q} = sum_{k=p}^{q-1} hi_k * dnu_k with hi_p <= hi_k <= hi_{q-1} = lo_q,
hence hi_p * dnu_{p,q} <= dmu_{p,q} <= lo_q * dnu_{p,q}.  Bands with equal
sets (a zero-plus set equal to U or to A_1) drop nothing: 0 <= 0 <= 0.  So a
set fails some band pair iff it fails an adjacent one.

One equation per set decides all the adjacent pairs.  For a nonempty set B
let k(B) be the last band whose set contains B.  The adjacent pair (k, k+1)
on A says something only when the cut B = A & S_k differs from A & S_{k+1} =
B & S_{k+1}, and then k(B) = k exactly.  So the adjacent-pair equalities of
all sets are exactly the equations, one per B with k(B) below the tail band,

    mu(B) - mu(B & S_{k+1}) = hi_k * (nu(B) - nu(B & S_{k+1})),  k = k(B),

and each B is its own cut (take A = B).  The first failing set in canonical
order is therefore the first failing B, since each cut of A is a submask of
A and comes no later: the witness, built from that set's band pairs, is the
one the per-set adjacent check finds.

``verify_rn`` is decided by the same lemma.  Let b be a block where f is
least on B and C = B \\ b; then integral_B f dnu = f(b) * (nu(B) - nu(C)) +
integral_C f dnu.  With the blocks in ascending f, C comes before B in
selector order, so by induction, while no earlier set has failed,
integral_C f dnu = mu(C) and the check at B is the equation

    mu(B) - mu(C) = f(b) * (nu(B) - nu(C)):

the first set whose equation fails is the first set where mu differs from
the integral.  The integral table is built only to list the failures.

Both scans decide each equation in integers: the drops m(B) - m(C) are
cross differences over the product of their own two denominators, compared
with the height a / b by one cross-product.  No Fraction is built in a scan,
and no table-wide common denominator is taken: with a distinct prime
denominator on every set, such an lcm grows by about 17 bits per set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .choquet import integral_fractions, lemma_order
from .errors import InvalidFamilyError, PreconditionError, SpaceMismatchError
from .extreal import ExtReal, INF, ZERO
from .functions import SimpleFunction
from .measures import MonotoneMeasure
from .results import Witness
from .spaces import MeasurableSet, MeasurableSpace, lowest_bit_fill, selector_masks


@dataclass(frozen=True)
class Band:
    """A maximal alpha-interval on which the family is constant.

    ``hi`` is None for the final unbounded band.  The first band is the single
    point alpha = 0 with set U; the second is the open interval (0, a_1) with
    the zero-plus set.
    """

    set: MeasurableSet
    lo: Fraction
    hi: Optional[Fraction]


@dataclass(frozen=True)
class DecompositionFamily:
    space: MeasurableSpace
    thresholds: tuple  # Fractions, 0 = a_0 < a_1 < ... < a_m
    sets: tuple        # MeasurableSet, A_0 = U >= A_1 >= ... >= A_m
    zero_plus: MeasurableSet  # value on (0, a_1); defaults to A_0

    # -- evaluation ---------------------------------------------------------

    def at(self, alpha) -> MeasurableSet:
        """family(alpha) under the right-continuous step semantics."""
        a = ExtReal(alpha).as_fraction()
        if a == 0:
            return self.sets[0]
        if len(self.thresholds) == 1 or a < self.thresholds[1]:
            return self.zero_plus
        i = 0
        for k, t in enumerate(self.thresholds):
            if t <= a:
                i = k
        return self.sets[i]

    def bands(self) -> Tuple[Band, ...]:
        out = [Band(set=self.sets[0], lo=Fraction(0), hi=Fraction(0))]
        m = len(self.thresholds) - 1
        if m == 0:
            out.append(Band(set=self.zero_plus, lo=Fraction(0), hi=None))
            return tuple(out)
        out.append(Band(set=self.zero_plus, lo=Fraction(0), hi=self.thresholds[1]))
        for i in range(1, m):
            out.append(
                Band(set=self.sets[i], lo=self.thresholds[i], hi=self.thresholds[i + 1])
            )
        out.append(Band(set=self.sets[m], lo=self.thresholds[m], hi=None))
        return tuple(out)

    @property
    def tail_set(self) -> MeasurableSet:
        """The set the family holds from some alpha onward."""
        return self.bands()[-1].set

    def __str__(self):
        parts = [f"({t},{s})" for t, s in zip(self.thresholds, self.sets)]
        extra = ""
        if self.zero_plus != self.sets[0]:
            extra = f" zero_plus={self.zero_plus}"
        return "[" + ", ".join(parts) + "]" + extra


def make_family(
    space: MeasurableSpace,
    breakpoints: Sequence,
    zero_plus: Optional[MeasurableSet] = None,
) -> DecompositionFamily:
    """Build and canonicalize a family from [(alpha, set), ...].

    Thresholds must be strictly increasing nonnegative rationals starting at
    0; sets must decrease and the first must be the whole universe.  Equal
    consecutive sets are merged (the later breakpoint is dropped).
    """
    if not breakpoints:
        raise InvalidFamilyError("breakpoint list must be nonempty")
    thresholds = []
    sets = []
    for alpha, A in breakpoints:
        try:
            a = ExtReal(alpha).as_fraction()
        except (ValueError, OverflowError) as exc:
            raise InvalidFamilyError(
                f"thresholds must be finite nonnegative rationals: {alpha!r}"
            ) from exc
        if not isinstance(A, MeasurableSet):
            A = space.make_set(A)
        if A.space != space:
            raise SpaceMismatchError("family set lives on a different space")
        thresholds.append(a)
        sets.append(A)
    if thresholds[0] != 0:
        raise InvalidFamilyError("the first threshold must be 0")
    if not sets[0].is_full:
        raise InvalidFamilyError("the family must start at the whole universe")
    for prev, cur in zip(thresholds, thresholds[1:]):
        if cur <= prev:
            raise InvalidFamilyError("thresholds must be strictly increasing")
    for prev, cur in zip(sets, sets[1:]):
        if not cur.issubset(prev):
            raise InvalidFamilyError("family sets must decrease")

    canon_t = [thresholds[0]]
    canon_s = [sets[0]]
    for t, s in zip(thresholds[1:], sets[1:]):
        if s == canon_s[-1]:
            continue
        canon_t.append(t)
        canon_s.append(s)

    if zero_plus is None:
        zero_plus = canon_s[0]
    elif not isinstance(zero_plus, MeasurableSet):
        zero_plus = space.make_set(zero_plus)
    if not zero_plus.issubset(canon_s[0]):
        raise InvalidFamilyError("zero-plus set must be contained in the universe")
    if len(canon_s) > 1 and not canon_s[1].issubset(zero_plus):
        raise InvalidFamilyError("zero-plus set must contain the next family set")

    return DecompositionFamily(
        space=space,
        thresholds=tuple(canon_t),
        sets=tuple(canon_s),
        zero_plus=zero_plus,
    )


def family_from_function(f: SimpleFunction) -> DecompositionFamily:
    """The canonical level-set family of f.

    Breakpoints sit at 0 and at the distinct positive finite values of f; the
    set stored at breakpoint t is {f > t} (the right limit of the level sets),
    and the zero-plus set is {f > 0}.  Atoms where f is infinite persist in
    every set.  Round trip: deriving the function back from this family
    reproduces f exactly.  The blocks are grouped by value and the sets
    {f > t} are one running union over the values in descending order.
    """
    space = f.space
    by_value: dict = {}
    for block, v in zip(space.blocks, f.values):
        by_value[v] = by_value.get(v, 0) | block
    above = 0  # {f > v}
    levels = []
    for v in sorted(by_value, reverse=True):
        if v == ZERO:
            break
        if v.is_finite:
            levels.append((v, MeasurableSet(space, above)))
        above |= by_value[v]
    breakpoints = [(0, space.full_set)] + levels[::-1]
    return make_family(space, breakpoints, zero_plus=MeasurableSet(space, above))


# -- the inequality check ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class PairRecord:
    """One reduced inequality instance: bands p < q evaluated on a set A."""

    set: MeasurableSet
    lower_band: int
    upper_band: int
    left_coefficient: Fraction   # sup of the lower band
    right_coefficient: Fraction  # inf of the upper band
    left: Fraction               # left_coefficient * (nu drop)
    middle: Fraction             # mu drop
    right: Fraction              # right_coefficient * (nu drop)
    ok: bool


@dataclass(frozen=True)
class DecompositionReport:
    holds: bool
    witness: Optional[Witness]
    tail_set: MeasurableSet
    tail_mu: ExtReal
    tail_nu: ExtReal
    tail_ok: bool
    checked_pairs: int
    checked_sets: int
    records: tuple = ()

    def __bool__(self):
        return self.holds


def _last_bands(space: MeasurableSpace, bands) -> list:
    """The last band holding each block; the bands before it hold it too."""
    return [
        max(k for k, band in enumerate(bands) if block & band.set.mask == block)
        for block in space.blocks
    ]


def _drop(table, B, C) -> tuple:
    """table[B] - table[C] for finite entries, as (numerator, denominator):
    the cross difference over the product of the two (positive)
    denominators, not reduced.  No table-wide common denominator is taken."""
    x, y = table[B].as_integer_ratio(), table[C].as_integer_ratio()
    return x[0] * y[1] - y[0] * x[1], x[1] * y[1]


def _lemma_holds(mu_t, nu_t, B, C, height) -> bool:
    """mu(B) - mu(C) = (a / b) * (nu(B) - nu(C)) for finite entries and the
    height a / b given as (a, b), decided by one integer cross-product."""
    a, b = height
    dmu, e = _drop(mu_t, B, C)
    dnu, g = _drop(nu_t, B, C)
    return b * g * dmu == a * dnu * e


def _cut_values(B, p, uppers, bands, band_masks, mu_t, nu_t) -> list:
    """(q, left, middle, right, ok) of each band pair (p, q), q in ``uppers``,
    on a cut B = A & S_p, read from the Fraction tables.  Each drop is taken
    over the product of its two entries' denominators (``_drop``), so each
    value is one Fraction and ``ok`` compares integers."""
    a, b = bands[p].hi.as_integer_ratio()
    out = []
    for q in uppers:
        C = B & band_masks[q]
        # the mu drop is dmu / e and the nu drop dnu / g, with e, g > 0
        dmu, e = _drop(mu_t, B, C)
        dnu, g = _drop(nu_t, B, C)
        c, d = bands[q].lo.as_integer_ratio()
        out.append((q, Fraction(a * dnu, b * g), Fraction(dmu, e),
                    Fraction(c * dnu, d * g),
                    a * dnu * e <= b * g * dmu and d * g * dmu <= c * dnu * e))
    return out


def _pair_records(sets, bands, pairs, band_masks, mu_t, nu_t):
    """The records of every band pair on each set, set by set.  The values
    of the pair (p, q) are computed once per cut A & S_p and shared (see
    ``check_decomposition``)."""
    uppers: dict = {}
    for p, q in pairs:
        uppers.setdefault(p, []).append(q)
    shared = {p: {} for p in uppers}
    for A in sets:
        for p, qs in uppers.items():
            B = A.mask & band_masks[p]
            values = shared[p].get(B)
            if values is None:
                values = shared[p][B] = _cut_values(
                    B, p, qs, bands, band_masks, mu_t, nu_t)
            left_c = bands[p].hi
            for q, left, middle, right, ok in values:
                yield PairRecord(A, p, q, left_c, bands[q].lo, left, middle,
                                 right, ok)


def check_decomposition(
    mu: MonotoneMeasure,
    nu: MonotoneMeasure,
    family: DecompositionFamily,
    detail: bool = False,
) -> DecompositionReport:
    """Verify the two-sided inequalities for every measurable set and all
    rational threshold pairs, plus the vanishing-tail condition.

    The rational quantification reduces to one inequality pair per ordered
    band pair, and those to one equation per set (see module docstring): a
    nonempty set B whose last band k(B) is below the tail band must satisfy
    mu(B) - mu(B & S_{k+1}) = hi_k * (nu(B) - nu(B & S_{k+1})).  k(B) is the
    least of its blocks' last bands, kept by the lowest-bit recurrence over
    block selectors.  Each equation is one integer cross-product of four
    table entries and hi_k (``_lemma_holds``); the scan builds no Fraction.
    ``checked_pairs`` counts the band pairs the verdict covers; the witness
    is the first failing band pair, in lexicographic order, on the first
    failing set in canonical order.  That set is the first failing B: every
    failing set A fails at some cut B = A & S_k, a submask of A that comes
    no later, and every failing B fails as a set.
    ``detail`` adds one record per band pair and set, sets in canonical
    order and pairs in lexicographic order within each set.  Bands decrease,
    so A & S_q = (A & S_p) & S_q for p < q: the record of (A, p, q) depends
    on A only through its cut A & S_p.  Its values are computed once per
    (p, q, A & S_p), in integers, and the records of every set with that cut
    share them.  Requires finite measures.
    """
    space = family.space
    if mu.space != space or nu.space != space:
        raise SpaceMismatchError("measures and family live on different spaces")
    if not (mu.is_finite and nu.is_finite):
        raise PreconditionError(
            "the decomposition check requires finite measures"
        )

    bands = family.bands()
    nb = len(bands)
    pairs = [
        (p, q)
        for p in range(nb - 1)
        for q in range(p + 1, nb)
        if bands[p].set != bands[q].set
    ]
    band_masks = [band.set.mask for band in bands]
    mu_t, nu_t = mu.fractions(), nu.fractions()

    # the bands holding a set are 0..(the least last band of its blocks)
    tail = nb - 1
    masks = selector_masks(space.blocks)
    heights = [band.hi.as_integer_ratio() for band in bands[:tail]]
    failing = None
    for B, k in zip(masks, lowest_bit_fill(_last_bands(space, bands), min, tail)):
        if k < tail and not _lemma_holds(
                mu_t, nu_t, B, B & band_masks[k + 1], heights[k]):
            failing = MeasurableSet(space, B)
            break

    witness = None
    if failing is not None:
        first = next(
            r for r in _pair_records(
                (failing,), bands, pairs, band_masks, mu_t, nu_t)
            if not r.ok
        )
        side = "left" if first.left > first.middle else "right"
        # monotonicity makes all three quantities nonnegative
        witness = Witness(
            kind="decomposition-inequality",
            sets=(failing, bands[first.lower_band].set, bands[first.upper_band].set),
            values=(ExtReal(first.left), ExtReal(first.middle),
                    ExtReal(first.right)),
            detail=(
                f"{side} inequality fails on A={failing}: "
                f"{first.left} <= {first.middle} <= {first.right} with "
                f"coefficients [{first.left_coefficient}, "
                f"{first.right_coefficient}]"
            ),
        )
    records = ()
    if detail:
        records = tuple(_pair_records(
            space.subsets(), bands, pairs, band_masks, mu_t, nu_t))

    tail_set = family.tail_set
    tail_mu = mu(tail_set)
    tail_nu = nu(tail_set)
    tail_ok = tail_mu == ZERO and tail_nu == ZERO
    if not tail_ok and witness is None:
        witness = Witness(
            kind="decomposition-tail",
            sets=(tail_set,),
            values=(tail_mu, tail_nu),
            detail="the family tail must be null under both measures",
        )

    return DecompositionReport(
        holds=failing is None and tail_ok,
        witness=witness,
        tail_set=tail_set,
        tail_mu=tail_mu,
        tail_nu=tail_nu,
        tail_ok=tail_ok,
        checked_pairs=len(pairs),
        checked_sets=len(masks),
        records=records,
    )


# -- derivative construction -------------------------------------------------

def derive_function(family: DecompositionFamily) -> SimpleFunction:
    """f(x) = sup { alpha : x in family(alpha) }.

    A point in the unbounded tail band maps to infinity; otherwise the value
    is the supremum of the last band containing the point.
    """
    bands = family.bands()
    his = [bands[k].hi for k in _last_bands(family.space, bands)]
    return SimpleFunction(
        family.space, tuple(INF if hi is None else ExtReal(hi) for hi in his)
    )


def dyadic_approximant(family: DecompositionFamily, n: int) -> SimpleFunction:
    """The n-th dyadic approximant 2^-n * sum_{k=1..n 2^n} indicator(F(k/2^n-)),
    where F(alpha-) is the left limit of the family at alpha.

    Closed form: with g = derive_function(family), the value on an algebra
    atom is floor(min(g, n) * 2^n) / 2^n = min(floor(g * 2^n), n * 2^n) / 2^n.
    Proof: the band sets decrease and the band sups 0 = hi_0 < hi_1 < ... <
    hi_last = inf increase strictly, so a point lies in the bands 0..L and
    g = hi_L there.  For alpha > 0, F(alpha-) is the set of the first band j
    with alpha <= hi_j (the zero-plus set on (0, a_1], A_i on (a_i, a_{i+1}],
    A_m beyond a_m), and the point lies in it iff L >= j iff alpha <= g.  So
    the point is counted at exactly the k <= n 2^n with k/2^n <= g.  Hence
    min(g, n) - 2^-n <= f_n <= g pointwise, with f_n = g wherever g <= n and
    2^n g is an integer.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    denom = 1 << n
    values = tuple(
        ExtReal(Fraction(math.floor(v.as_fraction() * denom), denom))
        for v in derive_function(family).cap(n).values
    )
    return SimpleFunction(family.space, values)


# -- Radon-Nikodym verification ----------------------------------------------

@dataclass(frozen=True)
class RnReport:
    """Exact check of mu(A) = integral of f over A for every measurable A."""

    holds: bool
    failures: tuple  # (set, mu value, integral value)
    checked: int

    def __bool__(self):
        return self.holds


def _rn_holds(mu_t, nu_t, f: SimpleFunction) -> bool:
    """mu = integral of f d nu on every set, one lemma equation per set.

    The selectors run over the blocks in ascending f, so the lowest block b
    of a selector is least on its set B, and C = B \\ b comes earlier.  The
    lemma reads integral(B) from integral(C); while no earlier set has
    failed, integral(C) = mu(C), so mu(B) = integral(B) is the equation with
    mu(C) in its place.  The branches are those of
    ``choquet.integral_fractions``: f(b) = 0 asks mu(B) = mu(C); f(b) = inf
    asks mu(B) = 0 on a nu-null B and inf otherwise; an infinite nu(B) or
    mu(C) asks mu(B) = inf; else ``_lemma_holds`` with height f(b)."""
    heights, masks = lemma_order(f)
    heights = [h if h is None else h.as_integer_ratio() for h in heights]
    for s in range(1, len(masks)):
        low = s & -s
        B, C = masks[s], masks[s ^ low]
        h = heights[low.bit_length() - 1]
        m = mu_t[B]
        if h is None:
            holds = m is None if nu_t[B] != 0 else m == 0
        elif h[0] == 0:
            holds = m == mu_t[C]
        elif nu_t[B] is None or mu_t[C] is None:
            holds = m is None
        else:
            holds = m is not None and _lemma_holds(mu_t, nu_t, B, C, h)
        if not holds:
            return False
    return True


def verify_rn(mu: MonotoneMeasure, nu: MonotoneMeasure, f: SimpleFunction) -> RnReport:
    """Compare mu with the integral of f on every set, one integer lemma
    equation per set (``_rn_holds``; exact by induction, see the module
    docstring).  Only when some set fails is the integral table built
    (``choquet.integral_fractions``), to list the failures, with their
    integrals, in canonical order."""
    if mu.space != nu.space or f.space != mu.space:
        raise SpaceMismatchError("inputs live on different spaces")
    space = mu.space
    mu_t = mu.fractions()
    failures = ()
    if not _rn_holds(mu_t, nu.fractions(), f):
        integral = integral_fractions(f, nu)
        failures = tuple(
            (MeasurableSet(space, A), mu.value_of_mask(A), ExtReal(integral[A]))
            for A in selector_masks(space.blocks)
            if mu_t[A] != integral[A]
        )
    return RnReport(holds=not failures, failures=failures, checked=space.n_subsets())


def lemma_tail_check(
    mu: MonotoneMeasure, nu: MonotoneMeasure, family: DecompositionFamily
) -> bool:
    """Finite-space tail bound: (band sup) * nu(band set) <= mu(band set)
    for every bounded band.  Holds whenever the decomposition check passes."""
    for band in family.bands():
        if band.hi is None:
            continue
        if ExtReal(band.hi) * nu(band.set) > mu(band.set):
            return False
    return True
