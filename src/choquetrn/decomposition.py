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
set fails some band pair iff it fails an adjacent one, and each set costs one
measure lookup per band and measure instead of four per band pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import InvalidFamilyError, PreconditionError, SpaceMismatchError
from .extreal import ExtReal, INF, ZERO
from .functions import SimpleFunction
from .measures import MonotoneMeasure
from .results import Witness
from .spaces import MeasurableSet, MeasurableSpace


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
        a = Fraction(alpha)
        if a < 0:
            raise ValueError("alpha must be nonnegative")
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
        a = Fraction(alpha)
        if a < 0:
            raise InvalidFamilyError("thresholds must be nonnegative rationals")
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
    reproduces f exactly.
    """
    space = f.space
    finite_positive = sorted(
        {v for v in f.values if v.is_finite and v != ZERO},
        key=lambda v: v.as_fraction(),
    )
    breakpoints = [(Fraction(0), space.full_set)]
    for v in finite_positive:
        breakpoints.append((v.as_fraction(), f.level_set(v, strict=True)))
    return make_family(space, breakpoints, zero_plus=f.level_set(0, strict=True))


# -- the inequality check ----------------------------------------------------

@dataclass(frozen=True)
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


def _pair_record(A, bands, p, q, nu_values, mu_values) -> PairRecord:
    """Bands p < q on A, from the per-band values nu(A & S_k), mu(A & S_k)."""
    dnu = nu_values[p] - nu_values[q]
    dmu = mu_values[p] - mu_values[q]
    left_c = bands[p].hi
    right_c = bands[q].lo
    left = left_c * dnu
    right = right_c * dnu
    return PairRecord(
        set=A,
        lower_band=p,
        upper_band=q,
        left_coefficient=left_c,
        right_coefficient=right_c,
        left=left,
        middle=dmu,
        right=right,
        ok=left <= dmu <= right,
    )


def check_decomposition(
    mu: MonotoneMeasure,
    nu: MonotoneMeasure,
    family: DecompositionFamily,
    detail: bool = False,
) -> DecompositionReport:
    """Verify the two-sided inequalities for every measurable set and all
    rational threshold pairs, plus the vanishing-tail condition.

    The rational quantification reduces to one inequality pair per ordered
    band pair, and those to the adjacent band pairs (see module docstring):
    each set is decided by one measure lookup per band and measure.
    ``checked_pairs`` counts the band pairs the verdict covers; the witness
    is the first failing band pair, in lexicographic order, on the first
    failing set.  ``detail`` adds one record per band pair and set.
    Requires finite measures.
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
    # hi of band k is lo of band k + 1, so the adjacent sandwich is an equality
    his = [band.hi for band in bands[:-1]]

    witness = None
    holds = True
    records = []
    n_sets = 0
    for A in space.subsets():
        n_sets += 1
        cuts = [A.mask & S for S in band_masks]
        nu_values = [nu.value_of_mask(c).as_fraction() for c in cuts]
        mu_values = [mu.value_of_mask(c).as_fraction() for c in cuts]
        if detail:
            records.extend(
                _pair_record(A, bands, p, q, nu_values, mu_values)
                for p, q in pairs
            )
        if holds and not all(
            mu_values[k] - mu_values[k + 1] == hi * (nu_values[k] - nu_values[k + 1])
            for k, hi in enumerate(his)
            if cuts[k] != cuts[k + 1]
        ):
            holds = False
            pair_records = (
                _pair_record(A, bands, p, q, nu_values, mu_values) for p, q in pairs
            )
            first = next(r for r in pair_records if not r.ok)
            side = "left" if first.left > first.middle else "right"
            # monotonicity makes all three quantities nonnegative
            witness = Witness(
                kind="decomposition-inequality",
                sets=(A, bands[first.lower_band].set, bands[first.upper_band].set),
                values=(ExtReal(first.left), ExtReal(first.middle),
                        ExtReal(first.right)),
                detail=(
                    f"{side} inequality fails on A={A}: "
                    f"{first.left} <= {first.middle} <= {first.right} with "
                    f"coefficients [{first.left_coefficient}, "
                    f"{first.right_coefficient}]"
                ),
            )

    tail = family.tail_set
    tail_mu = mu(tail)
    tail_nu = nu(tail)
    tail_ok = tail_mu == ZERO and tail_nu == ZERO
    if not tail_ok and witness is None:
        witness = Witness(
            kind="decomposition-tail",
            sets=(tail,),
            values=(tail_mu, tail_nu),
            detail="the family tail must be null under both measures",
        )

    return DecompositionReport(
        holds=holds and tail_ok,
        witness=witness,
        tail_set=tail,
        tail_mu=tail_mu,
        tail_nu=tail_nu,
        tail_ok=tail_ok,
        checked_pairs=len(pairs),
        checked_sets=n_sets,
        records=tuple(records),
    )


# -- derivative construction -------------------------------------------------

def derive_function(family: DecompositionFamily) -> SimpleFunction:
    """f(x) = sup { alpha : x in family(alpha) }.

    A point in the unbounded tail band maps to infinity; otherwise the value
    is the supremum of the last band containing the point.
    """
    space = family.space
    bands = family.bands()
    values = []
    for i in range(space.n_blocks):
        block_mask = space.blocks[i]
        last = 0
        for k, band in enumerate(bands):
            if block_mask & band.set.mask == block_mask:
                last = k
        band = bands[last]
        values.append(INF if band.hi is None else ExtReal(band.hi))
    return SimpleFunction(space, tuple(values))


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


def verify_rn(mu: MonotoneMeasure, nu: MonotoneMeasure, f: SimpleFunction) -> RnReport:
    from .choquet import choquet_value

    if mu.space != nu.space or f.space != mu.space:
        raise SpaceMismatchError("inputs live on different spaces")
    failures = []
    checked = 0
    for A in mu.space.subsets():
        checked += 1
        lhs = mu(A)
        rhs = choquet_value(f, nu, A)
        if lhs != rhs:
            failures.append((A, lhs, rhs))
    return RnReport(holds=not failures, failures=tuple(failures), checked=checked)


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
