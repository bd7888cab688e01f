"""Shared random generators and independent oracles for the test suite.

The Choquet oracle here evaluates integrals by a different route than the
library (descending rank telescoping instead of threshold layers), so
agreement between the two is a real cross-check, not a tautology.  The
level-set Choquet oracle is the library's former evaluation (one level-set
scan per threshold), so it checks the one-sort running-union layers field by
field; the per-level sigma-finite oracle recomputes every (test set, level)
integral, so it checks that reusing one integral per distinct truncated set
changes no record.  The solver oracle tries every maximal chain without pruning, so it checks that
the library's prefix pruning never skips a feasible chain.  The
decomposition oracle tests every ordered band pair on every set, so it checks
that deciding each set from its adjacent band pairs loses nothing.  The
dyadic, null-additivity and strong absolute continuity oracles are the
direct loops over the definitions (the grid of dyadic left limits, all pairs
of sets, every set per epsilon) that the library's closed forms replace.
"""

from fractions import Fraction
from itertools import permutations

from choquetrn import (
    ExtReal,
    INF,
    MeasurableSet,
    MonotoneMeasure,
    SimpleFunction,
    Verdict,
    Witness,
    ZERO,
    additive_measure,
    build_space,
    measure_from_table,
    verify_rn,
)
from choquetrn.choquet import IntegralBreakdown
from choquetrn.decomposition import DecompositionReport, PairRecord
from choquetrn.errors import PreconditionError, SpaceMismatchError
from choquetrn.sigma_finite import (
    _EXHAUSTIVE_LIMIT,
    SigmaFiniteRecord,
    SigmaFiniteReport,
    _polynomial_test_sets,
)
from choquetrn.solver import _solve_chain_system


def random_space(rng, min_atoms=2, max_atoms=5):
    n = rng.randrange(min_atoms, max_atoms + 1)
    return build_space([f"x{i}" for i in range(n)])


def coarsened(space, rng):
    """The space's atoms under a random coarser partition, at least two blocks."""
    blocks = [[a] for a in space.atoms]
    while len(blocks) > 2 and rng.random() < 0.5:
        blocks[0] += blocks.pop()
    return build_space(space.atoms, blocks)


def random_fraction(rng, max_num=4, denominators=(1, 2, 3, 4)):
    return Fraction(rng.randrange(0, max_num + 1), rng.choice(denominators))


def random_monotone_measure(space, rng, max_step=3, denominators=(1, 2, 3, 4)):
    """A finite monotone measure built by cardinality-ordered accretion.

    Each set's value is the maximum over its one-block-smaller subsets plus a
    random nonnegative increment, which forces monotonicity by construction.
    """
    nb = space.n_blocks
    values = {0: Fraction(0)}
    selectors = sorted(range(1, 1 << nb), key=lambda s: bin(s).count("1"))
    masks = {}
    for s in selectors:
        mask = 0
        for i in range(nb):
            if s & (1 << i):
                mask |= space.blocks[i]
        masks[s] = mask
        base = max(
            values[masks.get(s & ~(1 << i), 0)]
            for i in range(nb)
            if s & (1 << i)
        )
        step = Fraction(rng.randrange(0, max_step + 1), rng.choice(denominators))
        values[mask] = base + step
    table = {
        MeasurableSet(space, m): v for m, v in values.items()
    }
    return measure_from_table(space, table)


def null_heavy_measure(space, rng):
    """A monotone measure with many null sets: a random measure whose
    increments vanish half the time, read on A minus a random set of blocks
    (every subset of which is therefore null)."""
    base = random_monotone_measure(space, rng, max_step=1)
    hidden = 0
    for block in space.blocks:
        if rng.random() < 0.3:
            hidden |= block
    table = {
        A: base.value_of_mask(A.mask & ~hidden) for A in space.subsets()
    }
    return measure_from_table(space, table)


def infinite_measure(space, rng):
    """A monotone measure that is infinite on every set meeting one random
    block and a random finite measure elsewhere."""
    base = random_monotone_measure(space, rng)
    heavy = rng.choice(space.blocks)
    table = {
        A: (INF if A.mask & heavy else base(A)) for A in space.subsets()
    }
    return measure_from_table(space, table)


def random_additive_measure(space, rng, allow_null_atoms=True,
                            denominators=(1, 2, 3, 4)):
    weights = {}
    for name in space.atoms:
        lo = 0 if allow_null_atoms else 1
        weights[name] = Fraction(rng.randrange(lo, 5), rng.choice(denominators))
    return additive_measure(space, weights)


def random_simple_function(space, rng, max_num=6, denominators=(1, 2, 4)):
    values = tuple(
        ExtReal(Fraction(rng.randrange(0, max_num + 1), rng.choice(denominators)))
        for _ in range(space.n_blocks)
    )
    return SimpleFunction(space, values)


def choquet_oracle(f, nu, A=None):
    """Independent Choquet integral: descending rank telescoping.

    Sort the block values of f on A in descending order v_1 >= ... >= v_m and
    sum (v_k - v_{k+1}) * nu(top-k blocks & A) with v_{m+1} = 0.  Infinite
    values contribute inf unless their layer is nu-null, in which case they
    are flattened to the largest finite value (they stay inside every finite
    layer, so no layer measure changes).
    """
    space = f.space
    if A is None:
        A = space.full_set
    inf_mask = 0
    finite = []
    for i in range(space.n_blocks):
        if not (space.blocks[i] & A.mask):
            continue
        v = f.values[i]
        if v.is_finite:
            finite.append((v.as_fraction(), space.blocks[i]))
        else:
            inf_mask |= space.blocks[i]
    if inf_mask and nu(MeasurableSet(space, inf_mask & A.mask)) != ZERO:
        return INF

    top = max((v for v, _ in finite), default=Fraction(0))
    if inf_mask:
        finite.append((top, inf_mask))
    ranked = sorted(finite, key=lambda p: p[0], reverse=True)

    total = ZERO
    acc_mask = 0
    for k, (v, block) in enumerate(ranked):
        acc_mask |= block
        nxt = ranked[k + 1][0] if k + 1 < len(ranked) else Fraction(0)
        drop = v - nxt
        if drop:
            total = total + ExtReal(drop) * nu(
                MeasurableSet(space, acc_mask & A.mask)
            )
    return total


def level_set_choquet_integral(f, nu, A=None):
    """The Choquet integral layer by layer: for each distinct finite nonzero
    value t of f on A, the level set {f >= t} is scanned afresh, cut to A and
    measured by a space-checked call of nu."""
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


def default_sigma_test_sets(model):
    """The test sets verify_sigma_finite uses when none are given."""
    deepest = model.deepest
    if deepest.n_blocks <= _EXHAUSTIVE_LIMIT:
        return list(deepest.subsets())
    return _polynomial_test_sets(deepest)


def per_level_sigma_finite(model, f, test_sets=None):
    """The sigma-finite verification with f restricted, and the integral
    evaluated by the level-set oracle, afresh for every (test set, level)."""
    deepest = model.deepest
    if f.space != deepest:
        raise PreconditionError("f must live on the deepest truncation")
    if test_sets is None:
        test_sets = default_sigma_test_sets(model)

    records = []
    holds = True
    for A in test_sets:
        mu_vals = []
        int_vals = []
        for level in range(len(model.depths)):
            A_n = model.restrict_set(A, level)
            f_n = model.restrict_function(f, level)
            mu_vals.append(model.mus[level](A_n))
            int_vals.append(level_set_choquet_integral(f_n, model.nus[level], A_n).total)
        equal = all(a == b for a, b in zip(mu_vals, int_vals))
        nondecreasing = all(
            x <= y for x, y in zip(mu_vals, mu_vals[1:])
        ) and all(x <= y for x, y in zip(int_vals, int_vals[1:]))
        records.append(
            SigmaFiniteRecord(
                set=A,
                mu_values=tuple(mu_vals),
                integral_values=tuple(int_vals),
                equal=equal,
                nondecreasing=nondecreasing,
            )
        )
        holds = holds and equal and nondecreasing
    return SigmaFiniteReport(
        holds=holds,
        records=tuple(records),
        note="truncated limit evidence; equality certified at every finite level",
    )


def exhaustive_solve(mu, nu):
    """The density search over all n! maximal chains, without pruning.

    Returns ``(chain, function)`` for the first feasible chain in
    lexicographic order, or ``(None, None)`` when every chain fails.
    """
    space = mu.space
    nb = space.n_blocks
    all_masks = [A.mask for A in space.subsets()]
    mu_frac = {m: mu.value_of_mask(m).as_fraction() for m in all_masks}
    nu_frac = {m: nu.value_of_mask(m).as_fraction() for m in all_masks}

    for order in permutations(range(nb)):
        chain_masks = [space.full_mask]
        for idx in order[:-1]:
            chain_masks.append(chain_masks[-1] & ~space.blocks[idx])
        # the solver's row order: with free variables, the point found
        # depends on which rows pivot first
        ordered = chain_masks + list(space.blocks)
        seen = set(ordered)
        ordered += [m for m in all_masks if m not in seen]
        rows = [
            (tuple(nu_frac[A & B] for B in chain_masks), mu_frac[A])
            for A in ordered
        ]
        d = _solve_chain_system(rows, nb)
        if d is None:
            continue
        heights = []
        acc = Fraction(0)
        for inc in d:
            acc += inc
            heights.append(acc)
        values = [None] * nb
        for i, B in enumerate(chain_masks):
            for b in range(nb):
                if space.blocks[b] & B == space.blocks[b]:
                    values[b] = ExtReal(heights[i])
        f = SimpleFunction(space, tuple(values))
        assert verify_rn(mu, nu, f).holds
        return order, f
    return None, None


def all_pairs_decomposition(mu, nu, family, detail=False):
    """The decomposition check over every ordered band pair p < q on every
    set, four measure lookups per pair, with the library's report fields."""
    space = family.space
    bands = family.bands()
    nb = len(bands)
    pairs = [
        (p, q)
        for p in range(nb - 1)
        for q in range(p + 1, nb)
        if bands[p].set != bands[q].set
    ]

    witness = None
    holds = True
    records = []
    n_sets = 0
    for A in space.subsets():
        n_sets += 1
        for p, q in pairs:
            Sp, Sq = bands[p].set, bands[q].set
            dnu = nu(A & Sp).as_fraction() - nu(A & Sq).as_fraction()
            dmu = mu(A & Sp).as_fraction() - mu(A & Sq).as_fraction()
            left_c = bands[p].hi
            right_c = bands[q].lo
            left = left_c * dnu
            right = right_c * dnu
            ok = left <= dmu <= right
            if detail:
                records.append(
                    PairRecord(
                        set=A,
                        lower_band=p,
                        upper_band=q,
                        left_coefficient=left_c,
                        right_coefficient=right_c,
                        left=left,
                        middle=dmu,
                        right=right,
                        ok=ok,
                    )
                )
            if not ok and holds:
                holds = False
                side = "left" if left > dmu else "right"
                witness = Witness(
                    kind="decomposition-inequality",
                    sets=(A, Sp, Sq),
                    values=(ExtReal(left), ExtReal(dmu), ExtReal(right)),
                    detail=(
                        f"{side} inequality fails on A={A}: "
                        f"{left} <= {dmu} <= {right} with coefficients "
                        f"[{left_c}, {right_c}]"
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


def left_limit(family, alpha):
    """The left limit of the family at alpha: lim of family(beta), beta -> alpha-.

    For the level-set family of a function this is exactly {f >= alpha}.
    """
    a = Fraction(alpha)
    if a <= 0:
        return family.sets[0]
    if len(family.thresholds) == 1 or a <= family.thresholds[1]:
        return family.zero_plus
    i = 1
    for k, t in enumerate(family.thresholds):
        if t < a:
            i = k
    return family.sets[i]


def grid_dyadic_approximant(family, n):
    """2^-n * sum_{k=1..n 2^n} indicator(left limit of the family at k/2^n),
    walking the whole dyadic grid."""
    space = family.space
    counts = [0] * space.n_blocks
    denom = 1 << n
    for k in range(1, n * denom + 1):
        S = left_limit(family, Fraction(k, denom))
        for i in range(space.n_blocks):
            if space.blocks[i] & S.mask == space.blocks[i]:
                counts[i] += 1
    values = tuple(ExtReal(Fraction(c, denom)) for c in counts)
    return SimpleFunction(space, values)


def pairwise_null_additivity(m):
    """(weak, plain) null-additivity verdicts from every pair of a null set
    with a null set, and of any set with a null set, first failure kept."""
    nulls = list(m.null_sets())
    weak = next(
        (Witness("weak-null-additivity", (A1, A2, A1 | A2), (ZERO, ZERO, m(A1 | A2)))
         for A1 in nulls for A2 in nulls if m(A1 | A2) != ZERO),
        None,
    )
    null = next(
        (Witness("null-additivity", (A, N, A | N), (m(A), ZERO, m(A | N)))
         for A in m.space.subsets() for N in nulls if m(A | N) != m(A)),
        None,
    )
    return (Verdict(holds=weak is None, witness=weak),
            Verdict(holds=null is None, witness=null))


def scan_strong_abs_continuity(mu, nu):
    """The epsilon-delta modulus table by scanning every set for every
    distinct positive mu value, with the library's witness choice."""
    eps_values = sorted(
        {mu(A) for A in mu.space.subsets() if mu(A) != ZERO},
        key=lambda v: v.as_fraction(),
    )
    table = []
    holds = True
    witness = None
    for eps in eps_values:
        candidates = [nu(A) for A in mu.space.subsets() if mu(A) >= eps]
        delta = candidates[0]
        best_set = None
        for A in mu.space.subsets():
            if mu(A) >= eps and nu(A) <= delta:
                delta = nu(A)
                best_set = A
        table.append((eps, delta))
        if delta == ZERO and holds:
            holds = False
            witness = Witness(
                kind="strong-absolute-continuity",
                sets=(best_set,),
                values=(eps, delta),
            )
    return Verdict(holds=holds, witness=witness, table=tuple(table))
