"""Shared random generators and independent oracles for the test suite.

The Choquet oracle here evaluates integrals by a different route than the
library (descending rank telescoping instead of threshold layers), so
agreement between the two is a real cross-check, not a tautology.  The
level-set Choquet oracle is the library's former evaluation (one level-set
scan per threshold), so it checks the one-sort running-union layers field by
field.  The per-set integral oracles call the library's ``choquet_value``
once per set, the loop that the one-pass integral table (one lemma step per
set) replaces in ``indefinite_integral_measure`` and ``verify_rn``.  The
per-level sigma-finite oracle recomputes every (test set, level) integral
on that level alone, so it checks that one ``verify_rn`` on the deepest
level decides every level and that exactly the failing sets get a record.
The per-level glue oracle is the library's former gluing, one decomposition
check per truncation level, so it checks that the deepest level's check
decides every level.  The solver oracles are the library's two former
searches over maximal chains.  ``exhaustive_solve`` tries every chain without
pruning and solves each chain's system afresh by one-shot Gaussian
elimination over Fractions (``_solve_chain_system``) and Fourier-Motzkin
elimination (``_feasible_point``); ``chain_solve`` reads one equation per set
and removal step and prunes dead prefixes.  Neither knows the Moebius
identity the solver decides by, so they check its verdict, and that its
density is the least: each oracle's density is at least the solver's at
every block.  The
decomposition oracle tests every ordered band pair on every set, so it checks
that one equation per set, from its last band to the next, loses nothing.  Its
records are the library's former per-set construction (``_pair_record``, each
record computed afresh from the measures of its set's cuts), so it checks
that computing each record's values once per cut A & S_p, in integers, and
sharing them changes no record.  The
dyadic, null-additivity and strong absolute continuity oracles are the
direct loops over the definitions (the grid of dyadic left limits, all pairs
of sets, every set per epsilon) that the library's closed forms replace.
The per-entry table reader is the library's former ``measure_from_table``:
``space.make_set`` and ``ExtReal`` per entry, then every set against its
covers by ``Fraction`` comparison, so it checks the mask reader and the
integer cover check value, error and witness alike.
The rule oracles are the library's former constructors, which take
``ext_sum`` or ``ext_max`` over each set's atoms, so they check the one
lowest-bit fill per rule set by set; the per-set additivity test sums each
set's block values.  The per-level truncation model is the library's former
construction, every rule materialized on every level and the levels compared
set by set, so it checks that one table per rule, on the deepest prefix,
restricts to each level's table and raises the same errors.
``restrict_set`` and ``restrict_function`` cut a set or a function to one
level of it, for the per-level oracles.
The report oracles are the library's former renderers: ``jsonable`` copies
a report into plain containers, which ``json.dumps`` or the former text
walk then print, so they check the one-walk renderers byte for byte.
"""

import dataclasses
import json
from collections.abc import Mapping
from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import List, Tuple

from choquetrn import (
    ExtReal,
    INF,
    MeasurableSet,
    MeasurableSpace,
    MonotoneMeasure,
    SimpleFunction,
    Verdict,
    Witness,
    ZERO,
    additive_measure,
    build_space,
    cardinality_measure,
    check_decomposition,
    choquet_value,
    derive_function,
    ext_max,
    ext_sum,
    max_weight_measure,
    measure_from_table,
    verify_rn,
)
from choquetrn.choquet import IntegralBreakdown
from choquetrn.decomposition import DecompositionReport, PairRecord, RnReport
from choquetrn.errors import InvalidMeasureError, PreconditionError, SpaceMismatchError
from choquetrn.spaces import selector_masks
from choquetrn.report import _all_digits
from choquetrn.sigma_finite import (
    SigmaFiniteRecord,
    SigmaFiniteReport,
    _listed,
    threshold_tail_family,
)


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


def prime_denominator_measure(space, rng):
    """A monotone measure whose every nonempty set carries its own prime
    between 100000 and 200000 in its denominator: an integer measure that
    grows by at least 1 per block, plus 1/p on each set.  Up to 10 blocks,
    the lcm of its values runs to about 17 bits per set."""
    sieve = bytearray([1]) * 200000
    for k in range(2, 448):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, 200000, k)))
    primes = rng.sample([p for p in range(100001, 200000, 2) if sieve[p]],
                        space.n_subsets() - 1)
    base = random_monotone_measure(space, rng, denominators=(1,))
    table = {A: base(A) + len(A) + (Fraction(1, primes.pop()) if A.mask else 0)
             for A in space.subsets()}
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


def per_entry_measure_from_table(space, table):
    """``measure_from_table`` one entry at a time: a set object and an
    ``ExtReal`` per entry, and each cover compared as Fractions."""
    full = {}
    for key, value in table.items() if isinstance(table, Mapping) else table:
        A = key if isinstance(key, MeasurableSet) else space.make_set(key)
        if A.mask in full:
            raise InvalidMeasureError(f"set {A} is listed twice")
        full[A.mask] = ExtReal(value)
    missing = space.n_subsets() - len(full)
    if missing:
        raise InvalidMeasureError(f"table is missing {missing} set(s)")
    if full[0] != ZERO:
        raise InvalidMeasureError(
            "measure must vanish on the empty set",
            witness=Witness(kind="vanishing-at-empty", sets=(space.empty_set,),
                            values=(full[0],)),
        )
    values = {mask: v._frac for mask, v in full.items()}
    for A in selector_masks(space.blocks):
        for block in space.blocks:
            if A & block:
                continue
            a, b = values[A], values[A | block]
            if b is not None and (a is None or a > b):
                small = MeasurableSet(space, A)
                large = MeasurableSet(space, A | block)
                vA, vB = full[A], full[A | block]
                raise InvalidMeasureError(
                    f"monotonicity violated: m({small}) = {vA} > {vB} = m({large})",
                    witness=Witness(kind="monotonicity", sets=(small, large),
                                    values=(vA, vB)),
                )
    return MonotoneMeasure(space, full, validate=False)


def per_set_measure(space, value_of):
    """The measure whose table holds ``value_of(A)`` for every set A, one
    set at a time: the loop the lowest-bit rule fills replace."""
    table = {A.mask: value_of(A) for A in space.subsets()}
    return MonotoneMeasure(space, table, validate=False)


def _members(space, weights):
    """A -> the weights of A's atoms, missing atoms weighing 0."""
    w = [ZERO] * len(space.atoms)
    for name, value in weights.items():
        w[space.index_of(name)] = ExtReal(value)
    return lambda A: [w[i] for i in range(len(space.atoms)) if A.mask & (1 << i)]


def per_set_additive_measure(space, weights):
    members = _members(space, weights)
    return per_set_measure(space, lambda A: ext_sum(members(A)))


def per_set_max_weight_measure(space, weights):
    members = _members(space, weights)
    return per_set_measure(space, lambda A: ext_max(ZERO, *members(A)))


def per_set_cardinality_measure(space, scale):
    c = ExtReal(scale)
    return per_set_measure(space, lambda A: c * len(A))


def per_set_indicator_full_measure(space, value):
    top = ExtReal(value)
    return per_set_measure(space, lambda A: top if A.is_full else ZERO)


def per_set_indicator_nonempty_measure(space, value):
    top = ExtReal(value)
    return per_set_measure(space, lambda A: ZERO if A.is_empty else top)


def per_set_is_additive(m):
    """Each set's value against the sum of the values of the blocks in it."""
    if not m.is_finite:
        return False
    blocks = m.space.blocks
    return all(
        ext_sum(m.value_of_mask(b) for b in blocks if b & A.mask == b) == m(A)
        for A in m.space.subsets()
    )


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


def per_set_integral_table(f, nu):
    """mask -> integral of f over the set, one full Choquet integral per set:
    the loop the library's one-pass integral table replaces."""
    return {A.mask: choquet_value(f, nu, A) for A in f.space.subsets()}


def per_set_verify_rn(mu, nu, f):
    """verify_rn by one full Choquet integral per set, in canonical order."""
    failures = []
    for A in mu.space.subsets():
        lhs, rhs = mu(A), choquet_value(f, nu, A)
        if lhs != rhs:
            failures.append((A, lhs, rhs))
    return RnReport(holds=not failures, failures=tuple(failures),
                    checked=mu.space.n_subsets())


@dataclasses.dataclass(frozen=True)
class PerLevelModel:
    """A truncation model as its levels, each with its own space and tables."""

    atoms: tuple
    depths: tuple
    spaces: tuple
    mus: tuple
    nus: tuple

    @property
    def deepest(self):
        return self.spaces[-1]


def _level_measure(spaces, rule, level):
    """The rule's measure on ``spaces[level]``, built on that level alone."""
    space = spaces[level]
    name = rule.get("rule")
    if name == "indicator_nonempty":
        return max_weight_measure(space, dict.fromkeys(space.atoms, rule.get("value", 1)))
    if name == "max_element":
        return max_weight_measure(space, {a: a for a in space.atoms})
    if name == "additive_sequence":
        weights = _listed(rule, "weights", len(spaces[-1].atoms), "weights, one per atom")
        return additive_measure(space, dict(zip(space.atoms, weights)))
    if name == "cardinality":
        return cardinality_measure(space, rule.get("scale", 1))
    if name == "explicit":
        entries = _listed(rule, "tables", len(spaces), "tables, one per level")[level]
        return measure_from_table(space, [(e["set"], e["value"]) for e in entries])
    raise PreconditionError(f"unknown truncation measure rule {name!r}")


def per_level_model(atoms, mu_rule, nu_rule, depths=None):
    """The library's former truncation model: every rule materialized on
    every level, finiteness read from each level's table, and consecutive
    levels compared on every set of the smaller one, for both measures."""
    names = build_space(atoms).atoms
    if depths is None:
        depths = list(range(1, len(names) + 1))
    # a file's depths may be any JSON value: only a list of integers is
    # sorted and compared with the atom count
    if not (isinstance(depths, (list, tuple)) and depths
            and all(type(depth) is int for depth in depths)
            and list(depths) == sorted(set(depths))
            and 1 <= depths[0] and depths[-1] <= len(names)):
        raise PreconditionError(
            "depths must be a nonempty, strictly increasing list of prefix "
            f"lengths; got {depths!r}"
        )
    depths = tuple(depths)

    spaces = tuple(build_space(names[:d]) for d in depths)
    mus = tuple(_level_measure(spaces, mu_rule, i) for i in range(len(spaces)))
    nus = tuple(_level_measure(spaces, nu_rule, i) for i in range(len(spaces)))

    for level, (mu_n, nu_n) in enumerate(zip(mus, nus)):
        if not (mu_n.is_finite and nu_n.is_finite):
            raise PreconditionError(
                f"measures must be finite on every truncation (level {level})"
            )

    for level in range(len(depths) - 1):
        for mask in range(1 << depths[level]):
            for measures, label in ((mus, "mu"), (nus, "nu")):
                if (measures[level].value_of_mask(mask)
                        != measures[level + 1].value_of_mask(mask)):
                    A = MeasurableSet(spaces[level], mask)
                    raise PreconditionError(
                        f"inconsistent generators: {label}({A}) differs between "
                        f"levels {level} and {level + 1}"
                    )

    return PerLevelModel(atoms=names, depths=depths, spaces=spaces, mus=mus, nus=nus)


def restrict_set(levels, A, level):
    """A & U_level, expressed on the level's space."""
    return MeasurableSet(levels.spaces[level], A.mask & ((1 << levels.depths[level]) - 1))


def restrict_function(levels, f, level):
    """f on U_level, expressed on the level's space."""
    return SimpleFunction(levels.spaces[level], f.values[: levels.depths[level]])


def per_level_sigma_finite(levels, f, test_sets=None):
    """The sigma-finite verification on a ``per_level_model``, with f
    restricted, and the integral evaluated by the level-set oracle, afresh
    for every (test set, level); by default every subset of the deepest
    level.  Every set is compared; only the failing ones keep a record."""
    deepest = levels.deepest
    if f.space != deepest:
        raise PreconditionError("f must live on the deepest truncation")
    if test_sets is None:
        test_sets = list(deepest.subsets())

    records = []
    for A in test_sets:
        mu_vals = []
        int_vals = []
        for level in range(len(levels.depths)):
            A_n = restrict_set(levels, A, level)
            f_n = restrict_function(levels, f, level)
            mu_vals.append(levels.mus[level](A_n))
            int_vals.append(level_set_choquet_integral(f_n, levels.nus[level], A_n).total)
        equal = all(a == b for a, b in zip(mu_vals, int_vals))
        nondecreasing = all(
            x <= y for x, y in zip(mu_vals, mu_vals[1:])
        ) and all(x <= y for x, y in zip(int_vals, int_vals[1:]))
        if not (equal and nondecreasing):
            records.append(
                SigmaFiniteRecord(
                    set=A,
                    mu_values=tuple(mu_vals),
                    integral_values=tuple(int_vals),
                    equal=equal,
                    nondecreasing=nondecreasing,
                )
            )
    return SigmaFiniteReport(
        holds=not records, records=tuple(records), checked=len(test_sets)
    )


def per_level_glue(levels):
    """Gluing by one decomposition check per level of a ``per_level_model``:
    (holds, per-level verdicts, glued function or None, finite_ae).

    Each level derives its own threshold-tail density, which must agree with
    the previous level's on the shared prefix; a level's verdict is its
    check and that agreement."""
    verdicts = []
    functions = []
    finite_ae = True
    for space, mu_n, nu_n in zip(levels.spaces, levels.mus, levels.nus):
        family = threshold_tail_family(space)
        f_n = derive_function(family)
        compatible = not functions or (
            f_n.values[: len(functions[-1].values)] == functions[-1].values
        )
        verdicts.append(check_decomposition(mu_n, nu_n, family).holds and compatible)
        functions.append(f_n)
        finite_ae = finite_ae and nu_n(f_n.infinity_set) == ZERO
    holds = all(verdicts)
    return holds, tuple(verdicts), functions[-1] if holds else None, finite_ae


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


def chain_solve(mu, nu):
    """The density search over maximal chains, with prefix pruning.

    Along a maximal chain, the block of A removed first is least on A, so by
    the lemma a chain carries a density iff every step (R, b), R the blocks
    removed before b, has one height h_b with
    Delta_b mu(A) = h_b * Delta_b nu(A), Delta_b m(A) = m(A) - m(A - b), for
    every A outside R that holds b, and the forced heights are
    nondecreasing.  A backward pass over the removal sets R fills thr[R],
    the largest current height from which every block can still be removed,
    and a depth-first walk in canonical order then takes the first feasible
    chain without backtracking.  Returns ``(chain, function)`` as
    ``exhaustive_solve`` does, free heights taking the next forced one and
    trailing ones the last.
    """
    space = mu.space
    nb = space.n_blocks
    full = (1 << nb) - 1
    masks = selector_masks(space.blocks)
    values = [list(map(m.fractions().__getitem__, masks)) for m in (mu, nu)]
    den = lcm(*(v.denominator for table in values for v in table))
    mu_t, nu_t = ([v.numerator * (den // v.denominator) for v in table]
                  for table in values)

    def le(x, y):
        """x <= y for heights (numerator, denominator); (1, 0) is infinity."""
        return x[0] * y[1] <= y[0] * x[1]

    def step(removed, b):
        """The height forced by removing b after ``removed`` as (Delta mu,
        Delta nu), None when free and False when contradicted."""
        bit = 1 << b
        rest = full & ~removed & ~bit
        forced = None
        sub = 0  # the subsets of rest in ascending order
        while True:
            A = sub | bit
            d_mu, d_nu = mu_t[A] - mu_t[sub], nu_t[A] - nu_t[sub]
            if not d_nu:
                if d_mu:
                    return False
            elif forced is None:
                forced = d_mu, d_nu
            elif d_mu * forced[1] != forced[0] * d_nu:
                return False
            if sub == rest:
                return forced
            sub = (sub - rest) & rest

    thr = [None] * (full + 1)
    thr[full] = (1, 0)
    for removed in range(full - 1, -1, -1):
        for b in range(nb):
            reach = thr[removed | 1 << b]
            if removed >> b & 1 or reach is None:
                continue
            h = step(removed, b)
            if h is False or h is not None and not le(h, reach):
                continue
            top = reach if h is None else h
            if thr[removed] is None or le(thr[removed], top):
                thr[removed] = top

    removed, order, path_heights, current = 0, (), [], (0, 1)
    while removed != full:
        for b in range(nb):
            if removed >> b & 1:
                continue
            h = step(removed, b)
            reach = thr[removed | 1 << b]
            if h is not False and reach is not None \
                    and le(current if h is None else h, reach):
                break
        else:
            return None, None  # only at the root: thr rules out dead ends
        removed |= 1 << b
        order += (b,)
        path_heights.append(h)
        if h is not None:
            current = h

    heights = [None] * nb
    for b, h in zip(reversed(order), reversed(path_heights)):
        if h is not None:
            current = h
        heights[b] = ExtReal(Fraction(*current))
    return order, SimpleFunction(space, tuple(heights))


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


def all_pairs_decomposition(mu, nu, family, detail=False):
    """The decomposition check over every ordered band pair p < q on every
    set, each record computed afresh from the measures of the set's cuts
    A & S_k, with the library's report fields."""
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
    records = []
    for A in space.subsets():
        nu_values = [nu(A & band.set).as_fraction() for band in bands]
        mu_values = [mu(A & band.set).as_fraction() for band in bands]
        for p, q in pairs:
            r = _pair_record(A, bands, p, q, nu_values, mu_values)
            if detail:
                records.append(r)
            if not r.ok and witness is None:
                side = "left" if r.left > r.middle else "right"
                witness = Witness(
                    kind="decomposition-inequality",
                    sets=(A, bands[p].set, bands[q].set),
                    values=(ExtReal(r.left), ExtReal(r.middle), ExtReal(r.right)),
                    detail=(
                        f"{side} inequality fails on A={A}: "
                        f"{r.left} <= {r.middle} <= {r.right} with coefficients "
                        f"[{r.left_coefficient}, {r.right_coefficient}]"
                    ),
                )
    holds = witness is None

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
        checked_sets=space.n_subsets(),
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
    eps_values = sorted({mu(A) for A in mu.space.subsets() if mu(A) != ZERO})
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


def jsonable(obj):
    """Convert library objects to JSON-serializable structures.

    Rationals become "p/q" strings, infinity "inf", sets become sorted atom
    lists; dataclasses become plain dicts.  Deterministic by construction.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError("floats must never appear in reports")
    if isinstance(obj, (ExtReal, Fraction)):
        return str(obj)
    if isinstance(obj, MeasurableSet):
        return [str(n) for n in obj.atom_names()]
    if isinstance(obj, MeasurableSpace):
        return {"atoms": [str(n) for n in obj.atoms]}
    if isinstance(obj, SimpleFunction):
        return {str(a): str(obj(a)) for a in obj.space.atoms}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


def json_report_oracle(report):
    with _all_digits():
        return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def _text_lines(value, prefix, out):
    if isinstance(value, dict):
        for key in sorted(value):
            _text_lines(value[key], f"{prefix}{key}.", out)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            out.append(f"{prefix[:-1]}: [{', '.join(str(v) for v in value)}]")
        else:
            for i, v in enumerate(value):
                _text_lines(v, f"{prefix}{i}.", out)
    else:
        out.append(f"{prefix[:-1]}: {value}")


def text_report_oracle(report):
    lines = []
    with _all_digits():
        _text_lines(jsonable(report), "", lines)
    return "\n".join(lines) + "\n"
