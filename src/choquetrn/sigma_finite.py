"""Truncation models for countable spaces and the gluing construction.

A countable space is modelled at desk scale by a nested sequence of finite
prefix spaces U_1 < U_2 < ... < U_N with measures given by rule generators
evaluated on each truncation.  True limits are out of reach; every statement
here is the finitely-truncated form, reported as truncated-limit evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .choquet import choquet_value
from .decomposition import (
    DecompositionFamily,
    DecompositionReport,
    check_decomposition,
    derive_function,
    family_from_function,
)
from .errors import PreconditionError, SpaceMismatchError
from .extreal import ExtReal, ZERO
from .functions import SimpleFunction, function_from_values
from .measures import (
    MonotoneMeasure,
    additive_measure,
    cardinality_measure,
    max_weight_measure,
    measure_from_table,
)
from .spaces import MeasurableSet, MeasurableSpace, build_space

# beyond this many atoms, exhaustive power-set scans give way to a
# documented polynomial family of test sets
_EXHAUSTIVE_LIMIT = 12


def _measure_from_rule(space: MeasurableSpace, rule, depth_index: int) -> MonotoneMeasure:
    name = rule.get("rule")
    if name == "indicator_nonempty":
        value = ExtReal(rule.get("value", 1))
        table = {A.mask: (ZERO if A.is_empty else value) for A in space.subsets()}
        return MonotoneMeasure(space, table, generator="indicator_nonempty", validate=False)
    if name == "max_element":
        weights = {a: Fraction(a) for a in space.atoms}
        return max_weight_measure(space, weights)
    if name == "additive_sequence":
        weights = {
            a: rule["weights"][i] for i, a in enumerate(space.atoms)
        }
        return additive_measure(space, weights)
    if name == "cardinality":
        return cardinality_measure(space, rule.get("scale", 1))
    if name == "explicit":
        table = {
            tuple(entry["set"]): entry["value"]
            for entry in rule["tables"][depth_index]
        }
        return measure_from_table(space, table)
    raise PreconditionError(f"unknown truncation measure rule {name!r}")


@dataclass(frozen=True)
class TruncationModel:
    atoms: tuple                 # full universe, fixed order
    depths: tuple                # prefix lengths, strictly increasing
    spaces: tuple                # one power-set space per depth
    mus: tuple
    nus: tuple

    @property
    def deepest(self) -> MeasurableSpace:
        return self.spaces[-1]

    def restrict_set(self, A: MeasurableSet, level: int) -> MeasurableSet:
        """A & U_level, expressed on the level's space."""
        space = self.spaces[level]
        mask = A.mask & ((1 << self.depths[level]) - 1)
        return MeasurableSet(space, mask)

    def restrict_function(self, f: SimpleFunction, level: int) -> SimpleFunction:
        space = self.spaces[level]
        return SimpleFunction(space, f.values[: self.depths[level]])


def make_truncation_model(
    atoms: Sequence,
    mu_rule,
    nu_rule,
    depths: Optional[Sequence[int]] = None,
) -> TruncationModel:
    """Materialize all truncations and verify cross-truncation consistency.

    Rules: indicator_nonempty, max_element (numeric atom names),
    additive_sequence, cardinality, explicit (one table per truncation).
    Both measures must be finite on every truncation.
    """
    names = tuple(atoms)
    if depths is None:
        depths = list(range(1, len(names) + 1))
    depths = tuple(depths)
    if (not depths or list(depths) != sorted(set(depths))
            or depths[-1] > len(names) or depths[0] < 1):
        raise PreconditionError(
            "depths must be a nonempty, strictly increasing list of prefix lengths"
        )

    spaces = tuple(build_space(names[:d]) for d in depths)
    mus = tuple(
        _measure_from_rule(space, mu_rule, i) for i, space in enumerate(spaces)
    )
    nus = tuple(
        _measure_from_rule(space, nu_rule, i) for i, space in enumerate(spaces)
    )

    for level, (space, mu_n, nu_n) in enumerate(zip(spaces, mus, nus)):
        if not (mu_n.is_finite and nu_n.is_finite):
            raise PreconditionError(
                f"measures must be finite on every truncation (level {level})"
            )

    # consecutive-level agreement implies agreement between any two levels
    for level in range(len(depths) - 1):
        small, large = spaces[level], spaces[level + 1]
        if small.n_blocks <= _EXHAUSTIVE_LIMIT:
            candidates = list(small.subsets())
        else:
            candidates = _polynomial_test_sets(small)
        for A in candidates:
            lifted = large.set_from_mask(A.mask)
            for this, other, label in (
                (mus[level], mus[level + 1], "mu"),
                (nus[level], nus[level + 1], "nu"),
            ):
                if this(A) != other(lifted):
                    raise PreconditionError(
                        f"inconsistent generators: {label}({A}) differs between "
                        f"levels {level} and {level + 1}"
                    )

    return TruncationModel(
        atoms=names, depths=depths, spaces=spaces, mus=mus, nus=nus
    )


def _polynomial_test_sets(space: MeasurableSpace) -> List[MeasurableSet]:
    """Singletons, initial segments, parity classes, and their complements."""
    n = len(space.atoms)
    masks = {0, space.full_mask}
    for i in range(n):
        masks.add(1 << i)
        masks.add((1 << (i + 1)) - 1)
    even = sum(1 << i for i in range(0, n, 2))
    masks.add(even)
    masks.add(space.full_mask & ~even)
    masks |= {space.full_mask & ~m for m in list(masks)}
    return [MeasurableSet(space, m) for m in sorted(masks)]


# -- family generators -------------------------------------------------------

def threshold_tail_family(space: MeasurableSpace) -> DecompositionFamily:
    """The family alpha -> {x : x >= alpha} for numeric atom names.

    This is the level-set family of the identity function, so deriving the
    function back yields f(x) = x.
    """
    identity = function_from_values(space, {a: Fraction(a) for a in space.atoms})
    return family_from_function(identity)


def resolve_family_generator(gen) -> Callable[[MeasurableSpace, int], DecompositionFamily]:
    if callable(gen):
        return lambda space, level: gen(space)
    if gen == "threshold_tail" or (
        isinstance(gen, dict) and gen.get("rule") == "threshold_tail"
    ):
        return lambda space, level: threshold_tail_family(space)
    if isinstance(gen, (list, tuple)):
        families = list(gen)
        return lambda space, level: families[level]
    raise PreconditionError(f"unknown family generator {gen!r}")


# -- gluing ------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationReport:
    level: int
    depth: int
    decomposition: DecompositionReport
    function: SimpleFunction
    compatible: bool
    nu_measure_of_infinity_set: ExtReal


@dataclass(frozen=True)
class GlueResult:
    holds: bool
    function: Optional[SimpleFunction]  # on the deepest truncation
    per_truncation: tuple
    finite_ae: bool
    note: str

    def __bool__(self):
        return self.holds


def glue_derivative(model: TruncationModel, family_gen) -> GlueResult:
    """Derive a density on every truncation and glue them into one function.

    Each truncation must pass the decomposition check (tail included); the
    per-level derived functions must agree exactly on shared prefixes, which
    shared family generators guarantee by construction.  Incompatibilities
    are reported, never repaired.
    """
    gen = resolve_family_generator(family_gen)
    reports = []
    holds = True
    prev_values = None
    for level, space in enumerate(model.spaces):
        mu_n, nu_n = model.mus[level], model.nus[level]
        family = gen(space, level)
        decomposition = check_decomposition(mu_n, nu_n, family)
        f_n = derive_function(family)
        compatible = (
            prev_values is None or f_n.values[: len(prev_values)] == prev_values
        )
        inf_mass = nu_n(f_n.infinity_set)
        reports.append(
            TruncationReport(
                level=level,
                depth=model.depths[level],
                decomposition=decomposition,
                function=f_n,
                compatible=compatible,
                nu_measure_of_infinity_set=inf_mass,
            )
        )
        holds = holds and decomposition.holds and compatible
        prev_values = f_n.values

    final = reports[-1].function if holds else None
    finite_ae = all(r.nu_measure_of_infinity_set == ZERO for r in reports)
    note = (
        "truncated limit evidence at depth "
        f"{model.depths[-1]}; no genuine limit is certified"
    )
    return GlueResult(
        holds=holds,
        function=final,
        per_truncation=tuple(reports),
        finite_ae=finite_ae,
        note=note,
    )


# -- verification ------------------------------------------------------------

@dataclass(frozen=True)
class SigmaFiniteRecord:
    set: MeasurableSet
    mu_values: tuple        # mu(A & U_n) per level
    integral_values: tuple  # integral of f over A & U_n per level
    equal: bool
    nondecreasing: bool


@dataclass(frozen=True)
class SigmaFiniteReport:
    holds: bool
    records: tuple
    note: str

    def __bool__(self):
        return self.holds


def verify_sigma_finite(
    model: TruncationModel,
    f: SimpleFunction,
    test_sets: Optional[Sequence[MeasurableSet]] = None,
) -> SigmaFiniteReport:
    """Check mu(A & U_n) = integral of f over A & U_n at every level, and
    that both sides are nondecreasing in n (the truncated limit mechanism).

    Test sets must live on the deepest truncation.  Many test sets meet U_n
    in the same set, so f is restricted once per level and the integral is
    computed once per distinct truncated set A & U_n and reused."""
    deepest = model.deepest
    if f.space != deepest:
        raise PreconditionError("f must live on the deepest truncation")
    if test_sets is None:
        if deepest.n_blocks <= _EXHAUSTIVE_LIMIT:
            test_sets = list(deepest.subsets())
        else:
            test_sets = _polynomial_test_sets(deepest)

    levels = range(len(model.depths))
    functions = [model.restrict_function(f, level) for level in levels]
    integrals = [{} for _ in levels]  # per level: truncated mask -> integral
    records = []
    holds = True
    for A in test_sets:
        if A.space != deepest:
            raise SpaceMismatchError("test sets must live on the deepest truncation")
        mu_vals = []
        int_vals = []
        for level in levels:
            A_n = model.restrict_set(A, level)
            mu_vals.append(model.mus[level](A_n))
            known = integrals[level]
            value = known.get(A_n.mask)
            if value is None:
                value = known[A_n.mask] = choquet_value(
                    functions[level], model.nus[level], A_n
                )
            int_vals.append(value)
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
