"""Truncation models for countable spaces and the gluing construction.

A countable space is modelled at desk scale by a nested sequence of finite
prefix spaces U_1 < U_2 < ... < U_N.  A model holds one mu and one nu, on the
deepest prefix; level n's measure is their restriction to U_n.  A generating
rule is built once, there: its value on a set B inside U_n reads only B's own
atoms, names and weights, so no rule can disagree with itself across levels.
Only ``explicit`` tables, one per level from outside the program, are
compared level by level.  True limits are out of reach; every statement here
is the finitely-truncated form, reported as truncated-limit evidence.

Gluing needs no pass per level.  The density is the identity on the atom
names (the threshold-tail family), the same function on every prefix, and a
set inside U_n gets the same decomposition equation at every level that
holds it, read from measure values on its subsets, where the levels agree.
So one check on the deepest level decides every level: level n fails iff
the deepest check's first failing set lies inside U_n.

Verification is one check on the deepest level as well.  The sets A & U_n
are exactly the subsets of the deepest prefix, and level n's measures are
the deepest ones restricted, so mu(A & U_n) = integral of f over A & U_n at
every level is ``verify_rn`` on the deepest level, over every set; both
sides are nondecreasing in n because mu and the integral are monotone in
the set.  Once gluing holds, the main theorem says this check cannot fail:
it is the definitional re-check of the glued density, not a second decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .choquet import choquet_value
from .decomposition import (
    DecompositionFamily,
    DecompositionReport,
    check_decomposition,
    derive_function,
    family_from_function,
    verify_rn,
)
from .errors import PreconditionError
from .extreal import ZERO
from .functions import SimpleFunction, function_from_values
from .measures import (
    MonotoneMeasure,
    additive_measure,
    cardinality_measure,
    max_weight_measure,
    measure_from_table,
)
from .spaces import MeasurableSet, MeasurableSpace, build_space

def _listed(rule, key: str, count: int, what: str, exact: bool):
    """``rule[key]``, a list of ``count`` entries, or at least that many
    unless ``exact``."""
    entries = rule[key]
    if isinstance(entries, (list, tuple)) and (
            len(entries) == count if exact else len(entries) >= count):
        return entries
    got = len(entries) if isinstance(entries, (list, tuple)) else type(entries).__name__
    raise PreconditionError(f"{rule['rule']} needs '{key}' to list {count} {what}; got {got}")


def _measure_from_rule(space: MeasurableSpace, rule) -> MonotoneMeasure:
    """The generating rule's measure on ``space``, the deepest prefix."""
    name = rule.get("rule")
    if name == "indicator_nonempty":
        return max_weight_measure(space, dict.fromkeys(space.atoms, rule.get("value", 1)))
    if name == "max_element":
        return max_weight_measure(space, {a: a for a in space.atoms})
    if name == "additive_sequence":
        weights = _listed(rule, "weights", len(space.atoms), "weights, one per atom",
                          exact=False)
        return additive_measure(space, dict(zip(space.atoms, weights)))
    if name == "cardinality":
        return cardinality_measure(space, rule.get("scale", 1))
    raise PreconditionError(f"unknown truncation measure rule {name!r}")


def _levels(names: tuple, depths: tuple, rule) -> list:
    """The rule's measure at each depth: an ``explicit`` rule's own table per
    level, or else one table on the deepest prefix, shared by every level."""
    if rule.get("rule") != "explicit":
        return [_measure_from_rule(build_space(names[:depths[-1]]), rule)] * len(depths)
    tables = _listed(rule, "tables", len(depths), "tables, one per level", exact=True)
    return [
        measure_from_table(build_space(names[:depth]),
                           [(e["set"], e["value"]) for e in entries])
        for depth, entries in zip(depths, tables)
    ]


@dataclass(frozen=True)
class TruncationModel:
    atoms: tuple                 # full universe, fixed order
    depths: tuple                # prefix lengths, strictly increasing
    deepest: MeasurableSpace     # the power set of the deepest prefix
    mu: MonotoneMeasure          # on ``deepest``; level n's is its restriction
    nu: MonotoneMeasure

    @cached_property
    def family(self) -> DecompositionFamily:
        """The threshold-tail family on the deepest prefix, built on first
        use and kept: parsing validates it and gluing reads it."""
        return threshold_tail_family(self.deepest)


def make_truncation_model(
    atoms: Sequence,
    mu_rule,
    nu_rule,
    depths: Optional[Sequence[int]] = None,
) -> TruncationModel:
    """Materialize the measures on the deepest truncation and check the levels.

    Rules: indicator_nonempty, max_element (numeric atom names),
    additive_sequence, cardinality, explicit (one table per truncation).
    Each generating rule gives one table, on the deepest prefix: its value on
    a set B inside U_n reads only B's own atoms, names and weights, so its
    restriction to U_n is the table it gives on U_n.  Explicit tables come
    per level from outside, so consecutive levels are compared on every set
    of the smaller one.  Both measures must be finite on every truncation.
    """
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

    mus = _levels(names, depths, mu_rule)
    nus = _levels(names, depths, nu_rule)

    # a level's table is finite iff its value on the level's prefix is
    for level, depth in enumerate(depths):
        prefix = (1 << depth) - 1
        if (mus[level].fractions()[prefix] is None
                or nus[level].fractions()[prefix] is None):
            raise PreconditionError(
                f"measures must be finite on every truncation (level {level})"
            )

    # consecutive-level agreement implies agreement between any two levels;
    # every set of a level has the same mask on the next, deeper one.  A
    # rule's one table is the same object at both levels and is skipped.
    for level in range(len(depths) - 1):
        pairs = [
            (label, measures[level].space, measures[level].fractions(),
             measures[level + 1].fractions())
            for measures, label in ((mus, "mu"), (nus, "nu"))
            if measures[level] is not measures[level + 1]
        ]
        if not pairs:
            continue
        for mask in range(1 << depths[level]):
            for label, space, shallow, deep in pairs:
                if shallow[mask] != deep[mask]:
                    A = MeasurableSet(space, mask)
                    raise PreconditionError(
                        f"inconsistent generators: {label}({A}) differs between "
                        f"levels {level} and {level + 1}"
                    )

    return TruncationModel(
        atoms=names, depths=depths, deepest=mus[-1].space, mu=mus[-1], nu=nus[-1]
    )


# -- the threshold-tail family ------------------------------------------------

def threshold_tail_family(space: MeasurableSpace) -> DecompositionFamily:
    """The family alpha -> {x : x >= alpha} for numeric atom names.

    This is the level-set family of the identity function, so deriving the
    function back yields f(x) = x.
    """
    identity = function_from_values(space, {a: a for a in space.atoms})
    if not identity.is_finite:
        raise PreconditionError("threshold_tail needs finite numeric atom names")
    return family_from_function(identity)


# -- gluing ------------------------------------------------------------------

@dataclass(frozen=True)
class GlueResult:
    holds: bool
    function: Optional[SimpleFunction]  # on the deepest truncation
    decomposition: DecompositionReport  # the deepest truncation's check
    per_truncation: tuple  # one verdict per depth, shallowest first
    finite_ae: bool
    note: str

    def __bool__(self):
        return self.holds


def glue_derivative(model: TruncationModel) -> GlueResult:
    """Derive the threshold-tail density and glue it across the truncations.

    One decomposition check on the deepest truncation decides every level.
    Take a nonempty B inside U_n and let v be the least atom name in B.  At
    every level the identity's bands give B the same equation,
    mu(B) - mu(B minus {f = v}) = v * (nu(B) - nu(B minus {f = v})), and the
    tail set is empty.  Both sides read only subsets of B, where level n's
    measures are the model's, restricted to U_n.  So level n fails iff the
    deepest check's first failing set, in ascending mask order, lies inside
    U_n, that is iff its mask is below 2^depth.  The identity agrees with
    itself on every prefix, so the glued function is the deepest one.
    """
    decomposition = check_decomposition(model.mu, model.nu, model.family)
    f = derive_function(model.family)
    witness = decomposition.witness
    per_truncation = tuple(
        witness is None or witness.sets[0].mask >> depth != 0
        for depth in model.depths
    )
    return GlueResult(
        holds=decomposition.holds,
        function=f if decomposition.holds else None,
        decomposition=decomposition,
        per_truncation=per_truncation,
        finite_ae=model.nu(f.infinity_set) == ZERO,
        note=(
            "truncated limit evidence at depth "
            f"{model.depths[-1]}; no genuine limit is certified"
        ),
    )


# -- verification ------------------------------------------------------------

@dataclass(frozen=True)
class SigmaFiniteRecord:
    set: MeasurableSet
    mu_values: tuple        # mu(A & U_n) per level
    integral_values: tuple  # integral of f over A & U_n per level


@dataclass(frozen=True)
class SigmaFiniteReport:
    holds: bool
    records: tuple  # the failing subsets of the deepest level, in canonical order
    checked: int    # sets compared: every subset of the deepest level

    def __bool__(self):
        return self.holds


def verify_sigma_finite(model: TruncationModel, f: SimpleFunction) -> SigmaFiniteReport:
    """Check mu(A & U_n) = integral of f over A & U_n at every level, for
    every subset A of the deepest truncation, by one
    ``verify_rn(model.mu, model.nu, f)`` there (see the module docstring):
    A fails iff one of its truncations fails that check.

    Each failing A gets a record.  Its per-level integrals are the
    definitional layer cake (``choquet_value``), so a refutation does not
    rest on the lemma scan that found it; each distinct truncated set is
    integrated once, however many records share it."""
    deepest = model.deepest
    if f.space != deepest:
        raise PreconditionError("f must live on the deepest truncation")

    mu, nu = model.mu, model.nu
    failing = {A.mask for A, _, _ in verify_rn(mu, nu, f).failures}
    records = []
    if failing:
        prefixes = [(1 << depth) - 1 for depth in model.depths]
        integrals = {}  # truncated mask -> its layer-cake integral
        for A in deepest.subsets():
            masks = [A.mask & prefix for prefix in prefixes]
            if failing.isdisjoint(masks):
                continue
            for mask in masks:
                if mask not in integrals:
                    integrals[mask] = choquet_value(f, nu, MeasurableSet(deepest, mask))
            records.append(SigmaFiniteRecord(
                set=A,
                mu_values=tuple(map(mu.value_of_mask, masks)),
                integral_values=tuple(map(integrals.__getitem__, masks)),
            ))
    return SigmaFiniteReport(
        holds=not records,
        records=tuple(records),
        checked=deepest.n_subsets(),
    )
