"""The shared problem-description file format (JSON).

Rationals are serialized as "p/q" strings and infinity as "inf"; no floating
point appears anywhere.  A file describes a space with optional measures,
functions, a threshold family and a truncation model:

    {
      "atoms": ["a", "b"],
      "partition": [["a"], ["b"]],          // optional
      "measures": {"nu": {"rule": "additive", "weights": {"a": "1/2"}}},
      "functions": {"f": {"a": "2", "b": "5"}},
      "family": [{"alpha": "0", "set": ["a", "b"]}, ...],
      "zero_plus": ["a"],                    // optional family refinement
      "truncations": {"atoms": [...], "depths": [...],
                      "measures": {"mu": {...}, "nu": {...}},
                      "family": {"rule": "threshold_tail"}, "N_max": 8}
    }

Explicit measure tables are lists of {"set": [atoms...], "value": "p/q"}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional

from .decomposition import DecompositionFamily, make_family
from .errors import ChoquetRnError, SpecFileError
from .functions import SimpleFunction, function_from_values
from .measures import MonotoneMeasure, make_measure
from .sigma_finite import TruncationModel, make_truncation_model, threshold_tail_family
from .spaces import MeasurableSpace, build_space


@dataclass
class ProblemSpec:
    """A parsed problem description."""

    space: Optional[MeasurableSpace] = None
    measures: Dict[str, MonotoneMeasure] = field(default_factory=dict)
    functions: Dict[str, SimpleFunction] = field(default_factory=dict)
    family: Optional[DecompositionFamily] = None
    model: Optional[TruncationModel] = None
    family_generator: Optional[object] = None
    n_max: Optional[int] = None
    raw: dict = field(default_factory=dict)


# most algebra atoms (and truncation points) a problem may have, since every
# measure is materialized on its power set: the deepest ``example ex-4-4``
MAX_ATOMS = 17

# what building the library objects raises on malformed entries
_MALFORMED = (
    ValueError, KeyError, IndexError, TypeError, ZeroDivisionError, ChoquetRnError,
)


def _object(value, location: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFileError(
            f"expected an object, got {type(value).__name__}", location=location
        )
    return value


def _reject_floats(value, location: str) -> None:
    if isinstance(value, float):
        raise SpecFileError(
            f"{value!r}: floats are not allowed; write an integer or a 'p/q' string",
            location=location,
        )
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            _reject_floats(item, location)


def parse_problem(data: dict) -> ProblemSpec:
    # one rule for files and dicts: a float anywhere is an error, located at
    # its top-level key or, for measures and functions, at its entry
    for key, value in data.items():
        if key in ("measures", "functions") and isinstance(value, dict):
            for name, entry in value.items():
                _reject_floats(entry, f"{key}.{name}")
        else:
            _reject_floats(value, str(key))
    spec = ProblemSpec(raw=data)
    try:
        if "atoms" in data:
            spec.space = build_space(data["atoms"], data.get("partition"))
            if spec.space.n_blocks > MAX_ATOMS:
                raise ValueError(f"more than {MAX_ATOMS} algebra atoms")
    except _MALFORMED as exc:
        raise SpecFileError(str(exc), location="atoms/partition") from exc

    if spec.space is not None:
        for name, rule in _object(data.get("measures", {}), "measures").items():
            location = f"measures.{name}"
            _object(rule, location)
            try:
                spec.measures[name] = make_measure(spec.space, rule)
            except _MALFORMED as exc:
                raise SpecFileError(str(exc), location=location) from exc
        for name, table in _object(data.get("functions", {}), "functions").items():
            location = f"functions.{name}"
            _object(table, location)
            try:
                spec.functions[name] = function_from_values(spec.space, table)
            except _MALFORMED as exc:
                raise SpecFileError(str(exc), location=location) from exc
        if "family" in data:
            try:
                breakpoints = [
                    (Fraction(entry["alpha"]), spec.space.make_set(entry["set"]))
                    for entry in data["family"]
                ]
                zero_plus = (
                    spec.space.make_set(data["zero_plus"])
                    if "zero_plus" in data
                    else None
                )
                spec.family = make_family(spec.space, breakpoints, zero_plus=zero_plus)
            except _MALFORMED as exc:
                raise SpecFileError(str(exc), location="family") from exc

    if "truncations" in data:
        block = _object(data["truncations"], "truncations")
        try:
            n_max = block.get("N_max")
            atoms = block.get("atoms")
            depths = block.get("depths")
            if atoms is None and n_max is None:
                raise ValueError("truncations need 'atoms' or 'N_max'")
            if (int(n_max) + 1 if atoms is None else len(atoms)) > MAX_ATOMS:
                raise ValueError(f"more than {MAX_ATOMS} atoms in the universe")
            if atoms is None:
                atoms = [str(k) for k in range(int(n_max) + 1)]
                depths = [n + 1 for n in range(1, int(n_max) + 1)]
            rules = _object(block["measures"], "truncations.measures")
            spec.model = make_truncation_model(
                atoms,
                mu_rule=_object(rules["mu"], "truncations.measures.mu"),
                nu_rule=_object(rules["nu"], "truncations.measures.nu"),
                depths=depths,
            )
            family = block.get("family", "threshold_tail")
            if family not in ("threshold_tail", {"rule": "threshold_tail"}):
                raise ValueError(
                    f"unknown family {family!r}; the truncation family is "
                    "'threshold_tail'"
                )
            # the family's thresholds are the atom names
            threshold_tail_family(spec.model.deepest)
            spec.family_generator = family
            spec.n_max = n_max
        except SpecFileError:
            raise
        except _MALFORMED as exc:
            raise SpecFileError(str(exc), location="truncations") from exc

    return spec


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SpecFileError(str(exc), location=path) from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"not UTF-8 text: {exc.reason}", location=path) from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            location=path,
        ) from exc
    if not isinstance(data, dict):
        raise SpecFileError("top-level value must be an object", location=path)
    return parse_problem(data)


def problem_to_dict(spec: ProblemSpec) -> dict:
    """Normalized re-serialization; re-parsing yields an equivalent problem."""
    out: dict = {}
    if spec.space is not None:
        out["atoms"] = list(spec.space.atoms)
        if not spec.space.is_power_set:
            out["partition"] = [
                list(spec.space.block_set(i).atom_names())
                for i in range(spec.space.n_blocks)
            ]
        if spec.measures:
            out["measures"] = {
                name: {
                    "rule": "explicit",
                    "table": [
                        {"set": list(A.atom_names()), "value": str(m(A))}
                        for A in spec.space.subsets()
                    ],
                }
                for name, m in sorted(spec.measures.items())
            }
        if spec.functions:
            out["functions"] = {
                name: {
                    str(atom): str(f(atom)) for atom in spec.space.atoms
                }
                for name, f in sorted(spec.functions.items())
            }
        if spec.family is not None:
            out["family"] = [
                {"alpha": str(t), "set": list(A.atom_names())}
                for t, A in zip(spec.family.thresholds, spec.family.sets)
            ]
            if spec.family.zero_plus != spec.family.sets[0]:
                out["zero_plus"] = list(spec.family.zero_plus.atom_names())
    if spec.model is not None:
        out["truncations"] = spec.raw.get("truncations", {})
    return out
