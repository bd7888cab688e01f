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
from typing import Dict, Optional

from .decomposition import DecompositionFamily, make_family
from .errors import ChoquetRnError, SpecFileError
from .functions import SimpleFunction, function_from_values
from .measures import MonotoneMeasure, make_measure
from .sigma_finite import TruncationModel, make_truncation_model
from .spaces import MeasurableSpace, build_space


@dataclass
class ProblemSpec:
    """A parsed problem description."""

    space: Optional[MeasurableSpace] = None
    measures: Dict[str, MonotoneMeasure] = field(default_factory=dict)
    functions: Dict[str, SimpleFunction] = field(default_factory=dict)
    family: Optional[DecompositionFamily] = None
    model: Optional[TruncationModel] = None
    raw: dict = field(default_factory=dict)


# most algebra atoms (and truncation points) a problem may have, since every
# measure is materialized on its power set: the deepest ``example ex-4-4``
MAX_ATOMS = 17

# what building the library objects raises on malformed entries
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, ChoquetRnError)


def _reason(exc: Exception) -> str:
    # a bare KeyError, from a failed lookup, prints only the repr of its key
    return f"missing key {exc}" if type(exc) is KeyError else str(exc)


def _object(value, location: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFileError(
            f"expected an object, got {type(value).__name__}", location=location
        )
    return value


def _reject_inexact(value, location: str) -> None:
    """A float or a boolean anywhere in ``value`` is a located error: a
    float is not exact, and a JSON ``true``/``false`` is not a number."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        value = (value,)
    for item in value:
        if isinstance(item, (dict, list, tuple)):
            _reject_inexact(item, location)
        elif isinstance(item, (float, bool)):
            text, kind = ((repr(item), "floats") if isinstance(item, float)
                          else (json.dumps(item), "booleans"))
            raise SpecFileError(
                f"{text}: {kind} are not allowed; write an integer or a 'p/q' string",
                location=location,
            )


def parse_problem(data: dict) -> ProblemSpec:
    # one rule for files and dicts: a float or a boolean anywhere is an
    # error, located at its top-level key or, for measures and functions, at
    # its entry
    for key, value in data.items():
        if key in ("measures", "functions") and isinstance(value, dict):
            for name, entry in value.items():
                _reject_inexact(entry, f"{key}.{name}")
        else:
            _reject_inexact(value, str(key))
    # these keys live on the space that "atoms" names
    for key in ("partition", "measures", "functions", "family"):
        if key in data and "atoms" not in data:
            raise SpecFileError("needs 'atoms', the space it lives on", location=key)
    # and zero_plus refines the family
    if "zero_plus" in data and "family" not in data:
        raise SpecFileError("needs 'family'", location="zero_plus")
    spec = ProblemSpec(raw=data)
    try:
        if "atoms" in data:
            spec.space = build_space(data["atoms"], data.get("partition"))
            if spec.space.n_blocks > MAX_ATOMS:
                raise ValueError(f"more than {MAX_ATOMS} algebra atoms")
    except _MALFORMED as exc:
        raise SpecFileError(_reason(exc), location="atoms/partition") from exc

    for name, rule in _object(data.get("measures", {}), "measures").items():
        location = f"measures.{name}"
        _object(rule, location)
        try:
            spec.measures[name] = make_measure(spec.space, rule)
        except _MALFORMED as exc:
            raise SpecFileError(_reason(exc), location=location) from exc
    for name, table in _object(data.get("functions", {}), "functions").items():
        location = f"functions.{name}"
        _object(table, location)
        try:
            spec.functions[name] = function_from_values(spec.space, table)
        except _MALFORMED as exc:
            raise SpecFileError(_reason(exc), location=location) from exc
    if "family" in data:
        try:
            breakpoints = [
                (entry["alpha"], spec.space.make_set(entry["set"]))
                for entry in data["family"]
            ]
            zero_plus = (
                spec.space.make_set(data["zero_plus"])
                if "zero_plus" in data
                else None
            )
            spec.family = make_family(spec.space, breakpoints, zero_plus=zero_plus)
        except _MALFORMED as exc:
            raise SpecFileError(_reason(exc), location="family") from exc

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
                if depths is None:
                    depths = [n + 1 for n in range(1, int(n_max) + 1)]
            elif n_max is not None and int(n_max) != len(atoms) - 1:
                raise ValueError(
                    f"N_max must be len(atoms) - 1 = {len(atoms) - 1}; got {n_max!r}"
                )
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
            # the family's thresholds are the atom names; gluing reuses it
            spec.model.family
        except SpecFileError:
            raise
        except _MALFORMED as exc:
            raise SpecFileError(_reason(exc), location="truncations") from exc

    return spec


def load_problem(path: str) -> ProblemSpec:
    # both the JSON decoder and parse_problem's walk recurse once per level
    # of nesting
    try:
        return parse_problem(_read_object(path))
    except RecursionError as exc:
        raise SpecFileError(
            "values nested deeper than the interpreter's recursion limit",
            location=path,
        ) from exc


def _read_object(path: str) -> dict:
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
    except ValueError as exc:  # an integer past Python's int/str digit limit
        raise SpecFileError(str(exc), location=path) from exc
    if not isinstance(data, dict):
        raise SpecFileError("top-level value must be an object", location=path)
    return data


def problem_to_dict(spec: ProblemSpec) -> dict:
    """The problem as the file gave it: measure rules stay rules, and
    re-parsing it yields the same problem."""
    return spec.raw
