"""Structured run reports: one fact base, two renderings (JSON and text)."""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .extreal import ExtReal
from .functions import SimpleFunction
from .spaces import MeasurableSet, MeasurableSpace


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


@contextmanager
def _all_digits():
    """Lifts Python's limit on int/str conversion (3.10.7 on), which exact
    values can exceed, and restores it afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def render_json(report: dict) -> str:
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


def render_text(report: dict) -> str:
    """Flat, aligned text view carrying exactly the JSON facts."""
    lines: list = []
    with _all_digits():
        _text_lines(jsonable(report), "", lines)
    return "\n".join(lines) + "\n"
