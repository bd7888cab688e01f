"""Structured run reports: one fact base, two renderings (JSON and text).

A report is a tree of dicts, lists and tuples whose leaves are library
objects and plain scalars.  ``_RULES`` gives each type, looked up by
``type(obj)``, its one conversion rule and the shape of what it converts to:

- ``None``, bools, ints and strings stay as they are;
- ``ExtReal`` and ``Fraction`` become "p/q" strings, infinity "inf";
- a ``MeasurableSet`` becomes the list of its atom names, in space order;
- a ``MeasurableSpace`` becomes {"atoms": [...]}, a ``SimpleFunction`` its
  atom -> value map, a dataclass its fields and a dict its items under
  ``str`` keys (when two keys collide after ``str``, the last value wins);
- a float raises ``TypeError``, since no report may hold one, and any other
  type becomes ``str(obj)``.

A type without an entry of its own (a subclass, a dataclass) takes the rule
of the first entry it subclasses, in the order above, dataclasses coming
before dicts, lists and tuples; each render looks a type up once.

Both renderings walk the report once through this table, converting one
level at a time, and build no converted copy of it.  ``render_json`` writes
exactly the text of ``json.dumps(tree, sort_keys=True, indent=2) + "\\n"``
for the converted tree: strings are escaped to ASCII by the ``json``
module's own encoder, and each list or sorted mapping is joined at its
indentation level.  A report can hold one ``MeasurableSet`` object in many
places (a detail record per set and band pair), so ``render_json`` converts
each set object once per indentation and reuses the text.

A dataclass renders through one ``%`` template per class and indentation,
its keys written out in sorted order, filled with its fields read by one
``attrgetter``; each field goes through the leaf encoders or the walk (a set
through the memo above).  ``check-decomposition`` writes thousands of
``PairRecord``s, so this is most of its render.  No leaf's text is memoised:
a memo of every leaf field's text by id raised the ``certify`` benchmark's
peak RSS from 35.0 to 38.6 MB (+10%, past its 5% bound) to save a tenth of
the render.

``render_text`` prints one ``path: value`` line per leaf and one
``path: [a, b]`` line per list of leaves, in sorted key order.
Exact values can exceed Python's int/str conversion limit, so both lift it
for the whole walk.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .extreal import ExtReal
from .functions import SimpleFunction
from .spaces import MeasurableSet, MeasurableSpace

# shapes of converted values; LIST, DICT and FIELDS hold unconverted children
NULL, BOOL, INT, STR, LIST, DICT, FIELDS = range(7)


def _no_floats(value):
    raise TypeError("floats must never appear in reports")


def _atom_names(A: MeasurableSet) -> list:
    return [str(n) for n in A.atom_names()]


def _space(space: MeasurableSpace) -> list:
    return [("atoms", [str(n) for n in space.atoms])]


def _function(f: SimpleFunction) -> list:
    return sorted({str(a): str(f(a)) for a in f.space.atoms}.items())


def _items(d: dict) -> list:
    return sorted({str(k): v for k, v in d.items()}.items())


@cache
def _field_names(cls) -> tuple:
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _fields(cls):
    """The tuple of a dataclass's field values, in ``_field_names`` order."""
    names = _field_names(cls)
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


# type -> (shape, conversion or None for "as it is"), in precedence order; a
# DICT conversion gives the (key, child) pairs in sorted key order, a
# dataclass (FIELDS) its field values by _fields
_RULES = {
    type(None): (NULL, None),
    bool: (BOOL, None),
    int: (INT, None),
    str: (STR, None),
    float: (STR, _no_floats),
    ExtReal: (STR, str),
    Fraction: (STR, str),
    MeasurableSet: (LIST, _atom_names),
    MeasurableSpace: (DICT, _space),
    SimpleFunction: (DICT, _function),
    dict: (DICT, _items),
    list: (LIST, None),
    tuple: (LIST, None),
}


def _rule(cls):
    """The rule of a type: its own entry, else that of the first entry it
    subclasses, dataclasses coming before dicts, lists and tuples."""
    rule = _RULES.get(cls)
    if rule is not None:
        return rule
    for base, rule in _RULES.items():
        if base is dict and dataclasses.is_dataclass(cls):
            return FIELDS, _fields(cls)
        if issubclass(cls, base):
            return rule
    return STR, str


class _Lookup(dict):
    """key -> ``make(key)``, made once per key (a type, or a class and an
    indentation); one per render."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        found = self[key] = self.make(key)
        return found


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


# JSON text of a converted leaf, by shape
_JSON_LEAVES = (
    lambda value: "null",
    lambda value: "true" if value else "false",
    int.__repr__,
    encode_basestring_ascii,
)


def _json_leaf(rule):
    """The JSON text of a leaf type's objects, or None for a container."""
    shape, convert = rule
    if shape >= LIST:
        return None
    encode = _JSON_LEAVES[shape]
    return encode if convert is None else lambda obj: encode(convert(obj))


def _template(key):
    """The JSON text of a dataclass with fields at an indentation, one ``%s``
    per field in ``_field_names`` order; key is (class, indentation)."""
    cls, indent = key
    inner = indent + "  "
    return "{" + inner + ("," + inner).join(
        encode_basestring_ascii(name) + ": %s" for name in _field_names(cls)
    ) + indent + "}"


def render_json(report: dict) -> str:
    rules = _Lookup(_rule)
    leaves = _Lookup(lambda cls: _json_leaf(rules[cls]))
    templates = _Lookup(_template)
    # (id, indentation) -> (set, text); the entry holds the set, so its id
    # cannot pass to another object while the walk runs
    sets: dict = {}

    def walk(obj, indent):
        encode = leaves[type(obj)]
        if encode is not None:
            return encode(obj)
        if type(obj) is not MeasurableSet:
            return container(obj, indent)
        entry = sets.get((id(obj), indent))
        if entry is None:
            entry = sets[id(obj), indent] = obj, container(obj, indent)
        return entry[1]

    def container(obj, indent):
        shape, convert = rules[type(obj)]
        value = obj if convert is None else convert(obj)
        if not value:
            return "[]" if shape == LIST else "{}"
        inner = indent + "  "
        if shape == DICT:
            parts = [encode_basestring_ascii(k) + ": " + (
                         walk(v, inner) if (encode := leaves[type(v)]) is None
                         else encode(v)) for k, v in value]
            return "{" + inner + ("," + inner).join(parts) + indent + "}"
        parts = [walk(v, inner) if (encode := leaves[type(v)]) is None
                 else encode(v) for v in value]
        if shape == FIELDS:
            return templates[type(obj), indent] % tuple(parts)
        return "[" + inner + ("," + inner).join(parts) + indent + "]"

    with _all_digits():
        return walk(report, "\n") + "\n"


def render_text(report: dict) -> str:
    """Flat, aligned text view carrying exactly the JSON facts."""
    rules = _Lookup(_rule)
    out: list = []

    def walk(obj, prefix):
        shape, convert = rules[type(obj)]
        value = obj if convert is None else convert(obj)
        if shape == FIELDS:
            shape, value = DICT, zip(_field_names(type(obj)), value)
        if shape == DICT:
            for key, v in value:
                walk(v, f"{prefix}{key}.")
        elif shape == LIST and any(rules[type(v)][0] >= LIST for v in value):
            for i, v in enumerate(value):
                walk(v, f"{prefix}{i}.")
        elif shape == LIST:
            out.append(f"{prefix[:-1]}: [{', '.join(map(leaf, value))}]")
        else:
            out.append(f"{prefix[:-1]}: {value}")

    def leaf(obj):
        convert = rules[type(obj)][1]
        return str(obj if convert is None else convert(obj))

    with _all_digits():
        walk(report, "")
    return "\n".join(out) + "\n"
