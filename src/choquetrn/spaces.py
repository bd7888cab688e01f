"""Finite measurable spaces and their sets.

A space is a finite, ordered universe of named points together with a
sigma-algebra.  On a finite universe every sigma-algebra is generated by a
partition; the partition blocks are the algebra atoms, and measurable sets are
exactly the unions of blocks.  The default algebra is the power set (singleton
blocks).

Sets are stored as bit masks over point indices, which keeps subset tests,
unions and complements cheap and gives a fixed canonical enumeration order:
by block selector s, whose bits i pick ``blocks[i]``.  Tables in that order
(set masks, rule tables) are filled by the one recurrence ``lowest_bit_fill``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InvalidFamilyError, SpaceMismatchError


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def lowest_bit_fill(weights: Sequence, combine: Callable, start) -> list:
    """Entry 0 is ``start``; entry s is ``combine(entry[s ^ (1 << i)],
    weights[i])`` for the lowest bit i of s.  Built from the last weight
    back, one slice per weight: the table over ``weights[i:]`` is the one
    over ``weights[i + 1:]`` at its even entries, each combined with
    ``weights[i]`` at the odd ones."""
    table = [start]
    for weight in reversed(weights):
        grown = [start] * (2 * len(table))
        grown[::2] = table
        grown[1::2] = map(combine, table, repeat(weight))
        table = grown
    return table


def selector_masks(blocks: Sequence[int]) -> list:
    """The point mask of every block selector s: the union of the blocks it picks."""
    return lowest_bit_fill(blocks, or_, 0)


class _UnknownAtom(KeyError):
    """A failed atom lookup, printed as its message, not the message's repr."""
    __str__ = Exception.__str__


def _names(value, what: str = "atom names") -> tuple:
    # a string is a sequence of characters and an object a collection of
    # keys, never a list
    if isinstance(value, (str, dict)):
        kind = "string" if isinstance(value, str) else "object"
        raise TypeError(f"expected a list of {what}, got the {kind} {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class MeasurableSpace:
    """A finite universe with a partition-generated sigma-algebra."""

    atoms: tuple  # point names, fixed order
    blocks: tuple  # algebra atoms as bit masks, disjoint and covering

    @property
    def full_mask(self) -> int:
        return (1 << len(self.atoms)) - 1

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_power_set(self) -> bool:
        return len(self.blocks) == len(self.atoms)

    def index_of(self, atom) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise _UnknownAtom(f"unknown atom {atom!r}") from None

    def block_index_of(self, atom) -> int:
        bit = 1 << self.index_of(atom)
        for i, block in enumerate(self.blocks):
            if block & bit:
                return i
        raise AssertionError("partition does not cover the universe")

    # -- set construction ---------------------------------------------------

    def set_from_mask(self, mask: int) -> "MeasurableSet":
        if mask & ~self.full_mask:
            raise ValueError("mask uses bits outside the universe")
        self._require_measurable(mask)
        return MeasurableSet(self, mask)

    def _require_measurable(self, mask: int) -> None:
        for block in self.blocks:
            inter = mask & block
            if inter and inter != block:
                raise InvalidFamilyError(
                    "set is not measurable: it splits an algebra atom"
                )

    @cached_property
    def _bits(self) -> dict:
        return {name: 1 << i for i, name in enumerate(self.atoms)}

    def mask_of(self, atom_names: Iterable) -> int:
        """The mask of the measurable set with these atoms, read through one
        name -> bit dict per space; the split-block check runs only on a
        partition algebra."""
        mask = 0
        for name in _names(atom_names):
            try:
                mask |= self._bits[name]
            except (KeyError, TypeError):  # unknown or unhashable: its error
                mask |= 1 << self.index_of(name)
        if not self.is_power_set:
            self._require_measurable(mask)
        return mask

    def make_set(self, atom_names: Iterable) -> "MeasurableSet":
        return MeasurableSet(self, self.mask_of(atom_names))

    @property
    def empty_set(self) -> "MeasurableSet":
        return MeasurableSet(self, 0)

    @property
    def full_set(self) -> "MeasurableSet":
        return MeasurableSet(self, self.full_mask)

    def block_set(self, block_index: int) -> "MeasurableSet":
        return MeasurableSet(self, self.blocks[block_index])

    # -- enumeration --------------------------------------------------------

    def subsets(self) -> Iterator["MeasurableSet"]:
        """All measurable sets in canonical order (block-subset counting)."""
        for mask in selector_masks(self.blocks):
            yield MeasurableSet(self, mask)

    def n_subsets(self) -> int:
        return 1 << self.n_blocks


@dataclass(frozen=True)
class MeasurableSet:
    """A measurable set, canonically a union of algebra atoms."""

    space: MeasurableSpace
    mask: int

    def _check(self, other: "MeasurableSet") -> None:
        if self.space != other.space:
            raise SpaceMismatchError("sets live on different spaces")

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == self.space.full_mask

    def __len__(self):
        return _popcount(self.mask)

    def __contains__(self, atom) -> bool:
        return bool(self.mask & (1 << self.space.index_of(atom)))

    def __and__(self, other):
        self._check(other)
        return MeasurableSet(self.space, self.mask & other.mask)

    def __or__(self, other):
        self._check(other)
        return MeasurableSet(self.space, self.mask | other.mask)

    def __sub__(self, other):
        self._check(other)
        return MeasurableSet(self.space, self.mask & ~other.mask)

    def complement(self) -> "MeasurableSet":
        return MeasurableSet(self.space, self.space.full_mask & ~self.mask)

    def issubset(self, other: "MeasurableSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def atom_names(self) -> tuple:
        return tuple(
            name for i, name in enumerate(self.space.atoms) if self.mask & (1 << i)
        )

    def __str__(self):
        return "{" + ",".join(str(n) for n in self.atom_names()) + "}"


def build_space(
    atom_names: Sequence,
    partition: Optional[Sequence[Sequence]] = None,
) -> MeasurableSpace:
    """Create a finite measurable space.

    Without a partition the algebra is the power set.  With a partition the
    algebra is generated by its blocks, which must be nonempty, disjoint and
    cover the universe.
    """
    names = _names(atom_names)
    if not names:
        raise ValueError("a space needs at least one atom")
    if len(set(names)) != len(names):
        raise ValueError("atom names must be distinct")
    index = {name: i for i, name in enumerate(names)}

    if partition is None:
        blocks = tuple(1 << i for i in range(len(names)))
    else:
        masks = []
        seen = 0
        for block in _names(partition, "blocks"):
            mask = 0
            for name in _names(block):
                if name not in index:
                    raise ValueError(f"partition mentions unknown atom {name!r}")
                mask |= 1 << index[name]
            if mask == 0:
                raise ValueError("partition blocks must be nonempty")
            if mask & seen:
                raise ValueError("partition blocks must be disjoint")
            seen |= mask
            masks.append(mask)
        if seen != (1 << len(names)) - 1:
            raise ValueError("partition blocks must cover the universe")
        masks.sort(key=lambda m: (m & -m))  # order by lowest atom index
        blocks = tuple(masks)

    return MeasurableSpace(atoms=names, blocks=blocks)
