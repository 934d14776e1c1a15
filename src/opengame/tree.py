"""Positions and position sets in the full k-ary game tree.

Symbols are canonical integers 0..k-1; display alphabets are a
serialization concern only.  A position is a plain tuple of symbols, the
empty tuple being the root.  Everything here is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

Position = tuple[int, ...]


def as_position(seq: Iterable[int]) -> Position:
    p = tuple(int(a) for a in seq)
    if any(a < 0 for a in p):
        raise ValueError(f"negative symbol in position {p!r}")
    return p


def is_prefix(p: Position, q: Position) -> bool:
    """True iff p is an initial segment of q (equality counts)."""
    return len(p) <= len(q) and q[: len(p)] == p


def is_proper_prefix(p: Position, q: Position) -> bool:
    return len(p) < len(q) and q[: len(p)] == p


def hat(p: Position) -> Position:
    """The responder's moves: entries at even 1-based index, half the length."""
    return p[1::2]


class PositionSet:
    """Finite set of positions generating an open winning set.

    The package's one word-set type: ``codes.PrefixCode`` is this set with
    an alphabet size, and its prefix-free test is ``antichain``.

    ``infinite_family`` declares that the listed positions are a truncation
    of an infinite family; all computations treat the listed positions as
    exact and apply closed-form tails only where a tail shape is recognized.
    """

    def __init__(self, positions: Iterable[Iterable[int]], infinite_family: bool = False):
        self.positions: frozenset[Position] = frozenset(as_position(p) for p in positions)
        self.infinite_family = bool(infinite_family)

    @cached_property
    def antichain(self) -> bool:
        """True iff no element is a proper prefix of another."""
        elems = self.positions
        for p in elems:
            for j in range(len(p)):
                if p[:j] in elems:
                    return False
        return True

    @cached_property
    def even_normalized(self) -> bool:
        return all(len(p) % 2 == 0 for p in self.positions)

    @property
    def max_length(self) -> int:
        return max((len(p) for p in self.positions), default=0)

    @property
    def min_length(self) -> int:
        return min((len(p) for p in self.positions), default=0)

    def sorted_positions(self) -> list[Position]:
        return sorted(self.positions)

    def __iter__(self) -> Iterator[Position]:
        return iter(self.positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, p: object) -> bool:
        return p in self.positions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PositionSet):
            return NotImplemented
        return (self.positions, self.infinite_family) == (other.positions, other.infinite_family)

    def __hash__(self) -> int:
        return hash((self.positions, self.infinite_family))

    def __repr__(self) -> str:
        flag = ", infinite_family=True" if self.infinite_family else ""
        return f"{type(self).__name__}({self.sorted_positions()!r}{flag})"


def normalize_even(zset: PositionSet, k: int) -> PositionSet:
    """Replace each odd-length position by its k one-symbol extensions.

    The boundary set is unchanged: a long position extends an element of
    the input iff it extends an element of the output.  Requires an
    antichain; the expansion preserves that property.
    """
    if not zset.antichain:
        raise ValueError("normalize_even requires an antichain")
    out: set[Position] = set()
    for p in zset:
        if len(p) % 2 == 0:
            out.add(p)
        else:
            out.update(p + (a,) for a in range(k))
    result = PositionSet(out, zset.infinite_family)
    if not result.antichain:  # cannot happen for antichain input
        raise AssertionError("even normalization broke the antichain property")
    return result


def concat_prefix_member(zset: PositionSet, w: Iterable[int]) -> bool:
    """Decide whether w is a prefix of an infinite concatenation of elements.

    Dynamic programming over decompositions w = p1 ... pj r with each pi in
    the set and r a prefix of some element.  Requires an even-normalized
    antichain.  Length-0 elements contribute nothing to concatenations and
    are ignored.
    """
    if not zset.even_normalized:
        raise ValueError("concat_prefix_member requires an even-normalized set")
    if not zset.antichain:
        raise ValueError("concat_prefix_member requires an antichain")
    word = as_position(w)
    blocks = [z for z in zset.positions if z]
    if not blocks:
        return False
    n = len(word)
    reach = [False] * (n + 1)
    reach[0] = True
    for i in range(n + 1):
        if not reach[i]:
            continue
        rest = word[i:]
        for z in blocks:
            if is_prefix(rest, z):
                return True
            if is_prefix(z, rest):
                reach[i + len(z)] = True
    return False
