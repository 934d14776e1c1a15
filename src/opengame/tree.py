"""Positions and position sets in the full k-ary game tree.

Symbols are canonical integers 0..k-1; display alphabets are a
serialization concern only.  A position is a plain tuple of symbols, the
empty tuple being the root.  Everything here is immutable after
construction and safe to share between threads.

A word set is validated once, where it enters: ``PositionSet`` rejects
negative symbols, ``GameInstance`` and ``PrefixCode`` symbols >= k, and
the antichain test is one sort and one pass over sorted neighbours.  A
set derived from a valid one, like ``normalize_even``'s output, is not
tested for the antichain property again.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count
from operator import ne
from typing import Iterable, Iterator

Position = tuple[int, ...]


def as_position(seq: Iterable[int]) -> Position:
    p = tuple(map(int, seq))
    if p and min(p) < 0:
        raise ValueError(f"negative symbol in position {p!r}")
    return p


def is_prefix(p: Position, q: Position) -> bool:
    """True iff p is an initial segment of q (equality counts)."""
    return len(p) <= len(q) and q[: len(p)] == p


def common_prefix_length(p: Position, q: Position) -> int:
    """Length of the longest common prefix of p and q, scanned in C."""
    return next(compress(count(), map(ne, p, q)), min(len(p), len(q)))


def hat(p: Position) -> Position:
    """The responder's moves: entries at even 1-based index, half the length."""
    return p[1::2]


class PositionSet:
    """Finite set of positions generating an open winning set.

    The package's one word-set type: ``codes.PrefixCode`` is this set with
    an alphabet size, and its prefix-free test is ``antichain``: in sorted
    order, the set is an antichain iff no element is a prefix of its
    successor.  The constructor rejects negative symbols.

    ``infinite_family`` declares that the listed positions are a truncation
    of an infinite family; all computations treat the listed positions as
    exact and apply closed-form tails only where a tail shape is recognized.
    """

    def __init__(self, positions: Iterable[Iterable[int]], infinite_family: bool = False):
        self.positions: frozenset[Position] = frozenset(as_position(p) for p in positions)
        self.infinite_family = bool(infinite_family)

    @cached_property
    def _sorted(self) -> tuple[Position, ...]:
        # the one sort; sorted_positions hands out a fresh list of it
        return tuple(sorted(self.positions))

    @cached_property
    def antichain(self) -> bool:
        """True iff no element is a proper prefix of another."""
        # If p is a proper prefix of q, every element sorted between them
        # also starts with p, so the one just after p does: comparing
        # neighbours suffices.
        elems = self._sorted
        return not any(q[: len(p)] == p for p, q in zip(elems, elems[1:]))

    @cached_property
    def trie(self) -> tuple[list[dict[int, int]], list[bool]]:
        """Integer trie of the set: child maps and terminal flags, nodes in preorder.

        In sorted order a word's longest common prefix with any earlier word
        is the one with its predecessor, so only the rest needs new nodes.
        """
        children: list[dict[int, int]] = [{}]
        terminal = [False]
        path, prev = [0], ()  # path[j]: the node of prev[:j]
        for word in self._sorted:
            j = common_prefix_length(prev, word)
            del path[j + 1 :]
            for symbol in word[j:]:
                children[path[-1]][symbol] = len(children)
                path.append(len(children))
                children.append({})
                terminal.append(False)
            terminal[path[-1]] = True
            prev = word
        return children, terminal

    def trie_words(self) -> list[Position]:
        """The word of each node of ``trie`` by node id: the sorted prefix closure.

        Built afresh on every call, so the cached trie holds no tuples.
        """
        words: list[Position] = [()]
        prev: Position = ()
        for word in self._sorted:
            j = common_prefix_length(prev, word)
            words.extend(word[:n] for n in range(j + 1, len(word) + 1))
            prev = word
        return words

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
        return list(self._sorted)

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
    antichain; the expansion preserves that property, and an
    even-normalized input is returned as it is.
    """
    if not zset.antichain:
        raise ValueError("normalize_even requires an antichain")
    if zset.even_normalized:
        return zset
    out: set[Position] = set()
    for p in zset:
        if len(p) % 2 == 0:
            out.add(p)
        else:
            out.update(p + (a,) for a in range(k))
    return PositionSet(out, zset.infinite_family)
