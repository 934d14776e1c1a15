"""Checks made apart from opengame: they import nothing from it.

Every function here works on plain tuples, dicts and integers, so that a
fault in the program cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- games --------------------------------------------------------------------


def normalize(k: int, positions) -> set[tuple[int, ...]]:
    """Replace each odd-length position by its k one-symbol extensions."""
    out: set[tuple[int, ...]] = set()
    for p in positions:
        p = tuple(p)
        if len(p) % 2:
            out.update(p + (a,) for a in range(k))
        else:
            out.add(p)
    return out


def half_sum(k: int, positions) -> Fraction:
    """Sum of k^(-len/2) over even-length positions, on one common denominator."""
    positions = list(positions)
    if not positions:
        return Fraction(0)
    top = max(len(p) // 2 for p in positions)
    return Fraction(sum(k ** (top - len(p) // 2) for p in positions), k**top)


def mover_wins(k: int, positions) -> bool:
    """Winner by induction over the trie of prefixes of the normalized set.

    A node off the trie cannot reach Z, so it is a responder win; that keeps
    the work to the trie instead of the full k-ary tree.
    """
    zset = normalize(k, positions)
    trie = {p[:j] for p in zset for j in range(len(p) + 1)}
    value: dict[tuple[int, ...], bool] = {}
    for p in sorted(trie, key=len, reverse=True):
        if p in zset:
            value[p] = True
            continue
        children = [value.get(p + (a,), False) for a in range(k)]
        value[p] = any(children) if len(p) % 2 == 0 else all(children)
    return value.get((), False)


def strategy_wins(k: int, positions, depth: int, player: int, table: dict) -> bool:
    """Play a strategy table against every reply of the other player.

    The mover (player 1) wins a play on reaching an element of Z; the
    responder (player 2) wins a play that reaches ``depth`` without one.
    A node the table does not cover, or a symbol out of range, loses.
    """
    zset = normalize(k, positions)
    stack: list[tuple[int, ...]] = [()]
    while stack:
        p = stack.pop()
        if len(p) % 2 == 0 and p in zset:
            if player == 2:
                return False
            continue
        if len(p) >= depth:
            if player == 1:
                return False
            continue
        own_turn = (len(p) % 2 == 0) == (player == 1)
        if own_turn:
            a = table.get(p)
            if not isinstance(a, int) or not 0 <= a < k:
                return False
            stack.append(p + (a,))
        else:
            stack.extend(p + (a,) for a in range(k))
    return True


# -- codes and measures ------------------------------------------------------------


def code_kraft(k: int, words) -> Fraction:
    """Kraft sum of a code, as one integer over k^(longest length)."""
    words = list(words)
    if not words:
        return Fraction(0)
    top = max(len(w) for w in words)
    return Fraction(sum(k ** (top - len(w)) for w in words), k**top)


def product_sum(words, weights: dict[int, Fraction]) -> Fraction:
    """Sum over the words of the product of their symbols' weights."""
    total = Fraction(0)
    for w in words:
        term = Fraction(1)
        for symbol in w:
            term *= weights[symbol]
        total += term
    return total


def geometric_weight(symbol: int) -> Fraction:
    return Fraction(1, 2**symbol)


def within_sigmas(empirical: float, exact: Fraction, trials: int, sigmas: float) -> bool:
    p = float(exact)
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return abs(empirical - p) <= sigmas * sigma


# -- free groups ------------------------------------------------------------------


def reduce(word) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for gen, sign in word:
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def inverse(word) -> tuple[tuple[int, int], ...]:
    return tuple((gen, -sign) for gen, sign in reversed(word))


def act(perms: list[list[int]], point: int, word) -> int:
    """Right action of a word on a point: generator g maps v to perms[g][v]."""
    inverses = [{image: v for v, image in enumerate(p)} for p in perms]
    for gen, sign in word:
        point = perms[gen][point] if sign == 1 else inverses[gen][point]
    return point


def orbit_size(perms: list[list[int]], point: int) -> int:
    seen = {point}
    queue = deque([point])
    while queue:
        v = queue.popleft()
        for p in perms:
            for w in (p[v], p.index(v)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return len(seen)


def closed_walk(edges, basepoint: int, word) -> bool:
    """Whether the word reads as a closed loop at the basepoint of a labeled graph.

    ``edges`` are (tail, head, label) triples; a letter (g, +1) follows an
    edge labeled g forwards, (g, -1) backwards.
    """
    forward: dict[tuple[int, int], int] = {}
    backward: dict[tuple[int, int], int] = {}
    for u, v, label in edges:
        forward[(u, label)] = v
        backward[(v, label)] = u
    v = basepoint
    for gen, sign in word:
        step = forward if sign == 1 else backward
        if (v, gen) not in step:
            return False
        v = step[(v, gen)]
    return v == basepoint


def random_transitive_perms(rng, k: int, n: int) -> list[list[int]]:
    """k random permutations of n points whose generated group is transitive."""
    while True:
        perms = []
        for _ in range(k):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(p)
        if orbit_size(perms, 0) == n:
            return perms


def schreier_generators(perms: list[list[int]]) -> list[tuple[tuple[int, int], ...]]:
    """Schreier generators of the stabilizer of point 0.

    A breadth-first spanning tree gives each point v a transversal word
    t(v) with 0·t(v) = v; every edge v -g-> v·g off the tree gives the
    generator t(v) g t(v·g)^-1.  There are n(k-1)+1 of them, and they
    generate a subgroup of index n and that rank.
    """
    n = len(perms[0])
    inverses = [{image: v for v, image in enumerate(p)} for p in perms]
    transversal: dict[int, tuple[tuple[int, int], ...]] = {0: ()}
    tree_edges: set[tuple[int, int]] = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for gen in range(len(perms)):
            w = perms[gen][v]
            if w not in transversal:
                transversal[w] = transversal[v] + ((gen, 1),)
                tree_edges.add((v, gen))
                queue.append(w)
            u = inverses[gen][v]
            if u not in transversal:
                transversal[u] = transversal[v] + ((gen, -1),)
                tree_edges.add((u, gen))
                queue.append(u)
    gens = []
    for v in range(n):
        for gen in range(len(perms)):
            if (v, gen) in tree_edges:
                continue
            w = perms[gen][v]
            gens.append(reduce(transversal[v] + ((gen, 1),) + inverse(transversal[w])))
    return gens
