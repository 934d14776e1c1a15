"""Reduced words, graph folding, and subgroup indices in free groups.

A subgroup given by generator words is represented by its folded core
graph: start from the bouquet (one cycle per generator through the
basepoint), merge same-label edges that share a vertex and direction
until the graph is deterministic, then trim hanging hairs.  The subgroup
has finite index exactly when every vertex carries a full set of labels
in both directions, and then the index is the vertex count.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .tree import PositionSet, hat

Letter = tuple[int, int]  # (generator index, +1 or -1)
GroupWord = tuple[Letter, ...]


def reduce_word(letters: Iterable[Letter]) -> GroupWord:
    """Free reduction: cancel adjacent inverse pairs; idempotent."""
    stack: list[Letter] = []
    for gen, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def word_from_position(p: Sequence[int]) -> GroupWord:
    """Read a position as a positive word: symbol i becomes generator i."""
    return tuple((a, 1) for a in p)


def parse_word(text: str) -> GroupWord:
    """Parse 'a'..'z' as generators 0..25, uppercase as their inverses."""
    letters: list[Letter] = []
    for ch in text:
        if "a" <= ch <= "z":
            letters.append((ord(ch) - ord("a"), 1))
        elif "A" <= ch <= "Z":
            letters.append((ord(ch) - ord("A"), -1))
        else:
            raise ValueError(f"invalid character {ch!r} in group word {text!r}")
    return reduce_word(letters)


def word_to_str(word: Iterable[Letter]) -> str:
    out = []
    for gen, sign in word:
        if gen >= 26:
            raise ValueError("string form only supports generators a..z")
        ch = chr(ord("a") + gen)
        out.append(ch if sign == 1 else ch.upper())
    return "".join(out)


class UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def add(self, v: int) -> None:
        self.parent.setdefault(v, v)

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra


class LabeledGraph:
    """Folded basepointed graph: at most one edge per label per direction per vertex."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int, int]], basepoint: int):
        self.vertices = frozenset(vertices)
        self.edges = frozenset(edges)
        self.basepoint = basepoint
        if basepoint not in self.vertices:
            raise ValueError("basepoint must be a vertex")
        self._out: dict[tuple[int, int], int] = {}
        self._in: dict[tuple[int, int], int] = {}
        labels = set()
        for u, v, label in self.edges:
            if (u, label) in self._out or (v, label) in self._in:
                raise ValueError("graph is not deterministic")
            self._out[(u, label)] = v
            self._in[(v, label)] = u
            labels.add(label)
        self.labels = frozenset(labels)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def rank(self) -> int:
        """Cycle rank |E| - |V| + 1: the rank of the subgroup the graph carries."""
        return self.edge_count - self.vertex_count + 1

    def out_vertex(self, v: int, label: int) -> int | None:
        return self._out.get((v, label))

    def in_vertex(self, v: int, label: int) -> int | None:
        return self._in.get((v, label))

    def is_complete(self, k: int) -> bool:
        """Every vertex has an outgoing and an incoming edge for all k labels."""
        return all(
            (v, label) in self._out and (v, label) in self._in
            for v in self.vertices
            for label in range(k)
        )

    def canonical_form(self) -> tuple:
        """Canonical relabeling by search from the basepoint.

        Deterministic folded graphs admit a unique breadth-first numbering
        when neighbors are visited in (label, direction) order, so equal
        canonical forms mean isomorphic basepointed labeled graphs.
        """
        order = sorted(self.labels)
        numbering = {self.basepoint: 0}
        queue = deque([self.basepoint])
        while queue:
            v = queue.popleft()
            for label in order:
                for w in (self.out_vertex(v, label), self.in_vertex(v, label)):
                    if w is not None and w not in numbering:
                        numbering[w] = len(numbering)
                        queue.append(w)
        if len(numbering) != self.vertex_count:
            raise AssertionError("folded graph is not connected to the basepoint")
        edges = sorted((numbering[u], numbering[v], label) for u, v, label in self.edges)
        return (self.vertex_count, tuple(edges))

    def to_json_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "basepoint": self.basepoint,
            "edges": sorted([u, v, label] for u, v, label in self.edges),
        }

    def to_dot(self) -> str:
        """DOT source; labels read a..z, then g<n>."""
        lines = ["digraph core {"]
        for v in sorted(self.vertices):
            shape = "doublecircle" if v == self.basepoint else "circle"
            lines.append(f'  v{v} [shape={shape}, label="{v}"];')
        for u, v, label in sorted(self.edges):
            name = chr(ord("a") + label) if label < 26 else f"g{label}"
            lines.append(f'  v{u} -> v{v} [label="{name}"];')
        lines.append("}")
        return "\n".join(lines)


def fold(
    generators: Iterable[Iterable[Letter]], order_rng: random.Random | None = None
) -> LabeledGraph:
    """Fold the bouquet of the generator words into the core graph.

    The fold schedule (which clash is merged first) may be randomized via
    ``order_rng``; the result is the same graph up to basepointed labeled
    isomorphism regardless of the order.  Hanging hairs (degree-1
    non-basepoint vertices, left by words that are not cyclically reduced)
    are trimmed at the end.
    """
    base = 0
    next_vertex = 1
    edges: set[tuple[int, int, int]] = set()
    for word in generators:
        reduced = reduce_word(word)
        if not reduced:
            continue
        current = base
        for i, (gen, sign) in enumerate(reduced):
            target = base if i == len(reduced) - 1 else next_vertex
            if target == next_vertex:
                next_vertex += 1
            if sign == 1:
                edges.add((current, target, gen))
            else:
                edges.add((target, current, gen))
            current = target

    uf = UnionFind()
    for v in range(next_vertex):
        uf.add(v)

    while True:
        canonical = {(uf.find(u), uf.find(v), label) for u, v, label in edges}
        by_out: dict[tuple[int, int], set[int]] = {}
        by_in: dict[tuple[int, int], set[int]] = {}
        for u, v, label in canonical:
            by_out.setdefault((u, label), set()).add(v)
            by_in.setdefault((v, label), set()).add(u)
        clashes = [vs for vs in by_out.values() if len(vs) > 1]
        clashes += [us for us in by_in.values() if len(us) > 1]
        if not clashes:
            edges = canonical
            break
        clashes = [tuple(sorted(c)) for c in clashes]
        clashes.sort()
        pick = order_rng.choice(clashes) if order_rng is not None else clashes[0]
        if order_rng is not None:
            a, b = order_rng.sample(pick, 2)
        else:
            a, b = pick[0], pick[1]
        uf.union(a, b)

    base = uf.find(base)
    vertices = {uf.find(v) for v in range(next_vertex)} if next_vertex else {base}
    vertices.add(base)

    # hair trimming: repeatedly drop non-basepoint vertices with one incident edge end
    while True:
        degree: dict[int, int] = {v: 0 for v in vertices}
        for u, v, _ in edges:
            degree[u] += 1
            degree[v] += 1
        hairs = [v for v in vertices if v != base and degree[v] <= 1]
        if not hairs:
            break
        vertices -= set(hairs)
        edges = {e for e in edges if e[0] not in hairs and e[1] not in hairs}

    renumber = {v: i for i, v in enumerate(sorted(vertices, key=lambda v: (v != base, v)))}
    return LabeledGraph(
        renumber.values(),
        ((renumber[u], renumber[v], label) for u, v, label in edges),
        renumber[base],
    )


@dataclass
class IndexResult:
    """Subgroup index (None means infinite), the core graph, and its rank."""

    value: int | None
    graph: LabeledGraph
    rank: int

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def to_json_dict(self) -> dict:
        return {
            "index": self.value if self.value is not None else "infinite",
            "rank": self.rank,
            "core_vertices": self.graph.vertex_count,
            "core_edges": self.graph.edge_count,
        }


def subgroup_index(generators: Iterable[Iterable[Letter]], k: int) -> IndexResult:
    """Index of the subgroup generated by the words in the rank-k free group.

    Finite exactly when the folded core is complete for all k labels, and
    then equal to the core's vertex count; the rank must then match the
    index formula rank = index*(k-1) + 1.
    """
    words = [reduce_word(w) for w in generators]
    for word in words:
        for gen, _ in word:
            if gen >= k:
                raise ValueError(f"generator {gen} outside the rank-{k} free group")
    graph = fold(words)
    value = graph.vertex_count if graph.is_complete(k) else None
    rank = graph.rank
    if value is not None and rank != value * (k - 1) + 1:
        raise AssertionError(
            f"rank {rank} violates the index formula for index {value}, k={k}"
        )
    return IndexResult(value, graph, rank)


def membership(word: Iterable[Letter], generators: Iterable[Iterable[Letter]]) -> bool:
    """Whether the reduced word lies in the subgroup the generators span.

    The word's walk must exist edge by edge in the folded core and return
    to the basepoint.
    """
    graph = fold(generators)
    v: int | None = graph.basepoint
    for gen, sign in reduce_word(word):
        assert v is not None
        v = graph.out_vertex(v, gen) if sign == 1 else graph.in_vertex(v, gen)
        if v is None:
            return False
    return v == graph.basepoint


def hat_index(Z: PositionSet, k: int) -> IndexResult:
    """Index of the subgroup generated by the responder-move words of the set.

    Each position contributes its responder subsequence read as a positive
    word; empty words (positions of length < 2) generate nothing and are
    dropped.  An infinite index certifies a responder win.
    """
    gens = [word_from_position(hat(p)) for p in Z if len(p) >= 2]
    return subgroup_index(gens, k)
