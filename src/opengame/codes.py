"""Prefix codes, maximality, and the two-move block encoding.

A code is a finite set of words over symbols 0..k-1.  Maximality is
decided by two independent routes that must agree: the exact Kraft sum
and tree completeness.  The block encoding collapses each (mover,
responder) pair of a position into one symbol via a mixer on the play
history (``HistoryMixer``); a per-stage mixing vector (``XVector``) is
the special case that reads only the stage and the mover's last symbol,
and enters the encoding through ``XVector.as_mixer``.  Positions
consistent with different mover strategies collapse to equal words,
which is what breaks maximality of the image.  Over history mixers the
mover wins a minimal-size game iff every image is a maximal prefix code;
over per-stage vectors only the forward direction holds.  Both questions
are decided pair by pair (``equivalence_check``); enumerating every
history mixer (``history_equivalence_check``) is the reference.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable

from .criteria import uniform_weight, word_sum
from .solver import BudgetExceededError, GameInstance, Strategy, solve
from .tree import Position, PositionSet, common_prefix_length, hat, is_prefix

ENUMERATION_BUDGET = 1 << 20


class PrefixCode(PositionSet):
    """Finite word set over symbols 0..alphabet_size-1; prefix-free when ``antichain`` holds."""

    def __init__(self, words: Iterable[Iterable[int]], alphabet_size: int):
        super().__init__(words)
        if alphabet_size < 2:
            raise ValueError("alphabet size must be at least 2")
        for w in self.positions:
            if w and max(w) >= alphabet_size:
                raise ValueError(f"symbol out of range in {w!r}")
        self.alphabet_size = alphabet_size

    @classmethod
    def of(cls, words: Iterable[Iterable[int]], alphabet_size: int) -> "PrefixCode":
        return cls(words, alphabet_size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixCode):
            return NotImplemented
        return (self.positions, self.alphabet_size) == (other.positions, other.alphabet_size)

    def __hash__(self) -> int:
        return hash((self.positions, self.alphabet_size))


def is_prefix_code(code: PrefixCode) -> bool:
    """True iff no word is a proper prefix of another word (cached on the code)."""
    return code.antichain


def is_bifix_code(code: PrefixCode) -> bool:
    """Prefix-free and suffix-free."""
    return is_prefix_code(code) and not any(
        w[j:] in code.positions for w in code.positions for j in range(1, len(w) + 1)
    )


def _maximal_by_kraft(code: PrefixCode) -> bool:
    return word_sum(code, uniform_weight(code.alphabet_size)) == 1


def _maximal_by_completeness(code: PrefixCode) -> bool:
    # a child missing below a node that ends no codeword (the root of the
    # empty code too) is a word that could be added to the code
    children, terminal = code.trie
    return all(end or len(ch) == code.alphabet_size for ch, end in zip(children, terminal))


def is_maximal(code: PrefixCode) -> bool:
    """Maximality of a prefix code, decided by two independent routes.

    Route (a): the exact Kraft sum equals 1.  Route (b): on the code's trie
    every node that ends no codeword has all k children, which makes the
    empty code non-maximal and {()} maximal.  Both run on every call;
    disagreement is an internal failure, not a result.
    """
    if not is_prefix_code(code):
        raise ValueError("is_maximal requires a prefix code")
    by_kraft = _maximal_by_kraft(code)
    by_tree = _maximal_by_completeness(code)
    if by_kraft != by_tree:
        raise AssertionError(
            f"maximality routes disagree: kraft={by_kraft} completeness={by_tree}"
        )
    return by_kraft


class XVector:
    """Per-stage symbol mixers: the mixing-vector file format.

    Coordinate i is a function on symbols given as a lookup table; the
    encoded symbol of block i is entries[i][mover] + responder (mod k),
    which is the history mixer ``as_mixer`` returns.  The normalized form
    fixes entry(0) = 0, which changes no image's maximality.  That
    normalization does not carry over to ``HistoryMixer``: there it drops
    images and leaves converse counterexamples to the equivalence.
    """

    def __init__(self, entries: Iterable[Iterable[int]], alphabet_size: int | None = None):
        self.entries: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(v) for v in e) for e in entries
        )
        if self.entries:
            k = len(self.entries[0])
        elif alphabet_size is not None:
            k = alphabet_size
        else:
            raise ValueError("alphabet size needed for a depth-0 vector")
        if alphabet_size is not None and alphabet_size != k:
            raise ValueError("entry tables do not match the declared alphabet size")
        for e in self.entries:
            if len(e) != k:
                raise ValueError("all entry tables must have alphabet size entries")
            if any(v < 0 or v >= k for v in e):
                raise ValueError(f"table value out of range in {e!r}")
        self.alphabet_size = k

    @property
    def depth(self) -> int:
        return len(self.entries)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "XVector":
        """Binary shorthand: bit b is the table (0, b)."""
        return cls(tuple((0, int(b)) for b in bits), alphabet_size=2)

    def as_mixer(self, Z: PositionSet) -> "HistoryMixer":
        """The history mixer h -> x_{|h|//2}(h[-1]) on the histories of Z."""
        for p in Z:
            if len(p) // 2 > self.depth:
                raise ValueError(f"vector depth {self.depth} too small for {len(p) // 2} blocks")
        return HistoryMixer(
            {h: self.entries[len(h) // 2][h[-1]] for h in mixer_histories(Z)},
            self.alphabet_size,
        )

    def to_json_dict(self) -> dict:
        return {"depth": self.depth, "entries": [list(e) for e in self.entries]}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XVector):
            return NotImplemented
        return (self.entries, self.alphabet_size) == (other.entries, other.alphabet_size)

    def __hash__(self) -> int:
        return hash((self.entries, self.alphabet_size))


@dataclass
class HistoryMixer:
    """Mixer on play histories for the block encoding.

    The encoded symbol of block i is x(a_1, b_1, ..., a_i) + b_i (mod k):
    the mixer sees the whole play up to the mover's i-th move, which gives
    it the same shape as a responder strategy.  It is a lookup table on
    the odd-length histories that the encoded positions pass through.

    Unlike ``XVector`` there is no normalization: fixing the value at one
    mover symbol to 0 is sound for per-stage tables but loses images here.
    """

    table: dict[Position, int]
    alphabet_size: int

    def __post_init__(self) -> None:
        for h, v in self.table.items():
            if len(h) % 2 != 1:
                raise ValueError(f"history {h!r} does not end with a mover move")
            if not 0 <= v < self.alphabet_size:
                raise ValueError(f"mixer value out of range at {h!r}")

    def to_json_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet_size,
            "table": [[list(h), v] for h, v in sorted(self.table.items())],
        }


def history_encode(p: Position, x: HistoryMixer, k: int) -> Position:
    """Collapse each two-move block of p into one symbol: x(p[:2i+1]) + b (mod k)."""
    return tuple(
        (x.table[p[: 2 * i + 1]] + p[2 * i + 1]) % k for i in range(len(p) // 2)
    )


def history_code(Z: PositionSet, x: HistoryMixer, k: int) -> PrefixCode:
    """Image of the set under the history-mixer block encoding; duplicates collapse."""
    return PrefixCode(frozenset(history_encode(p, x, k) for p in Z), k)


def mixer_histories(Z: PositionSet) -> list[Position]:
    """The odd-length prefixes of Z that the block encoding reads, sorted.

    These are the odd-depth trie nodes with a child; preorder is sorted order.
    """
    children, _ = Z.trie
    return [p for p, below in zip(Z.trie_words(), children) if len(p) % 2 and below]


@dataclass
class EquivalenceReport:
    """Outcome of the equivalence check: a mixer whose image is not a maximal
    prefix code, or None, and the number of mixers or pairs examined."""

    winner: int
    witness: XVector | HistoryMixer | None
    checked: int

    @property
    def all_maximal(self) -> bool:
        return self.witness is None

    @property
    def equiv_holds(self) -> bool:
        return (self.winner == 1) == self.all_maximal

    def to_json_dict(self) -> dict:
        return {
            "winner": self.winner,
            "all_maximal": self.all_maximal,
            "equiv_holds": self.equiv_holds,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "checked": self.checked,
        }


def _require_minimal_antichain(Z: PositionSet, k: int, caller: str) -> None:
    if not Z.antichain:
        raise ValueError(f"{caller} requires an antichain")
    # the images are of the listed positions, so no closed-form tail counts
    if word_sum(map(hat, Z), uniform_weight(k)) != 1:
        raise ValueError(f"{caller} requires a minimal-size set")


def _is_maximal_image(Z: PositionSet, mixer: HistoryMixer, k: int) -> bool:
    image = history_code(Z, mixer, k)
    return is_prefix_code(image) and is_maximal(image)


def _history_mergeable(p: Position, q: Position) -> bool:
    """Some history mixer makes the images comparable iff p, q split at a mover move."""
    return common_prefix_length(p, q) % 2 == 0


def _history_witness(Z: PositionSet, k: int, p: Position, q: Position) -> tuple:
    # x = 0 keeps p's blocks as its responder symbols; on q's histories past
    # the split, which p never reads, x shifts q's blocks onto p's
    table = dict.fromkeys(mixer_histories(Z), 0)
    for j in range(common_prefix_length(p, q) // 2, min(len(p), len(q)) // 2):
        table[q[: 2 * j + 1]] = (p[2 * j + 1] - q[2 * j + 1]) % k
    mixer = HistoryMixer(table, k)
    return mixer, mixer


def _stage_mergeable(p: Position, q: Position) -> bool:
    """Some per-stage vector makes the images comparable iff the responder
    symbols agree at every common block where the mover symbols agree."""
    return all(
        p[2 * i] != q[2 * i] or p[2 * i + 1] == q[2 * i + 1]
        for i in range(min(len(p), len(q)) // 2)
    )


def _stage_witness(Z: PositionSet, k: int, p: Position, q: Position) -> tuple:
    # one constraint per block with distinct mover symbols: the larger one's
    # entry absorbs the difference, so entry 0 stays 0
    entries = [[0] * k for _ in range(max(len(z) // 2 for z in Z))]
    for i in range(min(len(p), len(q)) // 2):
        (a, b), (c, d) = sorted((p[2 * i : 2 * i + 2], q[2 * i : 2 * i + 2]))
        if a != c:
            entries[i][c] = (b - d) % k
    x = XVector(entries, alphabet_size=k)
    return x, x.as_mixer(Z)


def equivalence_check(Z: PositionSet, k: int, per_stage: bool = False) -> EquivalenceReport:
    """Compare the solved winner with maximality of every block-code image.

    Requires a minimal-size antichain.  Every image has Kraft sum 1, so it
    is not maximal iff two positions get comparable images, and that is
    decided pair by pair.  Over history mixers (the mover wins iff no pair
    merges) it suffices to compare sorted neighbours: the first difference
    of any pair is the least among the neighbours between them.  With
    ``per_stage`` every pair is compared and only the forward direction
    holds: no pair of the depth-4 responder win {0000, 0100, 1001, 1101}
    merges, so ``equiv_holds`` is false.  A witness's image is checked to
    be non-maximal before it is reported.
    """
    _require_minimal_antichain(Z, k, "equivalence_check")
    winner = solve(GameInstance(k, Z)).winner
    elems = Z.sorted_positions()
    if per_stage:
        pairs, mergeable, build = itertools.combinations(elems, 2), _stage_mergeable, _stage_witness
    else:
        pairs, mergeable, build = zip(elems, elems[1:]), _history_mergeable, _history_witness
    checked = 0
    for p, q in pairs:
        checked += 1
        if mergeable(p, q):
            witness, mixer = build(Z, k, p, q)
            if _is_maximal_image(Z, mixer, k):
                raise AssertionError(f"the witness for {p!r}, {q!r} leaves the image maximal")
            return EquivalenceReport(winner, witness, checked)
    return EquivalenceReport(winner, None, checked)


def history_equivalence_check(
    Z: PositionSet, k: int, budget: int = ENUMERATION_BUDGET
) -> EquivalenceReport:
    """Compare the solved winner with maximality of every history-mixer image.

    Requires a minimal-size antichain.  The mover wins iff the image is a
    maximal prefix code for every history mixer.  Forward: Z is exactly
    the play set of a winning mover strategy, and with the mover's moves
    fixed each mixer acts on responder words as a tree automorphism.
    Converse: for a winning responder strategy s the mixer x(h) = -s(h)
    maps no position of Z to a prefix of 0^n, so its image is not maximal.

    The enumerating reference for ``equivalence_check``: every function on
    the odd-length prefixes of Z is tried, independently of any strategy
    the solver produces, in lexicographic order of its values on the
    sorted histories, so a reported witness is the least one.
    """
    _require_minimal_antichain(Z, k, "history_equivalence_check")
    histories = mixer_histories(Z)
    count = k ** len(histories)
    if count > budget:
        raise BudgetExceededError(f"{count} history mixers exceed the budget {budget}")
    winner = solve(GameInstance(k, Z)).winner
    for checked, values in enumerate(itertools.product(range(k), repeat=len(histories)), 1):
        mixer = HistoryMixer(dict(zip(histories, values)), k)
        if not _is_maximal_image(Z, mixer, k):
            return EquivalenceReport(winner, mixer, checked)
    return EquivalenceReport(winner, None, count)


def build_Z_from_code(code: PrefixCode, s1: Strategy) -> PositionSet:
    """Interleave every codeword with the moves s1 prescribes along the way.

    The resulting position set has s1 as a winning strategy exactly when
    the code is maximal, and is minimal-size in that case.
    """
    out = []
    for word in code.positions:
        p: Position = ()
        for symbol in word:
            p = p + (s1.move(p), symbol)
        out.append(p)
    return PositionSet(out)


def extract_generating_subset(Z: PositionSet, x: XVector, k: int) -> PositionSet:
    """Small subset whose block-code image already generates a finite-index subgroup.

    Requires a minimal-size Player-1 win.  Start from a maximal-length
    image word (lexicographic tie-break), include for each level j and
    each symbol a != c[j] a word extending c[:j] + (a,), and map the
    chosen words back to positions.  The least image word extending a
    stem is the first sorted word at or after it.  The subset has at most
    max_len * (k-1) + 1 elements.
    """
    _require_minimal_antichain(Z, k, "extract_generating_subset")
    report = solve(GameInstance(k, Z))
    if report.winner != 1:
        raise ValueError("extract_generating_subset requires a Player-1 win")
    mixer = x.as_mixer(Z)
    image = history_code(Z, mixer, k)
    if not (is_prefix_code(image) and is_maximal(image)):
        raise AssertionError("image of a winning minimal-size set must be maximal")
    representative: dict[Position, Position] = {}
    for p in Z.sorted_positions():
        representative.setdefault(history_encode(p, mixer, k), p)
    words = image.sorted_positions()
    c1 = max(words, key=len)  # the first, so the least, of the longest words
    chosen = {c1}
    for j in range(len(c1), 0, -1):
        stem = c1[: j - 1]
        for a in range(k):
            if a == c1[j - 1]:
                continue
            extension = stem + (a,)
            i = bisect.bisect_left(words, extension)
            if i == len(words) or not is_prefix(extension, words[i]):
                raise AssertionError(f"no image word extends {extension!r}")
            chosen.add(words[i])
    bound = len(c1) * (k - 1) + 1
    if len(chosen) > bound:
        raise AssertionError(f"generating subset has {len(chosen)} words, bound {bound}")
    return PositionSet(representative[w] for w in chosen)


def brute_force_maximal(code: PrefixCode) -> bool:
    """Independent maximality oracle: try to adjoin any short word.

    A prefix code is non-maximal iff some word of length at most
    max_length + 1 can be added while staying prefix-free.
    """
    if not is_prefix_code(code):
        raise ValueError("brute_force_maximal requires a prefix code")
    k = code.alphabet_size
    for length in range(code.max_length + 2):
        for w in itertools.product(range(k), repeat=length):
            if not any(is_prefix(c, w) or is_prefix(w, c) for c in code.positions):
                return False
    return True
