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
over per-stage vectors only the forward direction holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .criteria import is_minimal_size, uniform_weight, word_sum
from .solver import DEFAULT_BUDGET, GameInstance, Strategy, solve
from .tree import Position, PositionSet, is_prefix

ENUMERATION_BUDGET = 1 << 20


class BudgetError(RuntimeError):
    """Enumeration budget exceeded."""


class PrefixCode(PositionSet):
    """Finite word set over symbols 0..alphabet_size-1; prefix-free when ``antichain`` holds."""

    def __init__(self, words: Iterable[Iterable[int]], alphabet_size: int):
        super().__init__(words)
        if alphabet_size < 2:
            raise ValueError("alphabet size must be at least 2")
        for w in self.positions:
            if any(a >= alphabet_size for a in w):
                raise ValueError(f"symbol out of range in {w!r}")
        self.alphabet_size = alphabet_size

    @classmethod
    def of(cls, words: Iterable[Iterable[int]], alphabet_size: int) -> "PrefixCode":
        return cls(words, alphabet_size)

    @property
    def words(self) -> frozenset[Position]:
        return self.positions

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
    if not is_prefix_code(code):
        return False
    for w in code.words:
        for j in range(1, len(w) + 1):
            if w[j:] in code.words and w[j:] != w:
                return False
    return True


def _maximal_by_kraft(code: PrefixCode) -> bool:
    return word_sum(code, uniform_weight(code.alphabet_size)) == 1


def _maximal_by_completeness(code: PrefixCode) -> bool:
    # every one-symbol extension of a proper prefix of a codeword must stay
    # comparable with the code, otherwise that extension could be added
    if not code.words:
        return False
    prefixes = {w[:j] for w in code.words for j in range(len(w))}
    cover = prefixes | code.words
    return all(
        p + (a,) in cover for p in prefixes for a in range(code.alphabet_size)
    )


def is_maximal(code: PrefixCode) -> bool:
    """Maximality of a prefix code, decided by two independent routes.

    Route (a): the exact Kraft sum equals 1.  Route (b): the codeword tree
    is complete.  Both run on every call; disagreement is an internal
    failure, not a result.
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
    fixes entry(0) = 0; the full function space is used only for
    cross-validation.  That normalization does not carry over to
    ``HistoryMixer``: there it drops images and leaves converse
    counterexamples to the equivalence.
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
    """The odd-length prefixes of Z that the block encoding reads, sorted."""
    return sorted({p[: 2 * i + 1] for p in Z for i in range(len(p) // 2)})


def _tables(k: int, full: bool) -> list[tuple[int, ...]]:
    if full:
        return sorted(itertools.product(range(k), repeat=k))
    return sorted((0,) + rest for rest in itertools.product(range(k), repeat=k - 1))


def xvectors_enumerate(
    k: int, depth: int, full: bool = False, budget: int = ENUMERATION_BUDGET
) -> list[XVector]:
    """All mixing vectors of the given depth, normalized unless ``full``.

    Normalization keeps one representative per equivalence class (the
    table value at 0 can be absorbed into the encoded symbol), shrinking
    the space from k^(k*depth) to k^((k-1)*depth).
    """
    tables = _tables(k, full)
    count = len(tables) ** depth
    if count > budget:
        raise BudgetError(f"{count} vectors exceed the budget {budget}")
    return [
        XVector(combo, alphabet_size=k)
        for combo in itertools.product(tables, repeat=depth)
    ]


@dataclass
class EquivalenceReport:
    """Outcome of the winner/maximality equivalence check."""

    winner: int
    all_maximal: bool
    equiv_holds: bool
    witness: XVector | HistoryMixer | None
    checked: int

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
    if not is_minimal_size(Z, k):
        raise ValueError(f"{caller} requires a minimal-size set")


def _first_non_maximal_image(
    Z: PositionSet,
    k: int,
    winner: int,
    mixers: Iterable[tuple[XVector | HistoryMixer, HistoryMixer]],
) -> EquivalenceReport:
    """Try (reported mixer, history mixer) pairs in order; the first failing one is the witness."""
    witness = None
    checked = 0
    for reported, mixer in mixers:
        checked += 1
        image = history_code(Z, mixer, k)
        if not (is_prefix_code(image) and is_maximal(image)):
            witness = reported
            break
    all_maximal = witness is None
    return EquivalenceReport(
        winner=winner,
        all_maximal=all_maximal,
        equiv_holds=(winner == 1) == all_maximal,
        witness=witness,
        checked=checked,
    )


def equivalence_check(
    Z: PositionSet,
    k: int,
    full: bool = False,
    budget: int = ENUMERATION_BUDGET,
    solve_budget: int = DEFAULT_BUDGET,
) -> EquivalenceReport:
    """Compare the solved winner with maximality of every block-code image.

    Requires a minimal-size antichain.  Each per-stage vector is encoded
    through its lift ``XVector.as_mixer``.  Only the forward direction holds
    for per-stage vectors: if Player 1 wins, the image is a maximal prefix
    code for every mixing vector.  The converse fails, e.g. on the depth-4
    responder win {0000, 0100, 1001, 1101}, whose every image is maximal;
    ``equiv_holds`` is then false.  ``history_equivalence_check`` states the
    equivalence that does hold.  Vectors are checked in lexicographic table
    order, so a reported witness (an image that is not a maximal prefix
    code) is the least one.
    """
    _require_minimal_antichain(Z, k, "equivalence_check")
    winner = solve(GameInstance(k, Z), budget=solve_budget).winner
    depth = max((len(p) // 2 for p in Z), default=0)
    vectors = xvectors_enumerate(k, depth, full=full, budget=budget)
    return _first_non_maximal_image(Z, k, winner, ((x, x.as_mixer(Z)) for x in vectors))


def history_equivalence_check(
    Z: PositionSet,
    k: int,
    budget: int = ENUMERATION_BUDGET,
    solve_budget: int = DEFAULT_BUDGET,
) -> EquivalenceReport:
    """Compare the solved winner with maximality of every history-mixer image.

    Requires a minimal-size antichain.  The mover wins iff the image is a
    maximal prefix code for every history mixer.  Forward: Z is exactly
    the play set of a winning mover strategy, and with the mover's moves
    fixed each mixer acts on responder words as a tree automorphism.
    Converse: for a winning responder strategy s the mixer x(h) = -s(h)
    maps no position of Z to a prefix of 0^n, so its image is not maximal.

    Every function on the odd-length prefixes of Z is tried, unnormalized
    (values elsewhere do not change the image), and independently of any
    strategy the solver produces.  Mixers are tried in lexicographic order
    of their values on the sorted histories, so a reported witness is the
    least one.
    """
    _require_minimal_antichain(Z, k, "history_equivalence_check")
    histories = mixer_histories(Z)
    count = k ** len(histories)
    if count > budget:
        raise BudgetError(f"{count} history mixers exceed the budget {budget}")
    winner = solve(GameInstance(k, Z), budget=solve_budget).winner
    mixers = (
        HistoryMixer(dict(zip(histories, values)), k)
        for values in itertools.product(range(k), repeat=len(histories))
    )
    return _first_non_maximal_image(Z, k, winner, ((m, m) for m in mixers))


def build_Z_from_code(code: PrefixCode, s1: Strategy) -> PositionSet:
    """Interleave every codeword with the moves s1 prescribes along the way.

    The resulting position set has s1 as a winning strategy exactly when
    the code is maximal, and is minimal-size in that case.
    """
    out = []
    for word in code.words:
        p: Position = ()
        for symbol in word:
            p = p + (s1.move(p), symbol)
        out.append(p)
    return PositionSet(out)


def extract_generating_subset(
    Z: PositionSet, x: XVector, k: int, solve_budget: int = DEFAULT_BUDGET
) -> PositionSet:
    """Small subset whose block-code image already generates a finite-index subgroup.

    Requires a minimal-size Player-1 win.  Start from a maximal-length
    image word (lexicographic tie-break), include for each level j and
    each symbol a != c[j] a word extending c[:j] + (a,), and map the
    chosen words back to positions.  The subset has at most
    max_len * (k-1) + 1 elements.
    """
    if not is_minimal_size(Z, k):
        raise ValueError("extract_generating_subset requires a minimal-size set")
    report = solve(GameInstance(k, Z), budget=solve_budget)
    if report.winner != 1:
        raise ValueError("extract_generating_subset requires a Player-1 win")
    mixer = x.as_mixer(Z)
    image = history_code(Z, mixer, k)
    if not (is_prefix_code(image) and is_maximal(image)):
        raise AssertionError("image of a winning minimal-size set must be maximal")
    representative: dict[Position, Position] = {}
    for p in sorted(Z.positions):
        representative.setdefault(history_encode(p, mixer, k), p)
    words = sorted(image.words)
    longest = max(len(w) for w in words)
    c1 = min(w for w in words if len(w) == longest)
    chosen = {c1}
    for j in range(len(c1), 0, -1):
        stem = c1[: j - 1]
        for a in range(k):
            if a == c1[j - 1]:
                continue
            extension = stem + (a,)
            candidates = [w for w in words if is_prefix(extension, w)]
            chosen.add(min(candidates))
    bound = longest * (k - 1) + 1
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
            if not any(is_prefix(c, w) or is_prefix(w, c) for c in code.words):
                return False
    return True
