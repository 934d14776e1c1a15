"""Exact winner determination for full-tree games with finite open winning sets.

A node that is not a prefix of an element of Z can never reach Z, so the
responder wins there and the winner is decided on the finite trie of
prefixes of the even-normalized Z, the set's cached ``PositionSet.trie``.
Induction visits its node ids in reverse preorder, every child before its
parent: an element of Z is a mover win, a child off the trie a responder
win, even-length nodes take OR over their k children and odd-length nodes
AND.  One walker then plays the winner's smallest winning symbol against
every reply down to depth D, carrying each position's trie node until the
play leaves the trie; it yields the winning strategy, its uniqueness and
the elements of Z the plays reach.  Budgets count the
trie's nodes and, before the responder's walk starts, the exact number of
nodes it will visit.  A deliberately dumb unmemoized minimax over all k^D
leaves serves as an independent oracle.  All operations are pure and,
apart from that oracle, iterative.  A set flagged as an infinite family
is decided by ``criteria.p2_certificate`` where that certifies the whole
family, and is otherwise solved as its listed truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .criteria import is_geometric_ladder, p2_certificate, uniform_weight, word_sum
from .tree import Position, PositionSet, hat, is_prefix, normalize_even

DEFAULT_BUDGET = 1 << 22

TRUNCATION_WARNING = (
    "declared-infinite family solved as its finite truncation; "
    "inconclusive for the infinite family"
)


class BudgetExceededError(RuntimeError):
    """Raised when a computation would visit more nodes than its budget."""


class StrategyError(KeyError):
    """An explicit strategy is undefined on a node it is asked about."""


@dataclass
class Strategy:
    """Move rule for one player: a finite map from positions of its parity to symbols."""

    table: dict[Position, int]
    player: int = 1

    def __post_init__(self) -> None:
        if self.player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        self.table = dict(self.table)

    def move(self, position: Position) -> int:
        if len(position) % 2 != self.player - 1:
            raise ValueError(
                f"player {self.player} does not move at a length-{len(position)} position"
            )
        try:
            return self.table[position]
        except KeyError:
            raise StrategyError(f"explicit strategy undefined at {position!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "player": self.player,
            "kind": "explicit",  # part of the solve report format
            "table": [[list(p), a] for p, a in sorted(self.table.items())],
        }


class GameInstance:
    """A full-tree game: alphabet size k and a finite antichain Z.

    Z is even-normalized on ingestion; the depth is the maximum (even)
    length after normalization.
    """

    def __init__(self, alphabet_size: int, zset: PositionSet):
        if alphabet_size < 2:
            raise ValueError(f"alphabet size must be at least 2, got {alphabet_size}")
        if not zset.antichain:
            raise ValueError("winning-set positions must form an antichain")
        for p in zset:
            if p and max(p) >= alphabet_size:
                raise ValueError(f"symbol out of range in {p!r}")
        self.k = alphabet_size
        self.zset = normalize_even(zset, alphabet_size)
        self.depth = self.zset.max_length

    def __repr__(self) -> str:
        return f"GameInstance(k={self.k}, {self.zset!r})"


@dataclass
class SolveReport:
    winner: int
    strategy: Strategy | None
    unique_p1_strategy: bool
    winning_action_counts: dict[Position, int] = field(default_factory=dict)
    certificate: str | None = None
    warning: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "winner": self.winner,
            "strategy": self.strategy.to_json_dict() if self.strategy else None,
            "unique_p1_strategy": self.unique_p1_strategy,
            "winning_action_counts": [
                [list(p), c] for p, c in sorted(self.winning_action_counts.items())
            ],
            "certificate": self.certificate,
            "warning": self.warning,
        }


def _check_budget(k: int, depth: int, budget: int) -> None:
    if k**depth > budget:
        raise BudgetExceededError(
            f"game needs {k}^{depth} = {k**depth} leaves, budget is {budget}"
        )


class _Induction:
    """Backward induction over ``zset.trie`` of the normalized Z, by node id."""

    def __init__(self, game: GameInstance, budget: int):
        self.k = game.k
        self.depth = game.depth
        self.children, self.terminal = game.zset.trie
        # the trie always has a root, but an empty Z has no prefix
        nodes = len(self.children) if game.zset.positions else 0
        if nodes > budget:
            raise BudgetExceededError(f"the trie of Z has {nodes} nodes, budget is {budget}")
        words = game.zset.trie_words()
        self.win = [False] * len(self.children)
        self.counts: dict[Position, int] = {}  # winning children of even non-Z nodes
        for node in reversed(range(nodes)):
            if self.terminal[node]:
                self.win[node] = True
                continue
            won = sum(self.win[child] for child in self.children[node].values())
            if len(words[node]) % 2 == 0:
                self.counts[words[node]] = won
                self.win[node] = won > 0
            else:
                # a missing child is off the trie, so a responder win
                self.win[node] = won == self.k


def _walk(ind: _Induction, player: int) -> tuple[dict[Position, int], bool, set[Position]]:
    """Play the winner's smallest winning symbol against every reply.

    Returns the winner's explicit table, whether each of Player 1's moves
    was its only winning symbol (always False for Player 2), and the
    elements of Z the plays reach.  Each position travels with its trie
    node, None once the play has left the trie.  Player 1's walk stays on
    the trie.  Player 2's runs down to depth D off the trie too, so its
    table is total on every play consistent with it.
    """
    table: dict[Position, int] = {}
    unique = player == 1
    reached: set[Position] = set()
    stack: list[tuple[Position, int | None]] = [((), 0)]
    while stack:
        p, node = stack.pop()
        below = {} if node is None else ind.children[node]
        if node is not None and ind.terminal[node]:
            reached.add(p)
        elif len(p) == ind.depth:
            continue
        elif len(p) % 2 == player - 1:
            good = [a for a in range(ind.k) if (a in below and ind.win[below[a]]) == (player == 1)]
            unique = unique and len(good) == 1
            table[p] = good[0]
            stack.append((p + (good[0],), below.get(good[0])))
        else:
            stack.extend((p + (a,), below.get(a)) for a in range(ind.k))
    return table, unique, reached


def solve(game: GameInstance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Determine the winner, one winning strategy, and per-node action counts.

    A flagged geometric ladder is a responder win without induction, with
    the reason of its ``p2_certificate`` and no strategy; any other set
    flagged as an infinite family is solved as its finite truncation with
    a warning.
    """
    if is_geometric_ladder(game.zset):
        reason = p2_certificate(game.zset, game.k).reason
        return SolveReport(winner=2, strategy=None, unique_p1_strategy=False, certificate=reason)
    warning = TRUNCATION_WARNING if game.zset.infinite_family else None
    ind = _Induction(game, budget)
    winner = 1 if ind.win[0] else 2
    if winner == 2:
        # never reaching Z, the responder's walk meets all k moves at every
        # even node down to depth D and answers each with one move
        walked = 2 * (game.k ** (game.depth // 2 + 1) - 1) // (game.k - 1) - 1
        if walked > budget:
            raise BudgetExceededError(f"the strategy walk visits more than {budget} nodes")
    table, unique, _ = _walk(ind, winner)
    return SolveReport(
        winner=winner,
        strategy=Strategy(table, player=winner),
        unique_p1_strategy=unique,
        winning_action_counts=ind.counts,
        warning=warning,
    )


def brute_force_oracle(game: GameInstance, budget: int = DEFAULT_BUDGET) -> int:
    """Plain unmemoized minimax over all k^D leaves; no pruning, no reuse.

    A leaf is a Player-1 win iff some element of Z prefixes it.  Kept
    deliberately independent of ``solve`` as a cross-check oracle.
    """
    _check_budget(game.k, game.depth, budget)
    k, depth = game.k, game.depth
    zs = sorted(game.zset.positions)

    def value(p: Position) -> bool:
        if len(p) == depth:
            return any(is_prefix(z, p) for z in zs)
        results = [value(p + (a,)) for a in range(k)]
        return any(results) if len(p) % 2 == 0 else all(results)

    return 1 if value(()) else 2


def extract_minimal_size(game: GameInstance, budget: int = DEFAULT_BUDGET) -> PositionSet:
    """Subset of Z with exact sum 1 on which Player 1 still wins.

    The elements of Z that the mover's winning walk reaches: at each
    winning even node it plays the smallest winning symbol a0 and meets
    every reply, and a node in Z contributes exactly itself.
    """
    ind = _Induction(game, budget)
    if not ind.win[0]:
        raise ValueError("extract_minimal_size requires a Player-1 win")
    _, _, chosen = _walk(ind, 1)
    total = word_sum(map(hat, chosen), uniform_weight(game.k))
    if total != 1:
        raise AssertionError(f"minimal-size extraction produced sum {total}")
    return PositionSet(chosen)


def verify_strategy(game: GameInstance, s: Strategy) -> bool:
    """Exhaustively check that s wins every play consistent with it.

    Player 1 wins a play that reaches Z by depth D; Player 2 wins one that
    never does; a missing or out-of-alphabet move loses.  Walks the full
    tree, independently of the induction.
    """
    zt = game.zset.positions
    stack: list[Position] = [()]
    while stack:
        p = stack.pop()
        if p in zt or len(p) == game.depth:
            if (p in zt) != (s.player == 1):
                return False
        elif len(p) % 2 == s.player - 1:
            try:
                move = s.move(p)
            except StrategyError:
                return False
            if move not in range(game.k):
                return False
            stack.append(p + (move,))
        else:
            stack.extend(p + (a,) for a in range(game.k))
    return True
