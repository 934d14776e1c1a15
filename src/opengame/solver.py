"""Exact winner determination for full-tree games with finite open winning sets.

Backward induction over the depth-D full k-ary tree: a node extending an
element of Z is a win for Player 1, a depth-D node otherwise is a win for
Player 2, even-length nodes take OR over children and odd-length nodes
take AND.  A deliberately dumb unmemoized minimax serves as an
independent oracle.  All operations are pure; memoization is per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .criteria import is_geometric_ladder, kraft_sum, uniform_weight, word_sum
from .tree import Position, PositionSet, hat, is_prefix, normalize_even

DEFAULT_BUDGET = 1 << 22

INFINITE_FAMILY_CERTIFICATE = "infinite minimal-size family"
TRUNCATION_WARNING = (
    "declared-infinite family solved as its finite truncation; "
    "inconclusive for the infinite family"
)


class BudgetExceededError(RuntimeError):
    """Raised when the k^D node budget would be exceeded."""


class StrategyError(KeyError):
    """An explicit strategy is undefined on a node it is asked about."""


class Strategy:
    """Move rule for one player.

    Oblivious strategies play a fixed symbol per stage and ignore history;
    explicit strategies are finite maps from positions (of the mover's
    parity) to symbols.
    """

    def __init__(self, player: int, kind: str, moves=None, table=None):
        if player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        if kind not in ("oblivious", "explicit"):
            raise ValueError(f"unknown strategy kind {kind!r}")
        self.player = player
        self.kind = kind
        self.moves: tuple[int, ...] = tuple(moves) if moves is not None else ()
        self.table: dict[Position, int] = dict(table) if table is not None else {}

    @classmethod
    def oblivious(cls, moves, player: int = 1) -> "Strategy":
        return cls(player, "oblivious", moves=moves)

    @classmethod
    def explicit(cls, table, player: int = 1) -> "Strategy":
        return cls(player, "explicit", table=table)

    def move(self, position: Position) -> int:
        parity = 0 if self.player == 1 else 1
        if len(position) % 2 != parity:
            raise ValueError(
                f"player {self.player} does not move at a length-{len(position)} position"
            )
        if self.kind == "oblivious":
            stage = len(position) // 2
            if stage >= len(self.moves):
                raise StrategyError(f"oblivious strategy too short for stage {stage}")
            return self.moves[stage]
        try:
            return self.table[position]
        except KeyError:
            raise StrategyError(f"explicit strategy undefined at {position!r}") from None

    def to_json_dict(self) -> dict:
        out: dict = {"player": self.player, "kind": self.kind}
        if self.kind == "oblivious":
            out["moves"] = list(self.moves)
        else:
            out["table"] = [[list(p), a] for p, a in sorted(self.table.items())]
        return out

    def __repr__(self) -> str:
        payload = self.moves if self.kind == "oblivious" else self.table
        return f"Strategy(player={self.player}, {self.kind}, {payload!r})"


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
            if any(a >= alphabet_size for a in p):
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
    """Memoized backward induction over one game instance."""

    def __init__(self, game: GameInstance):
        self.k = game.k
        self.depth = game.depth
        self.zt = game.zset.positions
        self.memo: dict[Position, bool] = {}
        self.counts: dict[Position, int] = {}

    def p1_wins(self, p: Position) -> bool:
        n = len(p)
        if n % 2 == 0 and p in self.zt:
            return True
        if n == self.depth:
            return False
        cached = self.memo.get(p)
        if cached is not None:
            return cached
        if n % 2 == 0:
            results = [self.p1_wins(p + (a,)) for a in range(self.k)]
            self.counts[p] = sum(results)
            result = any(results)
        else:
            result = all(self.p1_wins(p + (a,)) for a in range(self.k))
        self.memo[p] = result
        return result


def _extract_p1_strategy(ind: _Induction) -> tuple[Strategy, bool]:
    """Explicit winning strategy (smallest winning symbol) and uniqueness.

    Uniqueness holds iff every even node reachable under the winning play
    offers exactly one winning action.
    """
    table: dict[Position, int] = {}
    unique = True
    stack: list[Position] = [()]
    while stack:
        p = stack.pop()
        if len(p) % 2 == 0 and p in ind.zt:
            continue
        if len(p) == ind.depth:
            continue
        if len(p) % 2 == 0:
            winning = [a for a in range(ind.k) if ind.p1_wins(p + (a,))]
            if len(winning) != 1:
                unique = False
            move = winning[0]
            table[p] = move
            stack.append(p + (move,))
        else:
            stack.extend(p + (a,) for a in range(ind.k))
    return Strategy.explicit(table, player=1), unique


def _extract_p2_strategy(ind: _Induction) -> Strategy:
    table: dict[Position, int] = {}
    stack: list[Position] = [()]
    while stack:
        p = stack.pop()
        if len(p) == ind.depth:
            continue
        if len(p) % 2 == 0:
            stack.extend(p + (a,) for a in range(ind.k))
        else:
            losing = [a for a in range(ind.k) if not ind.p1_wins(p + (a,))]
            move = losing[0]
            table[p] = move
            stack.append(p + (move,))
    return Strategy.explicit(table, player=2)


def solve(game: GameInstance, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Determine the winner, one winning strategy, and per-node action counts.

    A set flagged as an infinite family whose exact sum equals 1 is a
    responder win without induction; the exact family sum is only
    computable for the geometric-ladder shape, so any other flagged set
    is solved as its finite truncation with a warning.
    """
    warning = None
    if game.zset.infinite_family:
        if is_geometric_ladder(game.zset) and kraft_sum(game.zset, game.k) == 1:
            return SolveReport(
                winner=2,
                strategy=None,
                unique_p1_strategy=False,
                certificate=INFINITE_FAMILY_CERTIFICATE,
            )
        warning = TRUNCATION_WARNING
    _check_budget(game.k, game.depth, budget)
    ind = _Induction(game)
    if ind.p1_wins(()):
        strategy, unique = _extract_p1_strategy(ind)
        winner = 1
    else:
        strategy, unique = _extract_p2_strategy(ind), False
        winner = 2
    return SolveReport(
        winner=winner,
        strategy=strategy,
        unique_p1_strategy=unique,
        winning_action_counts=dict(ind.counts),
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

    Recursion: at a winning even node pick the smallest winning move a0,
    recurse in every two-step subtree below it, and take the union; a node
    that is itself in Z contributes exactly itself.
    """
    _check_budget(game.k, game.depth, budget)
    ind = _Induction(game)
    if not ind.p1_wins(()):
        raise ValueError("extract_minimal_size requires a Player-1 win")
    k = game.k

    def collect(p: Position) -> set[Position]:
        if p in ind.zt:
            return {p}
        a0 = min(a for a in range(k) if ind.p1_wins(p + (a,)))
        out: set[Position] = set()
        for a in range(k):
            out |= collect(p + (a0, a))
        return out

    chosen = collect(())
    total = word_sum(map(hat, chosen), uniform_weight(k))
    if total != 1:
        raise AssertionError(f"minimal-size extraction produced sum {total}")
    return PositionSet(chosen)


def consistent_positions(Z: PositionSet, s1: Strategy) -> PositionSet:
    """Subset of Z whose Player-1 entries match s1 along the position."""
    if s1.player != 1:
        raise ValueError("consistent_positions expects a Player-1 strategy")
    out = []
    for p in Z:
        if all(s1.move(p[: 2 * i]) == p[2 * i] for i in range((len(p) + 1) // 2)):
            out.append(p)
    return PositionSet(out)


def verify_p1_strategy(game: GameInstance, s1: Strategy) -> bool:
    """Exhaustively check that every play consistent with s1 hits Z by depth D."""
    zt = game.zset.positions

    def run(p: Position) -> bool:
        if len(p) % 2 == 0 and p in zt:
            return True
        if len(p) == game.depth:
            return False
        if len(p) % 2 == 0:
            try:
                return run(p + (s1.move(p),))
            except StrategyError:
                return False
        return all(run(p + (a,)) for a in range(game.k))

    return run(())


def verify_p2_strategy(game: GameInstance, s2: Strategy) -> bool:
    """Exhaustively check that no play consistent with s2 ever hits Z."""
    zt = game.zset.positions

    def run(p: Position) -> bool:
        if len(p) % 2 == 0 and p in zt:
            return False
        if len(p) == game.depth:
            return True
        if len(p) % 2 == 1:
            try:
                return run(p + (s2.move(p),))
            except StrategyError:
                return False
        return all(run(p + (a,)) for a in range(game.k))

    return run(())
