import itertools
import random
import re
from fractions import Fraction

import pytest

from opengame.criteria import kraft_sum, p2_certificate
from opengame.solver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GameInstance,
    Strategy,
    StrategyError,
    brute_force_oracle,
    extract_minimal_size,
    solve,
    verify_strategy,
)
from opengame.suite import geometric_ladder, random_even_antichain
from opengame.tree import PositionSet, is_prefix


def test_solve_examples():
    report = solve(GameInstance(2, PositionSet([(0, 0), (0, 1)])))
    assert report.winner == 1
    assert report.strategy.move(()) == 0
    assert report.unique_p1_strategy

    assert solve(GameInstance(2, PositionSet([(0, 0)]))).winner == 2
    assert solve(GameInstance(2, PositionSet([]))).winner == 2
    assert solve(GameInstance(2, PositionSet([()]))).winner == 1


def test_solve_ladder_truncations_are_responder_wins():
    # unflagged, the ladder's positions are a finite game, solved by induction
    for k in (2, 3, 4):
        for m in range(1, 6):
            game = GameInstance(k, PositionSet(geometric_ladder(m).positions))
            report = solve(game)
            assert report.winner == 2
            assert report.certificate is None
            assert verify_strategy(game, report.strategy)


def test_solve_flagged_family_short_circuits():
    # solve certifies what p2_certificate certifies for the whole family
    for k in (2, 3, 4):
        for m in range(1, 6):
            family = geometric_ladder(m)
            report = solve(GameInstance(k, family))
            assert report.winner == 2
            assert report.certificate == p2_certificate(family, k).reason
            assert report.certificate == "infinite_family_sum_at_most_one"
            assert report.strategy is None


def test_solve_flagged_truncation_with_partial_sum_warns():
    z = PositionSet([(0, 0, 0, 0), (0, 1, 0, 0)], infinite_family=True)
    report = solve(GameInstance(2, z))
    assert report.winner == 2
    assert report.warning is not None


def test_solve_flagged_non_ladder_never_short_circuits():
    # the partial sum is 1, but the family sum is unknowable, so the
    # truncation is solved as a finite game instead
    z = PositionSet([(0, 0), (1, 0)], infinite_family=True)
    report = solve(GameInstance(2, z))
    assert report.certificate is None
    assert report.warning is not None
    assert report.winner == 2
    assert report.strategy is not None


def test_solve_normalizes_on_ingestion():
    game = GameInstance(2, PositionSet([(0,)]))
    assert game.zset.positions == {(0, 0), (0, 1)}
    assert game.depth == 2
    assert solve(game).winner == 1


def test_solve_rejects_non_antichain():
    not_antichain = "^winning-set positions must form an antichain$"
    with pytest.raises(ValueError, match=not_antichain):
        GameInstance(2, PositionSet([(0,), (0, 1)]))
    with pytest.raises(ValueError, match=not_antichain):
        GameInstance(3, PositionSet([(), (2, 2)]))
    with pytest.raises(ValueError, match=not_antichain):
        GameInstance(2, PositionSet([(1, 0), (0, 1, 1), (0, 1, 1, 0, 1)]))
    # the antichain test comes before the symbol check
    with pytest.raises(ValueError, match=not_antichain):
        GameInstance(2, PositionSet([(5,), (5, 1)]))
    with pytest.raises(ValueError, match=re.escape("negative symbol in position (0, -1)")):
        GameInstance(2, PositionSet([(0, 0), (0, -1)]))
    rng = random.Random(16)
    checked = 0
    for _ in range(50):
        z = PositionSet(
            tuple(rng.randrange(4) for _ in range(2 * rng.randint(1, 3)))
            for _ in range(rng.randint(1, 6))
        )
        if not z.antichain or max(map(max, z)) < 2:
            continue
        # the check names the first offending position in iteration order
        first = next(p for p in z if any(a >= 2 for a in p))
        with pytest.raises(ValueError, match=re.escape(f"symbol out of range in {first!r}")):
            GameInstance(2, z)
        checked += 1
    assert checked >= 20


def test_uniqueness_flag():
    assert solve(GameInstance(2, PositionSet([(0, 0), (0, 1)]))).unique_p1_strategy
    both = PositionSet([(a, b) for a in (0, 1) for b in (0, 1)])
    report = solve(GameInstance(2, both))
    assert report.winner == 1
    assert not report.unique_p1_strategy
    assert report.winning_action_counts[()] == 2


def test_solve_empty_and_root_sets():
    # the trie always has a root node, but an empty Z has no prefix, so
    # it counts no trie nodes; only the responder's one-node walk counts
    empty, root = GameInstance(2, PositionSet([])), GameInstance(2, PositionSet([()]))
    expected = {
        "winner": 2,
        "strategy": {"player": 2, "kind": "explicit", "table": []},
        "unique_p1_strategy": False,
        "winning_action_counts": [],
        "certificate": None,
        "warning": None,
    }
    assert solve(empty, budget=1).to_json_dict() == expected
    with pytest.raises(BudgetExceededError, match="^the strategy walk visits more than 0 nodes$"):
        solve(empty, budget=0)
    expected.update(winner=1, unique_p1_strategy=True)
    expected["strategy"]["player"] = 1
    assert solve(root, budget=1).to_json_dict() == expected
    with pytest.raises(BudgetExceededError, match="^the trie of Z has 1 nodes, budget is 0$"):
        solve(root, budget=0)
    assert extract_minimal_size(root, budget=1).positions == {()}


def test_oracle_examples():
    assert brute_force_oracle(GameInstance(2, PositionSet([(0, 0), (0, 1)]))) == 1
    assert brute_force_oracle(GameInstance(2, PositionSet([]))) == 2


def test_oracle_matches_solver_on_random_instances():
    rng = random.Random(20260810)
    for _ in range(200):
        k = rng.choice((2, 3))
        game = GameInstance(k, random_even_antichain(rng, k, 4))
        assert solve(game).winner == brute_force_oracle(game)


def test_budget_guard():
    z = PositionSet([tuple([0] * 30)])
    with pytest.raises(BudgetExceededError):
        solve(GameInstance(2, z), budget=1 << 10)
    with pytest.raises(BudgetExceededError):
        brute_force_oracle(GameInstance(2, z), budget=1 << 10)
    # a mover win whose walk is short: the trie of Z itself is what is counted
    full = GameInstance(2, PositionSet(itertools.product((0, 1), repeat=4)))
    assert solve(full, budget=31).winner == 1
    with pytest.raises(BudgetExceededError):
        solve(full, budget=30)
    with pytest.raises(BudgetExceededError):
        extract_minimal_size(full, budget=30)
    # a responder walk visits exactly 2(k^(D/2+1) - 1)/(k - 1) - 1 nodes
    for k, n, nodes in ((2, 5, 2 * (2**6 - 1) - 1), (3, 4, (3**5 - 1) - 1)):
        comb = GameInstance(k, PositionSet([(0,) * (2 * n)]))
        assert solve(comb, budget=nodes).winner == 2
        with pytest.raises(BudgetExceededError):
            solve(comb, budget=nodes - 1)


def _comb(n: int) -> PositionSet:
    """The maximal code 1, 01, ..., 0^(n-1)1, 0^n, interleaved with responder 0s."""
    code = [(0,) * i + (1,) for i in range(n)] + [(0,) * n]
    return PositionSet(tuple(x for c in w for x in (0, c)) for w in code)


def test_deep_comb_solves_without_recursion():
    z = _comb(200)
    game = GameInstance(2, z)
    assert game.depth == 400 and len(z.positions) == 201
    report = solve(game, budget=DEFAULT_BUDGET)
    assert report.winner == 1
    assert verify_strategy(game, report.strategy)
    assert extract_minimal_size(game).positions == z.positions


def _mover_wins(zs: list, depth: int, k: int, p: tuple) -> bool:
    """Unmemoized minimax over the full tree below p."""
    if any(is_prefix(z, p) for z in zs):
        return True
    if len(p) >= depth:
        return False
    results = [_mover_wins(zs, depth, k, p + (a,)) for a in range(k)]
    return any(results) if len(p) % 2 == 0 else all(results)


def test_winning_action_counts_cover_the_even_trie_nodes():
    rng = random.Random(271828)
    for _ in range(60):
        k = rng.choice((2, 3))
        game = GameInstance(k, random_even_antichain(rng, k, rng.choice((2, 4, 6))))
        zs = sorted(game.zset.positions)
        even_prefixes = {z[:i] for z in zs for i in range(0, len(z), 2)}
        counts = solve(game).winning_action_counts
        assert set(counts) == even_prefixes
        for p, c in counts.items():
            assert c == sum(_mover_wins(zs, game.depth, k, p + (a,)) for a in range(k))


def _subset_extraction_oracle(zset: PositionSet, k: int) -> list[frozenset]:
    """All subsets that keep an exact sum of 1 and a mover win."""
    out = []
    elems = sorted(zset.positions)
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            sub = PositionSet(combo)
            if kraft_sum(sub, k) != 1:
                continue
            if solve(GameInstance(k, sub)).winner == 1:
                out.append(frozenset(combo))
    return out


def test_extract_minimal_size_examples():
    z = PositionSet([(0, 0), (0, 1), (1, 0)])
    candidates = _subset_extraction_oracle(z, 2)
    assert frozenset({(0, 0), (0, 1)}) in candidates
    extracted = extract_minimal_size(GameInstance(2, z))
    assert extracted.positions == frozenset({(0, 0), (0, 1)})
    assert extracted.positions in candidates

    z2 = PositionSet([(0, 0), (0, 1)])
    assert extract_minimal_size(GameInstance(2, z2)).positions == z2.positions

    everything = PositionSet([(a, b) for a in (0, 1) for b in (0, 1)])
    extracted = extract_minimal_size(GameInstance(2, everything))
    assert kraft_sum(extracted, 2) == 1
    assert extracted.positions <= everything.positions
    assert solve(GameInstance(2, extracted)).winner == 1


def test_extract_minimal_size_requires_winner_one():
    with pytest.raises(ValueError):
        extract_minimal_size(GameInstance(2, PositionSet([(0, 0)])))


def test_extract_minimal_size_mixed_depths():
    z = PositionSet([(0, 0), (0, 1, 0, 0), (0, 1, 0, 1), (1, 0), (1, 1)])
    extracted = extract_minimal_size(GameInstance(2, z))
    assert kraft_sum(extracted, 2) == 1
    assert solve(GameInstance(2, extracted)).winner == 1


def test_winner_one_strategies_verify():
    instances = [
        PositionSet([(0, 0), (0, 1)]),
        PositionSet([(a, b) for a in (0, 1) for b in (0, 1)]),
        PositionSet([(0, 0), (0, 1, 0, 0), (0, 1, 0, 1)]),
        PositionSet([()]),
    ]
    for z in instances:
        game = GameInstance(2, z)
        report = solve(game)
        assert report.winner == 1
        assert verify_strategy(game, report.strategy)


def test_verify_strategy_rejects_illegal_and_missing_moves():
    game = GameInstance(2, PositionSet([(0, 0)]))
    assert verify_strategy(game, Strategy({(0,): 1, (1,): 0}, player=2))
    # symbol 2 is off a binary tree: the play it names never happens
    assert not verify_strategy(game, Strategy({(0,): 2, (1,): 0}, player=2))
    assert not verify_strategy(game, Strategy({(0,): 1}, player=2))


def test_extracted_strategies_verify_on_random_instances():
    rng = random.Random(5150)
    verified_p1 = verified_p2 = 0
    while verified_p1 < 50 or verified_p2 < 50:
        k = rng.choice((2, 3))
        game = GameInstance(k, random_even_antichain(rng, k, 4))
        report = solve(game)
        if report.winner == 1:
            verified_p1 += 1
            assert verify_strategy(game, report.strategy)
        else:
            verified_p2 += 1
            assert verify_strategy(game, report.strategy)


def test_partial_explicit_strategy_errors():
    with pytest.raises(StrategyError):
        Strategy({(): 0}).move((0, 0))


def test_strategy_parity_checks():
    s1 = Strategy({(): 0, (1, 1): 1})
    assert s1.move(()) == 0
    assert s1.move((1, 1)) == 1
    with pytest.raises(ValueError):
        s1.move((0,))
    s2 = Strategy({(0,): 1}, player=2)
    assert s2.move((0,)) == 1


def test_report_serialization_round_trip_fields():
    report = solve(GameInstance(2, PositionSet([(0, 0), (0, 1)])))
    payload = report.to_json_dict()
    assert payload["winner"] == 1
    assert payload["strategy"]["kind"] == "explicit"
    assert payload["winning_action_counts"] == [[[], 1]]
