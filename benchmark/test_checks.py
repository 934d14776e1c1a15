"""Tests of the benchmark's own checkers, at small sizes.

Run from the root of the repository: python3 -m pytest benchmark/test_checks.py
"""

import random
from fractions import Fraction

from checks import (
    act,
    closed_walk,
    code_kraft,
    half_sum,
    mover_wins,
    orbit_size,
    product_sum,
    random_transitive_perms,
    schreier_generators,
    strategy_wins,
)

# the mover wins by playing 0 first; after 1 the responder escapes
MOVER_GAME = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 1)]


def test_walker_accepts_a_winning_mover_strategy():
    table = {(): 0, (0, 0): 0, (0, 1): 1}
    assert strategy_wins(2, MOVER_GAME, 4, 1, table)


def test_walker_rejects_a_wrong_mover_strategy():
    assert not strategy_wins(2, MOVER_GAME, 4, 1, {(): 1})
    assert not strategy_wins(2, MOVER_GAME, 4, 1, {(): 0, (0, 0): 1, (0, 1): 1})
    assert not strategy_wins(2, MOVER_GAME, 4, 1, {(): 0, (0, 0): 0})  # undefined at (0, 1)


def test_walker_judges_responder_strategies():
    zset = [(0, 0), (1, 0)]
    assert strategy_wins(2, zset, 2, 2, {(0,): 1, (1,): 1})
    assert not strategy_wins(2, zset, 2, 2, {(0,): 1, (1,): 0})
    assert not strategy_wins(2, zset, 2, 2, {(0,): 1})


def test_trie_induction_on_hand_made_games():
    assert mover_wins(2, MOVER_GAME)
    assert not mover_wins(2, [(0, 0), (1, 0)])
    assert mover_wins(2, [()])
    assert not mover_wins(2, [])
    assert mover_wins(2, [(0,)])  # odd length: both extensions (0, 0), (0, 1)
    assert mover_wins(3, [(2, 0), (2, 1), (2, 2)])
    assert not mover_wins(3, [(2, 0), (2, 1)])


def test_schreier_index_agrees_with_an_orbit_count():
    rng = random.Random(7)
    for k, n in ((2, 1), (2, 5), (3, 4), (2, 9)):
        perms = random_transitive_perms(rng, k, n)
        gens = schreier_generators(perms)
        assert orbit_size(perms, 0) == n
        assert len(gens) == n * (k - 1) + 1
        assert all(act(perms, 0, g) == 0 for g in gens)


def test_closed_walk():
    # the Schreier graph of Z/2 acting by generator 0, generator 1 a loop
    edges = [(0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]
    assert closed_walk(edges, 0, ((0, 1), (0, 1)))
    assert closed_walk(edges, 0, ((0, 1), (1, -1), (0, -1)))
    assert not closed_walk(edges, 0, ((0, 1),))
    assert not closed_walk([(0, 1, 0)], 0, ((1, 1),))


def test_kraft_and_fraction_sums_agree_on_hand_made_codes():
    codes = {
        2: [[(0,), (1, 0), (1, 1)], [(1,), (0, 1), (0, 0, 1), (0, 0, 0)], [(0, 0), (1,)], []],
        3: [[(0,), (1,), (2, 0), (2, 1), (2, 2)], [(0, 0), (1,)]],
    }
    expected = {2: [1, 1, Fraction(3, 4), 0], 3: [1, Fraction(4, 9)]}
    for k, cases in codes.items():
        uniform = {a: Fraction(1, k) for a in range(k)}
        for words, value in zip(cases, expected[k]):
            assert code_kraft(k, words) == product_sum(words, uniform) == value


def test_half_sum_weights_positions_by_half_length():
    assert half_sum(2, MOVER_GAME) == Fraction(1, 4) * 4 + Fraction(1, 2)
    assert half_sum(3, [(0, 0), (0, 1, 2, 2)]) == Fraction(1, 3) + Fraction(1, 9)
    assert half_sum(2, []) == 0
