import itertools

import pytest
from hypothesis import given, strategies as st

from opengame.tree import (
    PositionSet,
    concat_prefix_member,
    hat,
    is_prefix,
    normalize_even,
)

positions = st.lists(st.integers(0, 2), max_size=8).map(tuple)


def test_is_prefix_examples():
    assert is_prefix((), (0, 1))
    assert is_prefix((0, 1), (0, 1))
    assert not is_prefix((1,), (0, 1))


@given(positions, positions)
def test_is_prefix_of_own_extension(p, q):
    assert is_prefix(p, p + q)


@given(positions, positions)
def test_is_prefix_antisymmetry(p, q):
    if is_prefix(p, q) and is_prefix(q, p):
        assert p == q


def test_antichain_examples():
    assert PositionSet([(0, 0), (0, 1)]).antichain
    assert not PositionSet([(0,), (0, 1)]).antichain
    assert PositionSet([]).antichain


def test_normalize_even_examples():
    assert normalize_even(PositionSet([(0,)]), 2).positions == {(0, 0), (0, 1)}
    assert normalize_even(PositionSet([(0, 0)]), 2).positions == {(0, 0)}
    assert normalize_even(PositionSet([(1,)]), 3).positions == {(1, 0), (1, 1), (1, 2)}


def test_normalize_even_requires_antichain():
    with pytest.raises(ValueError):
        normalize_even(PositionSet([(0,), (0, 1)]), 2)


def test_normalize_even_preserves_boundary_exhaustively():
    # every antichain with words of length <= 3 over two symbols
    from opengame.suite import enumerate_antichain_codes

    for words in enumerate_antichain_codes(2, 3):
        z = PositionSet(words)
        nz = normalize_even(z, 2)
        assert nz.antichain
        assert nz.even_normalized
        for q in itertools.product((0, 1), repeat=4):
            before = any(is_prefix(p, q) for p in z)
            after = any(is_prefix(p, q) for p in nz)
            assert before == after, (sorted(z.positions), q)


def test_hat_examples():
    assert hat((9, 8, 7, 6, 5)) == (8, 6)
    assert hat(()) == ()
    assert hat((1, 0, 0, 1)) == (0, 1)


@given(positions)
def test_hat_length(p):
    assert len(hat(p)) == len(p) // 2


def _concat_prefix_oracle(zset: PositionSet, w: tuple[int, ...]) -> bool:
    blocks = [z for z in zset.positions if z]
    if not blocks:
        return False
    stack: list[tuple[int, ...]] = [()]
    while stack:
        c = stack.pop()
        if len(c) >= len(w):
            if c[: len(w)] == w:
                return True
            continue
        stack.extend(c + z for z in blocks)
    return False


def test_concat_prefix_member_examples():
    z = PositionSet([(0, 0), (0, 1)])
    assert concat_prefix_member(z, (0, 1, 0, 0))
    assert not concat_prefix_member(PositionSet([(0, 0)]), (1,))
    assert concat_prefix_member(z, (0,))


def test_concat_prefix_member_matches_oracle():
    sets = [
        PositionSet([(0, 0), (0, 1)]),
        PositionSet([(0, 0)]),
        PositionSet([(0, 1), (1, 0, 1, 1)]),
        PositionSet([(1, 1)]),
        PositionSet([]),
    ]
    for z in sets:
        for n in range(5):
            for w in itertools.product((0, 1), repeat=n):
                assert concat_prefix_member(z, w) == _concat_prefix_oracle(z, w), (
                    sorted(z.positions),
                    w,
                )


def test_concat_prefix_member_rejects_unnormalized():
    with pytest.raises(ValueError):
        concat_prefix_member(PositionSet([(0,)]), (0,))
