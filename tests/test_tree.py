import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from opengame.tree import (
    PositionSet,
    hat,
    is_prefix,
    normalize_even,
)

positions = st.lists(st.integers(0, 2), max_size=8).map(tuple)


@st.composite
def word_sets(draw):
    """(k, set of words over 0..k-1) with k <= 3, length <= 8, the root included."""
    k = draw(st.integers(2, 3))
    word = st.lists(st.integers(0, k - 1), max_size=8).map(tuple)
    return k, draw(st.sets(word, max_size=12))


def _minimal_elements(words):
    # the quadratic reference: the elements with no proper prefix in the set
    return {p for p in words if not any(p[:j] in words for j in range(len(p)))}


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


@settings(max_examples=200)
@given(word_sets())
def test_antichain_matches_definition(drawn):
    _, words = drawn
    assert PositionSet(words).antichain == (_minimal_elements(words) == words)


@settings(max_examples=200)
@given(word_sets())
def test_trie_nodes_are_the_prefixes_in_preorder(drawn):
    _, words = drawn
    children, terminal = PositionSet(words).trie
    labels = [()] + [None] * (len(children) - 1)  # node id -> its word
    for node, below in enumerate(children):
        for symbol, child in below.items():
            assert child > node
            labels[child] = labels[node] + (symbol,)
    prefixes = {w[:j] for w in words for j in range(len(w) + 1)} | {()}
    assert len(labels) == len(prefixes) and set(labels) == prefixes
    assert labels == sorted(labels)
    assert terminal == [p in words for p in labels]
    assert PositionSet(words).trie_words() == labels


@settings(max_examples=200)
@given(word_sets())
def test_normalize_even_output_is_an_even_antichain_with_the_same_boundary(drawn):
    # pins what normalize_even guarantees by construction, so it need not
    # re-check its result at run time
    k, words = drawn
    z = PositionSet(_minimal_elements(words))
    nz = normalize_even(z, k)
    assert _minimal_elements(nz.positions) == nz.positions
    assert nz.even_normalized
    for q in nz:
        assert sum(is_prefix(p, q) for p in z) == 1, (sorted(z.positions), q)
    for p in z:
        below = {q for q in nz if is_prefix(p, q)}
        if len(p) % 2:
            assert below == {p + (a,) for a in range(k)}
        else:
            assert below == {p}


def test_negative_symbol_names_the_first_offending_position():
    with pytest.raises(ValueError, match=re.escape("negative symbol in position (2, -1)")):
        PositionSet([(0, 1), (2, -1), (-3,)])
    with pytest.raises(ValueError, match=re.escape("negative symbol in position (-1,)")):
        PositionSet([[-1]])


def test_normalize_even_examples():
    assert normalize_even(PositionSet([(0,)]), 2).positions == {(0, 0), (0, 1)}
    assert normalize_even(PositionSet([(0, 0)]), 2).positions == {(0, 0)}
    assert normalize_even(PositionSet([(1,)]), 3).positions == {(1, 0), (1, 1), (1, 2)}


def test_normalize_even_requires_antichain():
    with pytest.raises(ValueError, match="^normalize_even requires an antichain$"):
        normalize_even(PositionSet([(0,), (0, 1)]), 2)
    with pytest.raises(ValueError, match="^normalize_even requires an antichain$"):
        normalize_even(PositionSet([(), (1, 1)]), 2)


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
