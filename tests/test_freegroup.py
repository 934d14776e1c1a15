import itertools
import random

import pytest
from hypothesis import given, strategies as st

from opengame.freegroup import (
    LabeledGraph,
    fold,
    hat_index,
    inverse_word,
    membership,
    parse_word,
    reduce_word,
    subgroup_index,
    word_from_position,
    word_to_str,
)
from opengame.tree import PositionSet

BRANCHED_GENS = [parse_word(w) for w in ("b", "aba", "aBa")]

letters = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=12
).map(tuple)


def test_reduce_word_examples():
    assert reduce_word(parse_word("abBa")) == ((0, 1), (0, 1))
    assert reduce_word(parse_word("aA")) == ()
    w = parse_word("baBA")
    assert reduce_word(w) == w


@given(letters)
def test_reduce_word_idempotent(w):
    once = reduce_word(w)
    assert reduce_word(once) == once


@given(letters)
def test_word_times_inverse_reduces_to_identity(w):
    assert reduce_word(reduce_word(w) + inverse_word(reduce_word(w))) == ()


def test_parse_and_str_round_trip():
    for text in ("b", "aba", "aBa", "abAB"):
        assert word_to_str(parse_word(text)) == text
    with pytest.raises(ValueError):
        parse_word("a-b")


def test_fold_branched_core_graph():
    graph = fold(BRANCHED_GENS)
    assert graph.vertex_count == 3
    # hand-derived core: loop b at the base, a to a second vertex, b down
    # to a third, a back to the base, b back up
    expected = LabeledGraph(
        vertices=[0, 1, 2],
        edges=[(0, 0, 1), (0, 1, 0), (1, 2, 1), (2, 0, 0), (2, 1, 1)],
        basepoint=0,
    )
    assert graph.canonical_form() == expected.canonical_form()


def test_fold_whole_group():
    graph = fold([parse_word("a"), parse_word("b")])
    assert graph.vertex_count == 1
    assert graph.edge_count == 2


def test_fold_two_coset_subgroup():
    graph = fold([parse_word("aa"), parse_word("b"), parse_word("abA")])
    expected = LabeledGraph(
        vertices=[0, 1],
        edges=[(0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)],
        basepoint=0,
    )
    assert graph.canonical_form() == expected.canonical_form()


def test_fold_empty_generators():
    graph = fold([])
    assert graph.vertex_count == 1 and graph.edge_count == 0
    assert graph.rank == 0


def test_index_examples():
    infinite = subgroup_index(BRANCHED_GENS, 2)
    assert infinite.value is None
    assert infinite.graph.vertex_count == 3

    whole = subgroup_index([parse_word("a"), parse_word("b")], 2)
    assert whole.value == 1 and whole.rank == 2

    two = subgroup_index([parse_word("aa"), parse_word("b"), parse_word("abA")], 2)
    assert two.value == 2 and two.rank == 3  # rank = index*(k-1)+1


def test_index_rejects_out_of_rank_generators():
    with pytest.raises(ValueError):
        subgroup_index([parse_word("c")], 2)


def test_folding_confluence_under_random_orders():
    rng = random.Random(99)
    gen_sets = [
        BRANCHED_GENS,
        [parse_word("aa"), parse_word("b"), parse_word("abA")],
        [parse_word("abab"), parse_word("ba")],
        [parse_word("aBab"), parse_word("bb"), parse_word("a")],
    ]
    for gens in gen_sets:
        reference = fold(gens).canonical_form()
        for _ in range(30):
            assert fold(gens, order_rng=rng).canonical_form() == reference


def test_membership_examples():
    assert membership(parse_word("b"), BRANCHED_GENS)
    assert not membership(parse_word("a"), BRANCHED_GENS)
    assert membership(parse_word("abaB"), BRANCHED_GENS)


def test_membership_closed_under_short_products():
    gen_sets = [
        BRANCHED_GENS,
        [parse_word("aa"), parse_word("b"), parse_word("abA")],
    ]
    for gens in gen_sets:
        pool = [reduce_word(g) for g in gens] + [inverse_word(g) for g in gens]
        for r in (1, 2, 3):
            for combo in itertools.product(pool, repeat=r):
                word = reduce_word(tuple(itertools.chain.from_iterable(combo)))
                assert membership(word, gens), combo


def test_hat_index_examples():
    assert hat_index(PositionSet([(0, 0), (0, 1)]), 2).value == 1
    assert hat_index(PositionSet([(0, 0)]), 2).value is None


def test_hat_index_matches_zero_vector_image():
    from opengame.codes import XVector, history_code

    sets = [
        PositionSet([(0, 0), (0, 1)]),
        PositionSet([(0, 0), (0, 1, 0, 0), (0, 1, 0, 1)]),
        PositionSet([(1, 1), (0, 0, 1, 1)]),
    ]
    for z in sets:
        depth = max(len(p) // 2 for p in z)
        image = history_code(z, XVector([(0, 0)] * depth, alphabet_size=2).as_mixer(z), 2)
        direct = subgroup_index([word_from_position(w) for w in image.words if w], 2)
        via_hat = hat_index(z, 2)
        assert direct.value == via_hat.value
        assert direct.graph.canonical_form() == via_hat.graph.canonical_form()


def test_graph_exports():
    graph = fold(BRANCHED_GENS)
    payload = graph.to_json_dict()
    assert payload["basepoint"] == 0
    assert len(payload["edges"]) == graph.edge_count
    dot = graph.to_dot()
    assert dot.startswith("digraph") and '"a"' in dot and '"b"' in dot


def test_positive_words_from_positions():
    assert word_from_position((0, 1, 0)) == ((0, 1), (1, 1), (0, 1))
    assert reduce_word(word_from_position((1, 1, 1))) == word_from_position((1, 1, 1))
