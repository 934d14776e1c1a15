import itertools

import pytest
from hypothesis import given, strategies as st

from opengame.codes import (
    BudgetError,
    HistoryMixer,
    PrefixCode,
    XVector,
    brute_force_maximal,
    build_Z_from_code,
    equivalence_check,
    extract_generating_subset,
    history_code,
    history_equivalence_check,
    is_bifix_code,
    is_maximal,
    is_prefix_code,
    mixer_histories,
    xvectors_enumerate,
)
from opengame.criteria import is_minimal_size, kraft_sum
from opengame.freegroup import subgroup_index, word_from_position
from opengame.solver import Strategy
from opengame.suite import COMB_CODE, enumerate_antichain_codes
from opengame.tree import PositionSet, hat

FULL_SQUARE = PrefixCode.of([(a, b) for a in (0, 1) for b in (0, 1)], 2)
DEPTH4_RESPONDER_WIN = PositionSet([(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)])


def _stage_strategy(moves: tuple[int, ...], k: int = 2) -> Strategy:
    """The explicit mover table that plays moves[i] at every position of length 2i."""
    return Strategy(
        {
            p: moves[len(p) // 2]
            for i in range(len(moves))
            for p in itertools.product(range(k), repeat=2 * i)
        }
    )


def _encode(p: tuple, x: XVector, k: int) -> tuple:
    """Block encoding of one position under the lift of a per-stage vector."""
    (word,) = history_code(PositionSet([p]), x.as_mixer(PositionSet([p])), k).words
    return word


def test_is_prefix_code_examples():
    assert is_prefix_code(COMB_CODE)
    assert not is_prefix_code(PrefixCode.of([(0,), (0, 1)], 2))
    assert is_prefix_code(PrefixCode.of([], 2))


def test_is_bifix_code_examples():
    assert is_bifix_code(PrefixCode.of([(0, 1), (1, 0)], 2))
    assert not is_bifix_code(PrefixCode.of([(1,), (0, 1)], 2))
    # uniform-length codes are always bifix
    for n in (1, 2, 3):
        code = PrefixCode.of(itertools.product((0, 1), repeat=n), 2)
        assert is_bifix_code(code)


def test_is_maximal_examples():
    assert is_maximal(COMB_CODE)
    for n in range(1, 7):
        code = PrefixCode.of(itertools.product((0, 1), repeat=n), 2)
        assert is_maximal(code)
        for w in code.words:
            assert not is_maximal(PrefixCode(code.words - {w}, 2))


def test_is_maximal_rejects_non_prefix_code():
    with pytest.raises(ValueError):
        is_maximal(PrefixCode.of([(0,), (0, 1)], 2))


def test_is_maximal_agrees_with_brute_force_everywhere():
    for k, depth in ((2, 3), (3, 2)):
        for words in enumerate_antichain_codes(k, depth):
            code = PrefixCode(words, k)
            assert is_maximal(code) == brute_force_maximal(code), sorted(words)


def test_cx_encode_examples():
    x = XVector.from_bits((1, 0))
    assert _encode((1, 0, 0, 1), x, 2) == (1, 1)
    assert _encode((), x, 2) == ()
    with pytest.raises(ValueError):
        x.as_mixer(PositionSet([(0, 0, 0, 0, 0, 0)]))


@given(st.lists(st.integers(0, 1), max_size=10).map(tuple))
def test_cx_encode_zero_vector_is_hat(p):
    x = XVector([(0, 0)] * 5, alphabet_size=2)
    assert _encode(p, x, 2) == hat(p)


def test_cx_code_examples():
    z = PositionSet([(0, 0), (0, 1)])
    for x in xvectors_enumerate(2, 1):
        assert history_code(z, x.as_mixer(z), 2).words == {(0,), (1,)}
    z2 = PositionSet([(0, 0), (1, 0)])
    x1 = XVector.from_bits((1,))
    assert history_code(z2, x1.as_mixer(z2), 2).words == {(0,), (1,)}
    x0 = XVector.from_bits((0,))
    assert history_code(z2, x0.as_mixer(z2), 2).words == {(0,)}
    # a per-stage vector lifts to the history mixer h -> x_{|h|//2}(h[-1])
    for z in (z2, DEPTH4_RESPONDER_WIN):
        histories = mixer_histories(z)
        for x in xvectors_enumerate(2, 2, full=True):
            mixer = HistoryMixer({h: x.entries[len(h) // 2][h[-1]] for h in histories}, 2)
            assert x.as_mixer(z) == mixer


@given(st.data())
def test_lifted_vector_encodes_each_block_per_stage(data):
    k = data.draw(st.sampled_from((2, 3)))
    positions = data.draw(
        st.lists(st.lists(st.integers(0, k - 1), max_size=6).map(tuple), max_size=8)
    )
    z = PositionSet(positions)
    depth = max((len(p) // 2 for p in positions), default=0)
    tables = st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    entries = data.draw(st.lists(tables, min_size=depth, max_size=depth + 1))
    x = XVector(entries, alphabet_size=k)
    expected = {
        tuple((entries[i][p[2 * i]] + p[2 * i + 1]) % k for i in range(len(p) // 2))
        for p in positions
    }
    assert history_code(z, x.as_mixer(z), k).words == expected


def test_xvectors_enumerate_counts():
    assert len(xvectors_enumerate(2, 2)) == 4
    assert len(xvectors_enumerate(3, 1)) == 9
    assert len(xvectors_enumerate(2, 0)) == 1
    assert len(xvectors_enumerate(2, 1, full=True)) == 4
    assert len(xvectors_enumerate(3, 1, full=True)) == 27


def test_xvector_normalization_and_shorthand():
    x = XVector.from_bits((0, 1))
    assert all(e[0] == 0 for e in x.entries)
    assert x.entries == ((0, 0), (0, 1))
    # normalized: a block whose mover symbol is 0 encodes as its responder symbol
    assert all(_encode((0, b, 0, c), x, 2) == (b, c) for b in (0, 1) for c in (0, 1))
    full = XVector([(1, 0)], alphabet_size=2)
    assert not all(e[0] == 0 for e in full.entries)
    assert _encode((0, 0), full, 2) == (1,)


def test_equivalence_check_examples():
    report = equivalence_check(PositionSet([(0, 0), (0, 1)]), 2)
    assert report.winner == 1 and report.all_maximal and report.equiv_holds

    report = equivalence_check(PositionSet([(0, 0), (1, 1)]), 2)
    assert report.winner == 2 and not report.all_maximal and report.equiv_holds
    assert report.witness == XVector.from_bits((1,))  # least failing vector

    # a depth-6 mover win: every one of the history mixers keeps the image maximal
    z6 = build_Z_from_code(COMB_CODE, _stage_strategy((1, 1, 1)))
    report = history_equivalence_check(z6, 2)
    assert report.winner == 1 and report.all_maximal and report.equiv_holds
    assert report.checked == 2 ** len(mixer_histories(z6))


def test_equivalence_check_reports_the_depth4_exception_faithfully():
    # A responder win whose every image is maximal: the checker must report
    # the failed equivalence rather than mask it.
    z = DEPTH4_RESPONDER_WIN
    report = equivalence_check(z, 2)
    assert report.winner == 2
    assert report.all_maximal
    assert not report.equiv_holds
    assert report.witness is None
    full = equivalence_check(z, 2, full=True)
    assert full.all_maximal and not full.equiv_holds

    # history mixers close the gap: the least witness flips the last block
    history = history_equivalence_check(z, 2)
    assert history.winner == 2 and not history.all_maximal and history.equiv_holds
    image = history_code(z, history.witness, 2)
    assert not (is_prefix_code(image) and is_maximal(image))
    assert history.to_json_dict()["witness"]["table"] == [
        [[0], 0], [[0, 0, 0], 0], [[0, 1, 0], 0], [[1], 0], [[1, 0, 0], 0], [[1, 1, 0], 1]
    ]


def test_equivalence_check_rejects_non_minimal():
    with pytest.raises(ValueError):
        equivalence_check(PositionSet([(0, 0)]), 2)
    with pytest.raises(ValueError):
        history_equivalence_check(PositionSet([(0, 0)]), 2)


def test_history_equivalence_check_budget():
    # six odd-length histories give 2^6 mixers
    assert history_equivalence_check(DEPTH4_RESPONDER_WIN, 2, budget=64).equiv_holds
    with pytest.raises(BudgetError):
        history_equivalence_check(DEPTH4_RESPONDER_WIN, 2, budget=63)


def test_equivalence_normalized_matches_full_enumeration_on_tiny_instances():
    squares = [(a, b) for a in (0, 1) for b in (0, 1)]
    for combo in itertools.combinations(squares, 2):
        z = PositionSet(combo)
        assert (
            equivalence_check(z, 2).equiv_holds
            == equivalence_check(z, 2, full=True).equiv_holds
        )
    assert equivalence_check(PositionSet([()]), 2).equiv_holds


def test_build_Z_from_code_examples():
    z = build_Z_from_code(PrefixCode.of([(0,), (1,)], 2), _stage_strategy((0,)))
    assert z.positions == {(0, 0), (0, 1)}

    z6 = build_Z_from_code(COMB_CODE, _stage_strategy((1, 1, 1)))
    assert is_minimal_size(z6, 2)

    z0 = build_Z_from_code(PrefixCode.of([(0,)], 2), _stage_strategy((0,)))
    assert kraft_sum(z0, 2) == kraft_sum(PositionSet([(0, 0)]), 2)


def test_build_Z_round_trip_matches_maximality():
    s1 = _stage_strategy((0, 1, 0))
    for words in enumerate_antichain_codes(2, 3):
        code = PrefixCode(words, 2)
        z = build_Z_from_code(code, s1)
        assert is_minimal_size(z, 2) == is_maximal(code)


def test_built_Z_is_consistent_with_its_strategy():
    from opengame.solver import consistent_positions

    s1 = _stage_strategy((1, 1, 1))
    z = build_Z_from_code(COMB_CODE, s1)
    assert consistent_positions(z, s1).positions == z.positions


def test_extract_generating_subset_bound_and_index():
    cases = []
    zx = PositionSet([(0, b1, 0, b2) for b1 in (0, 1) for b2 in (0, 1)])
    cases.append((zx, XVector([(0, 0)] * 2, alphabet_size=2), 2, 3))
    z2 = PositionSet([(0, 0), (0, 1)])
    cases.append((z2, XVector.from_bits((0,)), 2, 2))
    z6 = build_Z_from_code(COMB_CODE, _stage_strategy((1, 1, 1)))
    cases.append((z6, XVector([(0, 0)] * 3, alphabet_size=2), 2, 4))
    for z, x, k, bound in cases:
        subset = extract_generating_subset(z, x, k)
        assert len(subset.positions) <= bound
        assert subset.positions <= z.positions
        gens = [word_from_position(w) for w in history_code(subset, x.as_mixer(subset), k).words]
        assert subgroup_index(gens, k).is_finite


def test_extract_generating_subset_keeps_full_pair():
    z = PositionSet([(0, 0), (0, 1)])
    subset = extract_generating_subset(z, XVector.from_bits((0,)), 2)
    assert subset.positions == z.positions


def test_prefix_code_validation():
    with pytest.raises(ValueError):
        PrefixCode.of([(2,)], 2)
    with pytest.raises(ValueError):
        PrefixCode.of([(0,)], 1)
