import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from opengame.codes import (
    HistoryMixer,
    PrefixCode,
    XVector,
    _maximal_by_completeness,
    _maximal_by_kraft,
    brute_force_maximal,
    build_Z_from_code,
    equivalence_check,
    extract_generating_subset,
    history_code,
    history_encode,
    history_equivalence_check,
    is_bifix_code,
    is_maximal,
    is_prefix_code,
    mixer_histories,
)
from opengame.criteria import is_minimal_size, kraft_sum
from opengame.freegroup import subgroup_index, word_from_position
from opengame.solver import BudgetExceededError, GameInstance, Strategy, solve
from opengame.suite import COMB_CODE, enumerate_antichain_codes, geometric_ladder
from opengame.tree import PositionSet, hat, is_prefix

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


def _vectors(k: int, depth: int, full: bool = False) -> list[XVector]:
    """Every per-stage vector of the given depth; entry 0 fixed at 0 unless ``full``."""
    tables = [t for t in itertools.product(range(k), repeat=k) if full or t[0] == 0]
    return [XVector(c, alphabet_size=k) for c in itertools.product(tables, repeat=depth)]


def _all_maximal(z: PositionSet, k: int, vectors) -> bool:
    images = (history_code(z, x.as_mixer(z), k) for x in vectors)
    return all(is_prefix_code(image) and is_maximal(image) for image in images)


def _encode(p: tuple, x: XVector, k: int) -> tuple:
    """Block encoding of one position under the lift of a per-stage vector."""
    z = PositionSet([p])
    (word,) = history_code(z, x.as_mixer(z), k).positions
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
        for w in code.positions:
            assert not is_maximal(PrefixCode(code.positions - {w}, 2))


def test_is_maximal_rejects_non_prefix_code():
    with pytest.raises(ValueError):
        is_maximal(PrefixCode.of([(0,), (0, 1)], 2))


def test_prefix_code_symbol_checks_name_the_first_offending_word():
    with pytest.raises(ValueError, match=re.escape("negative symbol in position (1, -2)")):
        PrefixCode([(0, 1), (1, -2), (-1,)], 2)
    words = [(0, 1), (2, 0, 1), (1, 1, 3), (1, 2), ()]
    first = next(w for w in PositionSet(words) if any(a >= 2 for a in w))
    with pytest.raises(ValueError, match=re.escape(f"symbol out of range in {first!r}")):
        PrefixCode(words, 2)


def test_maximality_routes_agree():
    rng = random.Random(77)
    cases = [(PrefixCode([], 2), False), (PrefixCode([()], 3), True)]
    for k in (2, 3, 4):
        for _ in range(15):
            words = {()}  # a random maximal code: split words into their k extensions
            for _ in range(rng.randrange(1, 12)):
                w = rng.choice(sorted(words))
                words.remove(w)
                words.update(w + (a,) for a in range(k))
            cases.append((PrefixCode(words, k), True))
            pruned = words - set(rng.sample(sorted(words), rng.randrange(1, min(4, len(words)))))
            cases.append((PrefixCode(pruned, k), False))
    comb = [(0,) * i + (1,) for i in range(1500)]
    cases += [(PrefixCode(comb + [(0,) * 1500], 2), True), (PrefixCode(comb, 2), False)]
    for code, maximal in cases:
        assert _maximal_by_kraft(code) == _maximal_by_completeness(code) == maximal, code


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
    for x in _vectors(2, 1):
        assert history_code(z, x.as_mixer(z), 2).positions == {(0,), (1,)}
    z2 = PositionSet([(0, 0), (1, 0)])
    x1 = XVector.from_bits((1,))
    assert history_code(z2, x1.as_mixer(z2), 2).positions == {(0,), (1,)}
    x0 = XVector.from_bits((0,))
    assert history_code(z2, x0.as_mixer(z2), 2).positions == {(0,)}
    # a per-stage vector lifts to the history mixer h -> x_{|h|//2}(h[-1])
    for z in (z2, DEPTH4_RESPONDER_WIN):
        histories = mixer_histories(z)
        for x in _vectors(2, 2, full=True):
            mixer = HistoryMixer({h: x.entries[len(h) // 2][h[-1]] for h in histories}, 2)
            assert x.as_mixer(z) == mixer


@given(
    st.sampled_from((2, 3)).flatmap(
        lambda k: st.sets(st.lists(st.integers(0, k - 1), max_size=7).map(tuple), max_size=10)
    )
)
def test_mixer_histories_are_the_odd_proper_prefixes(words):
    # any word set: prefixes of one another, odd lengths, the empty set and {()}
    z = PositionSet(words)
    expected = sorted({p[: 2 * i + 1] for p in words for i in range(len(p) // 2)})
    assert mixer_histories(z) == expected
    assert mixer_histories(PositionSet([])) == mixer_histories(PositionSet([()])) == []


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
    assert history_code(z, x.as_mixer(z), k).positions == expected


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
    report = equivalence_check(PositionSet([(0, 0), (0, 1)]), 2, per_stage=True)
    assert report.winner == 1 and report.all_maximal and report.equiv_holds

    report = equivalence_check(PositionSet([(0, 0), (1, 1)]), 2, per_stage=True)
    assert report.winner == 2 and not report.all_maximal and report.equiv_holds
    assert report.witness == XVector.from_bits((1,))  # shifts block 0 of 11 onto 00

    # a depth-6 mover win: every one of the history mixers keeps the image maximal
    z6 = build_Z_from_code(COMB_CODE, _stage_strategy((1, 1, 1)))
    report = history_equivalence_check(z6, 2)
    assert report.winner == 1 and report.all_maximal and report.equiv_holds
    assert report.checked == 2 ** len(mixer_histories(z6))


def test_equivalence_check_reports_the_depth4_exception_faithfully():
    # A responder win whose every image is maximal: the checker must report
    # the failed equivalence rather than mask it.
    z = DEPTH4_RESPONDER_WIN
    report = equivalence_check(z, 2, per_stage=True)
    assert report.winner == 2
    assert report.all_maximal
    assert not report.equiv_holds
    assert report.witness is None
    assert report.checked == 6  # every pair of the four positions
    assert _all_maximal(z, 2, _vectors(2, 2, full=True))

    # history mixers close the gap: the least witness flips the last block
    history = history_equivalence_check(z, 2)
    assert history.winner == 2 and not history.all_maximal and history.equiv_holds
    image = history_code(z, history.witness, 2)
    assert not (is_prefix_code(image) and is_maximal(image))
    assert history.to_json_dict()["witness"]["table"] == [
        [[0], 0], [[0, 0, 0], 0], [[0, 1, 0], 0], [[1], 0], [[1, 0, 0], 0], [[1, 1, 0], 1]
    ]

    # the pair test finds the split of sorted neighbours 0100, 1001 at move 0
    split = equivalence_check(z, 2)
    assert split.winner == 2 and not split.all_maximal and split.equiv_holds
    assert split.checked == 2
    assert split.to_json_dict()["witness"]["table"] == [
        [[0], 0], [[0, 0, 0], 0], [[0, 1, 0], 0], [[1], 1], [[1, 0, 0], 1], [[1, 1, 0], 0]
    ]
    assert history_code(z, split.witness, 2).positions == {(0, 0), (0, 1), (1, 0)}


def test_equivalence_check_rejects_non_minimal():
    # the flagged ladder's closed-form tail sums to 1, its listed positions to 7/8
    ladder = geometric_ladder(3)
    assert is_minimal_size(ladder, 2)
    for z in (PositionSet([(0, 0)]), ladder):
        for per_stage in (False, True):
            with pytest.raises(ValueError, match="requires a minimal-size set"):
                equivalence_check(z, 2, per_stage=per_stage)
        with pytest.raises(ValueError, match="requires a minimal-size set"):
            history_equivalence_check(z, 2)
    with pytest.raises(ValueError, match="requires a minimal-size set"):
        extract_generating_subset(ladder, XVector.from_bits((0, 0, 0)), 2)


def test_history_equivalence_check_budget():
    # six odd-length histories give 2^6 mixers
    assert history_equivalence_check(DEPTH4_RESPONDER_WIN, 2, budget=64).equiv_holds
    with pytest.raises(BudgetExceededError):
        history_equivalence_check(DEPTH4_RESPONDER_WIN, 2, budget=63)


def test_equivalence_normalized_matches_full_enumeration_on_tiny_instances():
    # the per-stage pair test against the full function space on depth 2, and
    # against the normalized vectors on every four-element depth-4 set, which
    # hold all four binary depth-4 converse failures
    squares = [(a, b) for a in (0, 1) for b in (0, 1)]
    for combo in itertools.combinations(squares, 2):
        z = PositionSet(combo)
        report = equivalence_check(z, 2, per_stage=True)
        assert report.all_maximal == _all_maximal(z, 2, _vectors(2, 1, full=True))
    assert equivalence_check(PositionSet([()]), 2, per_stage=True).equiv_holds
    converse_failures = 0
    for combo in itertools.combinations(itertools.product((0, 1), repeat=4), 4):
        z = PositionSet(combo)
        report = equivalence_check(z, 2, per_stage=True)
        assert report.all_maximal == _all_maximal(z, 2, _vectors(2, 2)), combo
        converse_failures += not report.equiv_holds
    assert converse_failures == 4


def _random_minimal_antichain(rng: random.Random, k: int, splits: int) -> PositionSet:
    """A random antichain whose listed Kraft-type sum is 1, odd lengths included.

    Each split replaces an element p by p + (a, b) for k distinct blocks
    (a, b): on a one-strategy draw always (a, 0), ..., (a, k - 1), which
    keeps a mover win.  At the end some elements get one more mover
    symbol, which keeps the sum.
    """
    one_strategy = rng.random() < 0.5
    squares = list(itertools.product(range(k), repeat=2))
    z = [()]
    for _ in range(splits):
        p = z.pop(rng.randrange(len(z)))
        if one_strategy or rng.random() < 0.5:
            a = rng.randrange(k)
            z += [p + (a, b) for b in range(k)]
        else:
            z += [p + block for block in rng.sample(squares, k)]
    return PositionSet(p + (rng.randrange(k),) if rng.random() < 0.2 else p for p in z)


def test_pair_test_matches_solver_and_enumerations_on_random_sets():
    rng = random.Random(2026)
    enumerated = [0, 0]
    for _ in range(400):
        k = rng.choice((2, 3, 4))
        z = _random_minimal_antichain(rng, k, rng.randint(0, 6))
        winner = solve(GameInstance(k, z)).winner
        history = equivalence_check(z, k)
        stage = equivalence_check(z, k, per_stage=True)
        assert history.winner == stage.winner == winner
        assert history.equiv_holds, z
        assert winner == 2 or stage.all_maximal, z
        if k ** len(mixer_histories(z)) <= 256:
            enumerated[0] += 1
            assert history_equivalence_check(z, k).all_maximal == history.all_maximal, z
        depth = max(len(p) // 2 for p in z)
        if k ** ((k - 1) * depth) <= 256:
            enumerated[1] += 1
            assert _all_maximal(z, k, _vectors(k, depth)) == stage.all_maximal, z
        for report, mixer in (
            (history, history.witness),
            (stage, stage.witness and stage.witness.as_mixer(z)),
        ):
            if report.witness is not None:
                image = history_code(z, mixer, k)
                assert not (is_prefix_code(image) and is_maximal(image)), z
    assert min(enumerated) >= 100


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
    s1 = _stage_strategy((1, 1, 1))
    z = build_Z_from_code(COMB_CODE, s1)
    for p in z:
        assert all(s1.move(p[:i]) == p[i] for i in range(0, len(p), 2)), p


def _generating_subset_cases() -> list:
    """(Z, x, k, size bound): the full square, the full pair and the comb code."""
    cases = []
    zx = PositionSet([(0, b1, 0, b2) for b1 in (0, 1) for b2 in (0, 1)])
    cases.append((zx, XVector([(0, 0)] * 2, alphabet_size=2), 2, 3))
    z2 = PositionSet([(0, 0), (0, 1)])
    cases.append((z2, XVector.from_bits((0,)), 2, 2))
    z6 = build_Z_from_code(COMB_CODE, _stage_strategy((1, 1, 1)))
    cases.append((z6, XVector([(0, 0)] * 3, alphabet_size=2), 2, 4))
    return cases


def test_extract_generating_subset_bound_and_index():
    for z, x, k, bound in _generating_subset_cases():
        subset = extract_generating_subset(z, x, k)
        assert len(subset.positions) <= bound
        assert subset.positions <= z.positions
        image = history_code(subset, x.as_mixer(subset), k)
        gens = [word_from_position(w) for w in image.positions]
        assert subgroup_index(gens, k).is_finite


def test_extract_generating_subset_keeps_full_pair():
    z = PositionSet([(0, 0), (0, 1)])
    subset = extract_generating_subset(z, XVector.from_bits((0,)), 2)
    assert subset.positions == z.positions


def _linear_scan_subset(z: PositionSet, x: XVector, k: int) -> PositionSet:
    """The generating subset picked by scanning every image word for each extension."""
    mixer = x.as_mixer(z)
    representative: dict = {}
    for p in sorted(z.positions):
        representative.setdefault(history_encode(p, mixer, k), p)
    words = list(representative)
    longest = max(len(w) for w in words)
    c1 = min(w for w in words if len(w) == longest)
    chosen = {c1}
    for j in range(len(c1), 0, -1):
        for a in range(k):
            if a != c1[j - 1]:
                extension = c1[: j - 1] + (a,)
                chosen.add(min(w for w in words if is_prefix(extension, w)))
    return PositionSet(representative[w] for w in chosen)


def test_extract_generating_subset_matches_the_linear_scan():
    rng = random.Random(24)
    cases = [(z, x, k) for z, x, k, _ in _generating_subset_cases()]
    while len(cases) < 80:
        k = rng.choice((2, 3))
        z = _random_minimal_antichain(rng, k, rng.randint(1, 8))
        if solve(GameInstance(k, z)).winner == 1:
            depth = max(len(p) // 2 for p in z)
            entries = [[rng.randrange(k) for _ in range(k)] for _ in range(depth)]
            cases.append((z, XVector(entries, alphabet_size=k), k))
    for z, x, k in cases:
        assert extract_generating_subset(z, x, k) == _linear_scan_subset(z, x, k), z


def test_prefix_code_validation():
    with pytest.raises(ValueError):
        PrefixCode.of([(2,)], 2)
    with pytest.raises(ValueError):
        PrefixCode.of([(0,)], 1)
