import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opengame.codes import PrefixCode
from opengame.covering import (
    Measure,
    exact_hit_probability,
    measure_criterion,
    weighted_identity,
)
from opengame.criteria import (
    is_geometric_ladder,
    is_minimal_size,
    kraft_sum,
    moran_dimension,
    p2_certificate,
    subtree_criterion,
    word_sum,
)
from opengame.suite import enumerate_antichain_codes, geometric_ladder, random_even_antichain
from opengame.tree import PositionSet, normalize_even


def test_kraft_sum_examples():
    assert kraft_sum(PositionSet([(0, 0), (0, 1)]), 2) == 1
    assert kraft_sum(geometric_ladder(5), 2) == 1  # closed-form tail
    assert kraft_sum(PositionSet(geometric_ladder(3).positions), 2) == Fraction(7, 8)


def test_kraft_sum_handles_odd_lengths():
    # floor-halved exponents: a length-1 position weighs 1
    assert kraft_sum(PositionSet([(0,)]), 2) == 1
    assert kraft_sum(PositionSet([(0, 1, 0)]), 2) == Fraction(1, 2)


def test_ladder_shape_detection():
    assert is_geometric_ladder(geometric_ladder(4))
    assert not is_geometric_ladder(PositionSet(geometric_ladder(4).positions))  # unflagged
    assert not is_geometric_ladder(PositionSet([(0, 0), (0, 1)], infinite_family=True))
    assert not is_geometric_ladder(PositionSet([], infinite_family=True))


def test_p2_certificate_examples():
    cert = p2_certificate(PositionSet([(0, 0)]), 2)
    assert cert is not None and cert.sum == Fraction(1, 2)
    assert p2_certificate(PositionSet([(0, 0), (0, 1)]), 2) is None
    family = p2_certificate(geometric_ladder(4), 2)
    assert family is not None and family.reason == "infinite_family_sum_at_most_one"


def test_p2_certificate_flagged_without_ladder_shape_is_truncation_scoped():
    z = PositionSet([(0, 0), (0, 1, 0, 0), (0, 1, 0, 1)], infinite_family=True)
    cert = p2_certificate(z, 2)
    assert cert is None  # partial sum is exactly 1; no family conclusion

    z2 = PositionSet([(0, 0, 0, 0), (0, 1, 0, 0)], infinite_family=True)
    cert2 = p2_certificate(z2, 2)
    assert cert2 is not None and cert2.sum == Fraction(1, 2)
    assert cert2.note is not None  # scoped to the listed truncation


FLAGGED_NON_LADDER = PositionSet([(0, 0, 0, 0), (0, 1, 0, 0)], infinite_family=True)


def test_readers_without_a_tail_refuse_flagged_sets():
    # the family's further positions are not given, so no truncation is summed
    for z in (geometric_ladder(3), FLAGGED_NON_LADDER):
        with pytest.raises(ValueError, match="flagged infinite"):
            subtree_criterion(z, 2, 2)
        with pytest.raises(ValueError, match="flagged infinite"):
            measure_criterion(z, Measure.uniform(2))
    with pytest.raises(ValueError, match="no tail"):
        moran_dimension(FLAGGED_NON_LADDER, 2)


def test_subtree_criterion_examples():
    z = PositionSet([(0, 0), (0, 1)])
    assert subtree_criterion(z, 2, 0) == 1
    assert subtree_criterion(z, 2, 2) == 1
    assert subtree_criterion(PositionSet([(0, 0, 0, 0)]), 2, 2) == Fraction(1, 2)


def test_subtree_criterion_level_zero_is_kraft():
    for words in enumerate_antichain_codes(2, 2):
        z = normalize_even(PositionSet(words), 2)
        assert subtree_criterion(z, 2, 0) == kraft_sum(z, 2)


def _subtree_by_root(z: PositionSet, k: int, n: int) -> Fraction:
    """The definition: rescale the sum below each length-n root, one root at a time."""
    def below(root):
        return sum((Fraction(1, k ** (len(p) // 2)) for p in z if p[:n] == root), Fraction(0))

    return max(k ** (n // 2) * below(root) for root in {p[:n] for p in z})


def test_subtree_criterion_matches_the_per_root_definition():
    rng = random.Random(2026)
    for _ in range(300):
        k = rng.choice((2, 3))
        z = random_even_antichain(rng, k, rng.choice((2, 4, 6)))
        if not z.positions:
            continue
        for n in range(z.min_length + 1):
            assert subtree_criterion(z, k, n) == _subtree_by_root(z, k, n)


def test_subtree_criterion_range_errors():
    with pytest.raises(ValueError):
        subtree_criterion(PositionSet([(0, 0)]), 2, 3)
    with pytest.raises(ValueError):
        subtree_criterion(PositionSet([]), 2, 1)
    assert subtree_criterion(PositionSet([]), 2, 0) == 0


def test_is_minimal_size():
    assert is_minimal_size(PositionSet([(0, 0), (0, 1)]), 2)
    assert not is_minimal_size(PositionSet([(0, 0)]), 2)
    assert is_minimal_size(geometric_ladder(7), 2)


def test_moran_examples():
    root = moran_dimension(geometric_ladder(6), 2)
    assert abs(root.d - 0.5) <= 1e-9
    assert not root.below_half

    everything = moran_dimension(PositionSet([(a, b) for a in (0, 1) for b in (0, 1)]), 2)
    assert everything.d == 1.0 and not everything.below_half

    single = moran_dimension(PositionSet([(0, 0)]), 2)
    assert single.d == 0.0 and single.below_half


def test_moran_residual_and_threshold_agreement():
    for words in enumerate_antichain_codes(2, 2):
        if not words or () in words:
            continue
        z = normalize_even(PositionSet(words), 2)
        root = moran_dimension(z, 2)
        assert root.residual < 1e-12
        assert root.below_half == (kraft_sum(z, 2) < 1)
        if abs(root.d - 0.5) > 1e-9:
            assert root.below_half == (root.d < 0.5)


def test_moran_rejects_bad_input():
    with pytest.raises(ValueError):
        moran_dimension(PositionSet([]), 2)
    with pytest.raises(ValueError):
        moran_dimension(PositionSet([(0,)]), 2)
    with pytest.raises(ValueError):
        moran_dimension(PositionSet([()]), 2)  # constant term, no unique root


DEPTH = 6
SYMBOLS = 4
words_of = lambda k: st.lists(st.lists(st.integers(0, k - 1), max_size=DEPTH).map(tuple), max_size=12)
rationals = st.fractions(min_value=Fraction(1, 60), max_value=2, max_denominator=60)


@st.composite
def stage_weights(draw):
    """A per-stage weight: uniform, skewed finite, geometric, or doubled on mismatches."""
    kind = draw(st.sampled_from(["uniform", "skewed", "geometric", "doubled"]))
    if kind == "uniform":
        w = Fraction(1, draw(st.integers(2, 7)))
        return lambda i, a: w
    if kind == "geometric":
        return lambda i, a: Fraction(1, 2 ** (a + 1))
    rows = st.lists(rationals, min_size=SYMBOLS, max_size=SYMBOLS)
    table = draw(st.lists(rows, min_size=DEPTH, max_size=DEPTH))
    if kind == "skewed":
        return lambda i, a: table[i][a]
    x = draw(st.lists(st.integers(0, SYMBOLS - 1), min_size=DEPTH, max_size=DEPTH))
    return lambda i, a: table[i][a] * (1 if a == x[i] else 2)


def prefix_free(words):
    elems = set(words)
    return [w for w in elems if not any(w[:j] in elems for j in range(len(w)))]


@given(words_of(SYMBOLS), stage_weights())
def test_word_sum_matches_the_plain_fraction_sum(words, weight):
    expected = sum(
        (math.prod((weight(i, a) for i, a in enumerate(w)), start=Fraction(1)) for w in words),
        Fraction(0),
    )
    assert word_sum(words, weight) == expected


@given(st.integers(2, SYMBOLS).flatmap(lambda k: st.tuples(st.just(k), words_of(k))))
def test_kraft_sum_is_the_uniform_measure_criterion(case):
    k, words = case
    z = PositionSet(words)
    assert kraft_sum(z, k) == measure_criterion(z, Measure.uniform(k)).sum


@given(
    st.integers(2, SYMBOLS).flatmap(
        lambda k: st.tuples(
            words_of(k), st.lists(st.integers(1, 9), min_size=k, max_size=k), st.booleans()
        )
    )
)
def test_exact_hit_probability_is_the_plain_weighted_identity(case):
    words, raw, geometric = case
    if geometric:
        code = PrefixCode.of([tuple(a + 1 for a in w) for w in prefix_free(words)], len(raw) + 1)
        mu = Measure.geometric2()
    else:
        code = PrefixCode.of(prefix_free(words), len(raw))
        mu = Measure(weights={a: Fraction(r, sum(raw)) for a, r in enumerate(raw)})
    assert exact_hit_probability(code, mu) == weighted_identity(code, None, mu).sum
