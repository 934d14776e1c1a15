import itertools
import random
from fractions import Fraction

import pytest

from opengame.codes import PrefixCode
from opengame.covering import (
    EQUALS_ONE,
    EXCEEDS_ONE,
    LESS_THAN_ONE,
    Measure,
    MeasureError,
    _GOLDEN,
    _MASK64,
    _splitmix64,
    _unit,
    averaged_identity,
    exact_hit_probability,
    identity_sum,
    measure_criterion,
    mismatch_count,
    monte_carlo_hit,
    strategy_consistent_lifts,
    weighted_identity,
)
from opengame.criteria import kraft_sum
from opengame.suite import COMB_CODE, enumerate_antichain_codes
from opengame.tree import PositionSet

FULL_SQUARE = PrefixCode.of([(a, b) for a in (0, 1) for b in (0, 1)], 2)


def test_strategy_consistent_lifts_two_block_patterns():
    # mismatch at both blocks: four lifts
    assert strategy_consistent_lifts((0, 1), (1, 0)) == frozenset(
        {
            ((1, 1), (0, 1), (0, 1), (1, 1)),
            ((1, 1), (0, 1), (0, 1), (1, -1)),
            ((1, 1), (0, -1), (0, -1), (1, 1)),
            ((1, 1), (0, -1), (0, -1), (1, -1)),
        }
    )
    # mismatch at the first block only: two lifts
    assert strategy_consistent_lifts((0, 0), (1, 0)) == frozenset(
        {
            ((1, 1), (0, 1), (0, 1), (0, 1)),
            ((1, 1), (0, -1), (0, -1), (0, -1)),
        }
    )


def test_consistent_lifts_count_matches_formula_exhaustively():
    for n in range(0, 7):
        for c in itertools.product((0, 1), repeat=n):
            for x in itertools.product((0, 1), repeat=n):
                count = len(strategy_consistent_lifts(c, x))
                assert count == 2 ** mismatch_count(c, x), (c, x)


def test_consistent_lifts_are_reduction_free_lifts():
    for n in range(0, 4):
        for c in itertools.product((0, 1), repeat=n):
            for x in itertools.product((0, 1), repeat=n):
                play = tuple(s for block in zip(x, c) for s in block)
                for lift in strategy_consistent_lifts(c, x):
                    # a sign assignment of the play with no adjacent inverse pair
                    assert tuple(a for a, _ in lift) == play
                    assert all(sign in (1, -1) for _, sign in lift)
                    assert all(b != (a[0], -a[1]) for a, b in zip(lift, lift[1:]))


def test_consistent_lifts_ternary_sample():
    for c in itertools.product((0, 1, 2), repeat=3):
        x = (1, 2, 0)
        assert len(strategy_consistent_lifts(c, x)) == 2 ** mismatch_count(c, x)


def test_identity_sum_paper_code():
    report = identity_sum(COMB_CODE, (1, 1, 1))
    assert report.sum == 1 and report.verdict == EQUALS_ONE
    for c in COMB_CODE.positions:
        reduced = PrefixCode(COMB_CODE.positions - {c}, 2)
        assert identity_sum(reduced, (1, 1, 1)).verdict == LESS_THAN_ONE


def test_identity_sum_full_codes_all_x():
    for n in (1, 2, 3, 4):
        code = PrefixCode.of(itertools.product((0, 1), repeat=n), 2)
        for x in itertools.product((0, 1), repeat=n):
            assert identity_sum(code, x).sum == 1


def test_identity_sum_verdicts_match_maximality():
    from opengame.codes import is_maximal

    for k, depth in ((2, 3), (3, 2)):
        for words in enumerate_antichain_codes(k, depth):
            code = PrefixCode(words, k)
            maximal = is_maximal(code)
            for x in itertools.product(range(k), repeat=depth):
                verdict = identity_sum(code, x).verdict
                assert verdict != EXCEEDS_ONE
                assert (verdict == EQUALS_ONE) == maximal


def test_identity_verdicts_on_sampled_deep_codes():
    import random

    from opengame.codes import is_maximal

    def random_code_words(rng, k, depth):
        out = []

        def walk(w):
            if len(w) == depth:
                if rng.random() < 0.6:
                    out.append(w)
                return
            r = rng.random()
            if w and r < 0.35:
                out.append(w)
                return
            if r < 0.5:
                return
            for a in range(k):
                walk(w + (a,))

        walk(())
        return out

    rng = random.Random(31337)
    checked = 0
    while checked < 150:
        k = rng.choice((2, 3))
        depth = rng.choice((4, 5, 6)) if k == 2 else 4
        code = PrefixCode.of(random_code_words(rng, k, depth), k)
        if not 0 < len(code) <= 32:
            continue
        checked += 1
        maximal = is_maximal(code)
        for _ in range(4):
            x = tuple(rng.randrange(k) for _ in range(code.max_length))
            verdict = identity_sum(code, x).verdict
            assert verdict != EXCEEDS_ONE
            assert (verdict == EQUALS_ONE) == maximal


def test_identity_sum_rejects_non_prefix_code():
    with pytest.raises(ValueError):
        identity_sum(PrefixCode.of([(0,), (0, 1)], 2), (0, 0))
    with pytest.raises(ValueError):
        identity_sum(COMB_CODE, (1, 1))  # x too short
    maximal = PrefixCode.of([(0,), (1, 0), (1, 1)], 2)
    for x in ((0, 2), (-1, 0)):  # symbols outside the alphabet
        with pytest.raises(ValueError):
            identity_sum(maximal, x)


def test_averaged_identity_examples():
    assert averaged_identity(FULL_SQUARE, 2).sum == 1
    report = averaged_identity(PrefixCode.of([(0,)], 2), 1)
    assert report.sum == Fraction(1, 2) and report.verdict == LESS_THAN_ONE
    assert averaged_identity(COMB_CODE, 3).sum == 1


def test_measure_criterion_examples():
    uniform = Measure.uniform(2)
    report = measure_criterion(PositionSet([(0, 0)]), uniform)
    assert report.sum == Fraction(1, 2) and report.p2_certificate
    report = measure_criterion(PositionSet([(0, 0), (0, 1)]), uniform)
    assert report.sum == 1 and not report.p2_certificate
    skewed = Measure(weights={0: Fraction(1, 4), 1: Fraction(3, 4)})
    report = measure_criterion(PositionSet([(0, 0), (0, 1)]), skewed)
    assert report.sum == 1 and not report.p2_certificate


def test_measure_criterion_uniform_equals_kraft():
    uniform = Measure.uniform(2)
    for words in enumerate_antichain_codes(2, 2):
        z = PositionSet(tuple(s for a in w for s in (0, a)) for w in words)
        assert measure_criterion(z, uniform).sum == kraft_sum(z, 2)


def test_weighted_identity_uniform_reduces_to_identity_sum():
    uniform = Measure.uniform(2)
    for words in enumerate_antichain_codes(2, 2):
        code = PrefixCode(words, 2)
        for x in itertools.product((0, 1), repeat=2):
            assert weighted_identity(code, x, uniform).sum == identity_sum(code, x).sum
    # per-term agreement via single-word codes
    for w in ((0,), (1, 0), (0, 1, 1)):
        code = PrefixCode.of([w], 2)
        x = (1, 1, 1)
        assert weighted_identity(code, x, uniform).sum == identity_sum(code, x).sum


def test_weighted_identity_skewed_square_is_exactly_one():
    mu = Measure(weights={0: Fraction(1, 3), 1: Fraction(2, 3)})
    report = weighted_identity(FULL_SQUARE, (0, 0), mu)
    assert report.sum == 1 and report.verdict == EQUALS_ONE and not report.partial


def test_weighted_identity_geometric_partial_sum():
    code = PrefixCode.of([(n,) for n in range(1, 5)], 5)
    report = weighted_identity(code, None, Measure.geometric2())
    assert report.sum == Fraction(15, 16)
    assert report.partial and report.verdict == LESS_THAN_ONE
    # with a mover sequence the proposition formula also tends to 1
    big = PrefixCode.of([(n,) for n in range(1, 12)], 12)
    with_x = weighted_identity(big, (1,), Measure.geometric2())
    assert with_x.sum == 1 - Fraction(2, 3) * Fraction(1, 2) ** 10


def _random_code(rng, k, depth, prune=0):
    """A random maximal code over 0..k-1 with longest word of length depth,
    grown by splitting words into their k extensions, less ``prune`` words."""
    words = {()}
    while max(map(len, words)) < depth:
        w = rng.choice(sorted(words))
        if len(w) < depth:
            words.remove(w)
            words.update(w + (a,) for a in range(k))
    return words - set(rng.sample(sorted(words), prune))


def _skewed(rng, symbols):
    raw = rng.sample(range(1, len(symbols) + 1), len(symbols))
    return Measure(weights={a: Fraction(w, sum(raw)) for a, w in zip(symbols, raw)})


def test_lifted_measure_route_matches_weighted_identity(monkeypatch):
    from opengame import covering, criteria
    from opengame.covering import lifted_measure_sum

    cases = []
    measures = [
        Measure.uniform(2),
        Measure(weights={0: Fraction(1, 3), 1: Fraction(2, 3)}),
        Measure(weights={0: Fraction(1, 5), 1: Fraction(4, 5)}),
    ]
    for words in enumerate_antichain_codes(2, 2):
        code = PrefixCode(words, 2)
        for mu in measures:
            for x in itertools.product((0, 1), repeat=2):
                cases.append((code, x, mu))
    skew3 = Measure(weights={0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
    code3 = PrefixCode.of([(0,), (1,), (2, 0), (2, 1), (2, 2)], 3)
    for x in ((0, 0), (2, 1), (1, 2)):
        cases.append((code3, x, skew3))
    rng = random.Random(4242)
    for k in (2, 3, 4, 5):
        for prune in (0, 2):
            words = _random_code(rng, k, 5 if k == 2 else 3, prune)
            depth = max(map(len, words))
            x = tuple(rng.randrange(k) for _ in range(depth))
            cases.append((PrefixCode(words, k), x, _skewed(rng, range(k))))
            # the same code over symbols 1..k under the geometric tail
            shifted = PrefixCode([tuple(a + 1 for a in w) for w in words], k + 1)
            cases.append((shifted, tuple(a + 1 for a in x), Measure.geometric2()))

    expected = [weighted_identity(code, x, mu).sum for code, x, mu in cases]
    assert [lifted_measure_sum(code, x, mu) for code, x, mu in cases] == expected
    for code, x, _mu in cases:
        for c in code:
            for lift in strategy_consistent_lifts(c, x):
                assert tuple(a for a, _ in lift[1::2]) == c
                assert tuple(a for a, _ in lift[::2]) == tuple(x[: len(c)])

    # the cross-check stays off the kernel it checks
    def no_kernel(*args):
        raise AssertionError("lifted_measure_sum called word_sum")

    monkeypatch.setattr(criteria, "word_sum", no_kernel)
    monkeypatch.setattr(covering, "word_sum", no_kernel)
    assert [lifted_measure_sum(code, x, mu) for code, x, mu in cases] == expected


def test_monte_carlo_three_sigma_over_many_seeds():
    # the 3-sigma envelope must hold in at least 99% of seeded runs;
    # the seed list is fixed, so this is deterministic once verified
    code = PrefixCode.of([(0, 0), (0, 1, 1)], 2)
    mu = Measure(weights={0: Fraction(1, 3), 1: Fraction(2, 3)})
    ok = 0
    runs = 200
    for seed in range(runs):
        report = monte_carlo_hit(code, None, mu, 2000, seed)
        if abs(report.empirical - float(report.exact)) <= 3 * report.sigma:
            ok += 1
    assert ok >= 198, ok


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure(weights={0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        Measure(weights={0: Fraction(1, 2), 1: Fraction(1, 2)}, tail="geometric2")
    with pytest.raises(MeasureError):
        Measure.geometric2().weight(0)
    assert Measure.geometric2().weight(3) == Fraction(1, 8)


def test_splitmix64_reference_stream():
    # published reference outputs for seed 0
    state, v1 = _splitmix64(0)
    state, v2 = _splitmix64(state)
    state, v3 = _splitmix64(state)
    assert [v1, v2, v3] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_monte_carlo_examples():
    uniform = Measure.uniform(2)
    report = monte_carlo_hit(FULL_SQUARE, None, uniform, 2000, 7)
    assert report.exact == 1 and report.empirical == 1.0

    report = monte_carlo_hit(PrefixCode.of([(0, 0)], 2), None, uniform, 20000, 7)
    assert report.exact == Fraction(1, 4)
    assert abs(report.empirical - 0.25) <= 3 * report.sigma

    mu = Measure(weights={0: Fraction(1, 3), 1: Fraction(2, 3)})
    report = monte_carlo_hit(PrefixCode.of([(0,)], 2), None, mu, 20000, 7)
    assert report.exact == Fraction(1, 3)
    assert abs(report.empirical - 1 / 3) <= 3 * report.sigma


def test_monte_carlo_deterministic_given_seed():
    code = PrefixCode.of([(0,), (1, 0)], 2)
    mu = Measure.uniform(2)
    a = monte_carlo_hit(code, None, mu, 5000, 123)
    b = monte_carlo_hit(code, None, mu, 5000, 123)
    c = monte_carlo_hit(code, None, mu, 5000, 124)
    assert a.empirical == b.empirical
    assert a.empirical != c.empirical


def test_exact_hit_probability_geometric():
    code = PrefixCode.of([(1,), (2,)], 3)
    assert exact_hit_probability(code, Measure.geometric2()) == Fraction(3, 4)


def _tuple_walk_empirical(code, measure, trials, seed):
    # the reference walk: each trial draws up to the longest word from its
    # own substream, extending a tuple and looking it up after every draw
    words = code.positions
    hits = 0
    base = seed & _MASK64
    for trial in range(trials):
        state = (base ^ ((trial + 1) * _GOLDEN)) & _MASK64
        prefix = ()
        if prefix in words:
            hits += 1
            continue
        for _ in range(code.max_length):
            state, value = _splitmix64(state)
            prefix = prefix + (measure.sample(_unit(value)),)
            if prefix in words:
                hits += 1
                break
    return hits / trials


def test_monte_carlo_matches_the_tuple_walk_reference():
    rng = random.Random(909)
    # k = 5 with every word below the heaviest symbol 0 removed: most
    # trials miss at their first draw
    k5 = {w for w in _random_code(rng, 5, 3, prune=2) if w[:1] != (0,)}
    heavy0 = Measure(weights={0: Fraction(6, 10), 1: Fraction(1, 10), 2: Fraction(1, 10),
                              3: Fraction(1, 10), 4: Fraction(1, 10)})
    geometric = [tuple(a + 1 for a in w) for w in _random_code(rng, 3, 4)]
    shapes = [
        (PrefixCode.of(k5, 5), heavy0),
        (PrefixCode.of(_random_code(rng, 2, 7), 2), _skewed(rng, range(2))),
        (PrefixCode.of(geometric, 4), Measure.geometric2()),  # draws above 3 leave the code
        (PrefixCode.of([()], 2), Measure.uniform(2)),
        (PrefixCode.of([], 2), Measure.uniform(2)),
    ]
    for code, mu in shapes:
        for _ in range(20):
            seed = rng.getrandbits(63)
            report = monte_carlo_hit(code, None, mu, 400, seed)
            assert report.empirical == _tuple_walk_empirical(code, mu, 400, seed)


def test_monte_carlo_empirical_is_pinned():
    # the inverse-CDF table must reproduce every draw bit for bit
    skew = Measure(weights={0: Fraction(1, 6), 1: Fraction(1, 2), 2: Fraction(1, 3)})
    code = PrefixCode.of([(0,), (1, 0), (1, 1), (2, 2, 1)], 3)
    report = monte_carlo_hit(code, None, skew, 4000, 20260810)
    assert (report.empirical, report.exact) == (0.558, Fraction(5, 9))

    code = PrefixCode.of([(1,), (2, 1), (2, 3), (3, 3, 1)], 4)
    report = monte_carlo_hit(code, None, Measure.geometric2(), 4000, 20260810)
    assert (report.empirical, report.exact) == (0.67475, Fraction(85, 128))
