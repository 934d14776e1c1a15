"""Lifts of game positions to the free-group tree and the exact identities.

The tree of the trivial subgroup covers the k-ary game tree by forgetting
signs; away from the root it is a full tree of out-degree 2k-1, which is
where the (2k-1) weights below come from.  Counting the lifts of an
interleaved position that stay consistent with the mover's lifted
strategy gives the factor 2^(number of blocks where the responder's
symbol differs from the mover's), and summing those counts with
(2k-1)^(-length) weights yields an exact maximality test for prefix
codes.  Measure-weighted variants cover countable alphabets.  Every exact
sum here except the explicit-lift cross-check ``lifted_measure_sum`` is
computed by ``criteria.word_sum`` from a per-stage symbol weight.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .codes import PrefixCode, is_prefix_code
from .criteria import uniform_weight, word_sum
from .tree import PositionSet, hat

SignedLetter = tuple[int, int]
SignedPosition = tuple[SignedLetter, ...]

EQUALS_ONE = "equals_one"
LESS_THAN_ONE = "less_than_one"
EXCEEDS_ONE = "exceeds_one"

AVERAGING_BUDGET = 1 << 16


class MeasureError(ValueError):
    """A symbol without a weight was requested."""


def mismatch_count(c: Sequence[int], x: Sequence[int]) -> int:
    if len(x) < len(c):
        raise ValueError("mover sequence shorter than responder word")
    return sum(1 for i, symbol in enumerate(c) if symbol != x[i])


def _reduction_free(signed: SignedPosition) -> bool:
    return all(
        not (a == b and sa == -sb)
        for (a, sa), (b, sb) in zip(signed, signed[1:])
    )


def strategy_consistent_lifts(c: Sequence[int], x: Sequence[int]) -> frozenset[SignedPosition]:
    """Lifts of the play x_1 c_1 x_2 c_2 ... consistent with the lifted mover strategy.

    The mover's lifted move at block i is the positive sign unless that
    would cancel against the previous letter, in which case the sign is
    forced; the responder's sign is free whenever it cannot cancel.  The
    lifts grow one block at a time, and each is checked to be reduced.
    """
    if len(x) < len(c):
        raise ValueError("mover sequence shorter than responder word")
    lifts: list[SignedPosition] = [()]
    for xi, ci in zip(x, c):
        grown = []
        for partial in lifts:
            # forced after the same symbol: the other sign cancels
            mover_sign = partial[-1][1] if partial and partial[-1][0] == xi else 1
            for sign in (1, -1):
                if ci == xi and sign == -mover_sign:
                    continue
                grown.append(partial + ((xi, mover_sign), (ci, sign)))
        lifts = grown
    for lift in lifts:
        if not _reduction_free(lift):
            raise AssertionError("constructed lift contains a reduction")
    return frozenset(lifts)


@dataclass(frozen=True)
class IdentityReport:
    """Exact sum of an identity with its comparison against 1.

    ``partial`` marks sums over an explicitly listed piece of a code over
    a countable alphabet, where no maximality verdict is implied.
    """

    sum: Fraction
    verdict: str
    partial: bool = False

    def to_json_dict(self) -> dict:
        return {
            "sum": f"{self.sum.numerator}/{self.sum.denominator}",
            "verdict": self.verdict,
            "partial": self.partial,
        }


def _verdict(total: Fraction) -> str:
    if total == 1:
        return EQUALS_ONE
    return LESS_THAN_ONE if total < 1 else EXCEEDS_ONE


def identity_sum(code: PrefixCode, x: Sequence[int]) -> IdentityReport:
    """Exact sum of 2^mismatches * (2k-1)^(-length) over the codewords.

    Equals 1 exactly when the code is maximal and falls short of 1 for
    any non-maximal prefix code, for every x over 0..k-1; a symbol outside
    the alphabet is an error, since it would count every block as a
    mismatch.
    """
    if not is_prefix_code(code):
        raise ValueError("identity_sum requires a prefix code")
    if len(x) < code.max_length:
        raise ValueError("x must cover the longest codeword")
    if x and (min(x) < 0 or max(x) >= code.alphabet_size):
        raise ValueError(f"x uses symbols outside 0..{code.alphabet_size - 1}")
    q = 2 * code.alphabet_size - 1
    total = word_sum(code, lambda i, a: Fraction(1 if a == x[i] else 2, q))
    return IdentityReport(total, _verdict(total))


def averaged_identity(code: PrefixCode, n: int) -> IdentityReport:
    """Average the identity over all mover sequences of length n.

    The mismatch factors telescope: averaging the per-x sums over all k^n
    sequences must reproduce the plain Kraft sum of the code exactly, so
    the verdict is the Kraft comparison with 1.
    """
    if not is_prefix_code(code):
        raise ValueError("averaged_identity requires a prefix code")
    k = code.alphabet_size
    if n < code.max_length:
        raise ValueError("n must be at least the longest codeword")
    if k**n > AVERAGING_BUDGET:
        raise ValueError(
            f"averaging over {k}^{n} sequences exceeds the budget {AVERAGING_BUDGET}"
        )
    total = sum(identity_sum(code, x).sum for x in itertools.product(range(k), repeat=n))
    averaged = total / k**n
    kraft = word_sum(code, uniform_weight(k))
    if averaged != kraft:
        raise AssertionError(f"averaged identity {averaged} differs from Kraft sum {kraft}")
    return IdentityReport(kraft, _verdict(kraft))


class Measure:
    """Purely atomic probability measure on symbols.

    Either a finite table of positive rational weights summing to 1, or
    the geometric tail 2^(-n) on symbols n >= 1.
    """

    GEOMETRIC2 = "geometric2"

    def __init__(self, weights: dict[int, Fraction] | None = None, tail: str | None = None):
        if (weights is None) == (tail is None):
            raise ValueError("specify exactly one of weights or tail")
        if tail is not None and tail != self.GEOMETRIC2:
            raise ValueError(f"unknown tail {tail!r}")
        self.tail = tail
        self.weights: dict[int, Fraction] | None = None
        if weights is not None:
            table = {int(s): Fraction(w) for s, w in weights.items()}
            if any(w <= 0 for w in table.values()):
                raise ValueError("all weights must be positive")
            if sum(table.values()) != 1:
                raise ValueError("weights must sum to exactly 1")
            self.weights = table
            # inverse-CDF table for ``sample``, accumulated in symbol order
            self._symbols = sorted(table)
            self._cdf = list(itertools.accumulate(float(table[s]) for s in self._symbols))

    @classmethod
    def uniform(cls, k: int) -> "Measure":
        return cls(weights={a: Fraction(1, k) for a in range(k)})

    @classmethod
    def geometric2(cls) -> "Measure":
        return cls(tail=cls.GEOMETRIC2)

    @property
    def finite_support(self) -> bool:
        return self.weights is not None

    def weight(self, symbol: int) -> Fraction:
        if self.weights is not None:
            try:
                return self.weights[symbol]
            except KeyError:
                raise MeasureError(f"symbol {symbol} has no weight") from None
        if symbol < 1:
            raise MeasureError(f"symbol {symbol} has no weight under the geometric tail")
        return Fraction(1, 2**symbol)

    def sample(self, u: float) -> int:
        """Inverse-CDF sample from a uniform draw in [0, 1)."""
        if self.weights is not None:
            i = bisect.bisect_right(self._cdf, u)
            return self._symbols[min(i, len(self._symbols) - 1)]
        n, acc = 1, 0.5
        while u >= acc:
            n += 1
            acc += 0.5**n
        return n

    def to_json_dict(self) -> dict:
        if self.weights is not None:
            return {
                "weights": {
                    str(s): f"{w.numerator}/{w.denominator}"
                    for s, w in sorted(self.weights.items())
                }
            }
        return {"tail": self.tail}


# the name the benchmark's census workload calls: ``MeasureSpec.uniform(2)``
MeasureSpec = Measure


@dataclass(frozen=True)
class MeasureCriterionReport:
    sum: Fraction
    p2_certificate: bool

    def to_json_dict(self) -> dict:
        return {
            "sum": f"{self.sum.numerator}/{self.sum.denominator}",
            "p2_certificate": self.p2_certificate,
        }


def measure_criterion(Z: PositionSet, measure: Measure) -> MeasureCriterionReport:
    """Exact sum over the set of the product of responder-move weights.

    A total below 1 certifies a responder win: a random responder playing
    i.i.d. from the measure hits each listed position with exactly the
    product probability, and a winning mover would force total probability 1.
    """
    total = word_sum(map(hat, Z), lambda i, a: measure.weight(a))
    return MeasureCriterionReport(total, total < 1)


def weighted_identity(
    code: PrefixCode, x: Sequence[int] | None, measure: Measure
) -> IdentityReport:
    """Measure-weighted identity for prefix codes.

    With x given, each codeword c contributes
    2^mismatches * prod_i weight(c_i) / (2 - weight(x_i)); without x it is
    ``exact_hit_probability``, the sum of the plain product weights.  Both
    total exactly 1 on a maximal code over the weighted alphabet.  Sums
    over codes on an infinite-support measure are flagged partial.
    """
    if not is_prefix_code(code):
        raise ValueError("weighted_identity requires a prefix code")
    if x is not None and len(x) < code.max_length:
        raise ValueError("x must cover the longest codeword")
    if x is None:
        total = exact_hit_probability(code, measure)
    else:
        total = word_sum(
            code,
            lambda i, a: lifted_stage_weight(a, x[i], measure) * (1 if a == x[i] else 2),
        )
    partial = not measure.finite_support
    return IdentityReport(total, _verdict(total), partial)


def lifted_stage_weight(symbol: int, mover_symbol: int, measure: Measure) -> Fraction:
    """Weight of one signed responder letter on the lifted tree.

    The measure splits symmetrically over the two signs of every symbol
    except the mover's, whose backtracking sign is unreachable; after
    renormalizing, every reachable signed letter for symbol a carries
    weight(a) / (2 - weight(mover_symbol)).
    """
    return measure.weight(symbol) / (2 - measure.weight(mover_symbol))


def lifted_measure_sum(code: PrefixCode, x: Sequence[int], measure: Measure) -> Fraction:
    """Cross-check route for the weighted identity via explicit lifts.

    Enumerates the strategy-consistent lifts of every interleaved codeword
    and weights each signed responder letter with the lifted per-stage
    measure.  That weight does not depend on the sign, so all lifts of a
    codeword c weigh the same and c adds |lifts| * prod_i
    lifted_stage_weight(c_i, x_i).  The closed-form mismatch factors and
    ``word_sum`` never appear.  Must equal weighted_identity(code, x,
    measure).sum exactly.
    """
    if not is_prefix_code(code):
        raise ValueError("lifted_measure_sum requires a prefix code")
    if len(x) < code.max_length:
        raise ValueError("x must cover the longest codeword")
    total = Fraction(0)
    for c in code.positions:
        term = Fraction(len(strategy_consistent_lifts(c, x)))
        for i, symbol in enumerate(c):
            term *= lifted_stage_weight(symbol, x[i], measure)
        total += term
    return total


def exact_hit_probability(code: PrefixCode, measure: Measure) -> Fraction:
    """Probability that i.i.d. responder moves produce a prefix in the code.

    The codeword cylinders are disjoint for a prefix code, so this is the
    exact sum of the product weights.
    """
    if not is_prefix_code(code):
        raise ValueError("exact_hit_probability requires a prefix code")
    return word_sum(code, lambda i, a: measure.weight(a))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of splitmix64: new state and output value."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def _unit(value: int) -> float:
    return (value >> 11) * (2.0**-53)


@dataclass(frozen=True)
class MonteCarloReport:
    empirical: float
    exact: Fraction
    sigma: float
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "empirical": self.empirical,
            "exact": f"{self.exact.numerator}/{self.exact.denominator}",
            "sigma": self.sigma,
            "trials": self.trials,
            "seed": self.seed,
        }


def monte_carlo_hit(
    code: PrefixCode,
    x: Sequence[int] | None,
    measure: Measure,
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Simulate plays and compare the hit frequency against the exact sum.

    The responder samples i.i.d. from the measure and walks the code's
    trie; a trial ends at the first symbol that leaves it, or at a
    codeword.  Each trial draws from its own splitmix64 substream seeded
    from (seed, trial), so stopping early changes no other trial's draws
    and results are platform-independent.  ``x`` is unused, since the
    mover's symbols cannot affect whether the responder's word enters the
    code; it stays in the signature for callers that pass it
    positionally.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    exact = exact_hit_probability(code, measure)
    children, terminal = code.trie
    sample = measure.sample
    hits = 0
    base = seed & _MASK64
    for trial in range(trials):
        state = (base ^ ((trial + 1) * _GOLDEN)) & _MASK64
        node: int | None = 0
        while node is not None and not terminal[node]:
            state, value = _splitmix64(state)
            node = children[node].get(sample(_unit(value)))
        hits += node is not None
    empirical = hits / trials
    p = float(exact)
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return MonteCarloReport(empirical, exact, sigma, trials, seed)
