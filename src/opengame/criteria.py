"""Exact Kraft-type sums and winner criteria for open winning sets.

``word_sum`` is the one exact weighted-sum kernel of the package: the
Kraft-type sums here, prefix-code maximality in ``codes``, the measure
criterion and the covering identities in ``covering`` and the minimal-size
check in ``solver`` all compute their exact sums with it.  The only
floating-point value is the Moran exponent, which is reported together
with its residual.  A position of length n carries weight
k^(-floor(n/2)): the responder moves floor(n/2) times before the position
is complete, so the weight is the uniform chance of matching it.  What a
set flagged as an infinite family certifies is decided here alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .tree import Position, PositionSet, hat

MORAN_RESIDUAL_BOUND = 1e-12


@dataclass(frozen=True)
class P2Certificate:
    """Witness that the responder wins, derived from an exact sum."""

    sum: Fraction
    reason: str
    note: str | None = None


@dataclass(frozen=True)
class MoranRoot:
    """Root d of  sum_p k^(-d*len(p)) = 1  with its residual.

    ``below_half`` is decided exactly: the sum is strictly decreasing in d,
    so d < 1/2 iff the sum at d = 1/2 (the half-power Kraft sum) exceeds 1.
    """

    d: float
    residual: float
    below_half: bool


def word_sum(
    words: Iterable[Sequence[int]], weight: Callable[[int, int], Fraction]
) -> Fraction:
    """Exact sum over ``words`` (repeats count) of the product of weight(i, w[i]).

    ``weight(i, a)`` is the rational weight of symbol a at 0-based stage i;
    it is asked once per distinct (stage, symbol) and may raise for a
    symbol without a weight.  The weights of stage i are put over their
    least common denominator d_i, a word of length n contributes the
    integer product of its numerators times d_n * d_(n+1) * ..., and the
    single Fraction is built from the integer total at the end.
    """
    words = list(words)
    stages: list[dict[int, Fraction]] = []
    for w in words:
        for i, a in enumerate(w):
            if i == len(stages):
                stages.append({})
            if a not in stages[i]:
                stages[i][a] = weight(i, a)
    denominators = [math.lcm(*[f.denominator for f in s.values()]) for s in stages]
    numerators = [
        {a: f.numerator * (d // f.denominator) for a, f in s.items()}
        for s, d in zip(stages, denominators)
    ]
    # scale[n] = d_n * d_(n+1) * ... lifts a length-n word to the common denominator
    scale = [1]
    for d in reversed(denominators):
        scale.append(scale[-1] * d)
    scale.reverse()
    total = sum(
        math.prod(map(dict.__getitem__, numerators, w), start=scale[len(w)]) for w in words
    )
    return Fraction(total, scale[0])


def uniform_weight(k: int) -> Callable[[int, int], Fraction]:
    """Weight 1/k for every symbol at every stage."""
    w = Fraction(1, k)
    return lambda i, a: w


def is_geometric_ladder(zset: PositionSet) -> bool:
    """A set flagged infinite with one even-length position per half-length 1..m.

    This is the only infinite-family shape with a defined closed-form tail:
    the family continues with one position per half-length m+1, m+2, ...
    The one place that reads the flag together with the shape; an
    unflagged set costs one attribute read.
    """
    if not zset.infinite_family or not zset.positions or not zset.even_normalized:
        return False
    halves = sorted(len(p) // 2 for p in zset)
    return halves == list(range(1, len(halves) + 1))


def kraft_sum(Z: PositionSet, k: int) -> Fraction:
    """Exact sum of k^(-floor(len(p)/2)) over the set.

    For a set flagged infinite whose truncation is a geometric ladder the
    closed-form tail is included (one position per half-length for all
    levels, totalling 1/(k-1)).  Other flagged sets yield the partial sum
    of the listed positions; no general tail is defined.
    """
    if is_geometric_ladder(Z):
        return Fraction(1, k - 1)
    return word_sum(map(hat, Z), uniform_weight(k))


def is_minimal_size(Z: PositionSet, k: int) -> bool:
    """True iff the Kraft-type sum equals 1 exactly."""
    return kraft_sum(Z, k) == 1


def p2_certificate(Z: PositionSet, k: int) -> P2Certificate | None:
    """Return a responder-win certificate when the exact sum allows one.

    A finite set with sum < 1 is a responder win.  A flagged geometric
    ladder is always certified: its family sum 1/(k-1) is at most 1 for
    every k >= 2, and an open game is won at a finite depth, so an infinite
    antichain of sum at most 1 is a responder win.  This is the one rule
    for declared families; ``solver.solve`` reports this certificate.  For
    other flagged sets only the listed truncation is certified; the
    infinite family stays open.
    """
    s = kraft_sum(Z, k)
    if is_geometric_ladder(Z):
        return P2Certificate(s, "infinite_family_sum_at_most_one")
    if s < 1:
        note = None
        if Z.infinite_family:
            note = "truncation only; no closed-form tail for this family"
        return P2Certificate(s, "kraft_sum_below_one", note)
    return None


def subtree_criterion(Z: PositionSet, k: int, n: int) -> Fraction:
    """Best rescaled sum over depth-n subtrees; a value < 1 certifies the responder.

    Maximizes k^(floor(n/2)) * sum over elements extending a fixed length-n
    position.  Valid for 0 <= n <= min length in the set.  A set flagged
    infinite is refused: the family's further positions are not given.
    """
    if Z.infinite_family:
        raise ValueError("subtree_criterion needs every position; the set is flagged infinite")
    if n < 0 or (Z.positions and n > Z.min_length) or (not Z.positions and n > 0):
        raise ValueError(f"subtree level n={n} out of range")
    if not Z.positions:
        return Fraction(0)
    hats: dict[Position, list[Position]] = {}
    for p in Z:
        hats.setdefault(p[:n], []).append(hat(p))
    uniform = uniform_weight(k)
    return k ** (n // 2) * max(word_sum(group, uniform) for group in hats.values())


def _finite_length_counts(Z: PositionSet) -> list[tuple[int, int]]:
    counts: dict[int, int] = {}
    for p in Z:
        counts[len(p)] = counts.get(len(p), 0) + 1
    return sorted(counts.items())


def moran_dimension(Z: PositionSet, k: int) -> MoranRoot:
    """Bisection root of  sum_p k^(-d*len(p)) = 1  on an even-normalized antichain.

    For a flagged geometric ladder the full tail is summed in closed form:
    sum over j >= 1 of k^(-2dj) = t/(1-t) with t = k^(-2d); any other
    flagged set has no tail and is refused.  The threshold boolean comes
    from the exact half-power comparison, never from the float root.
    """
    if not Z.positions:
        raise ValueError("moran_dimension requires a nonempty set")
    if not Z.even_normalized:
        raise ValueError("moran_dimension requires an even-normalized set")
    if not Z.antichain:
        raise ValueError("moran_dimension requires an antichain")
    if Z.min_length == 0:
        # a length-0 position contributes a constant 1: the sum no longer
        # decreases in d and no unique root exists
        raise ValueError("moran_dimension requires positions of positive length")

    below_half = kraft_sum(Z, k) < 1

    if is_geometric_ladder(Z):

        def power_sum(d: float) -> float:
            t = k ** (-2.0 * d)
            if t >= 1.0:
                return math.inf
            return t / (1.0 - t)

    elif Z.infinite_family:
        raise ValueError("moran_dimension has no tail for a flagged set other than a ladder")
    else:
        counts = _finite_length_counts(Z)
        # exact endpoints: the sum at d=0 is |Z|, at d=1 the plain Kraft sum
        if len(Z) == 1:
            return MoranRoot(0.0, 0.0, below_half)
        if word_sum(Z, uniform_weight(k)) == 1:
            return MoranRoot(1.0, 0.0, below_half)

        def power_sum(d: float) -> float:
            return sum(c * k ** (-d * length) for length, c in counts)

    lo, hi = 0.0, 1.0
    d = 0.5
    for _ in range(200):
        d = 0.5 * (lo + hi)
        value = power_sum(d)
        if abs(value - 1.0) < 1e-14:
            break
        if value > 1.0:
            lo = d
        else:
            hi = d
    residual = abs(power_sum(d) - 1.0)
    if residual >= MORAN_RESIDUAL_BOUND:
        raise ArithmeticError(f"Moran root residual {residual} above bound")
    if below_half != (d < 0.5) and abs(d - 0.5) > 1e-6:
        raise ArithmeticError("Moran root contradicts the exact half-power comparison")
    return MoranRoot(d, residual, below_half)
