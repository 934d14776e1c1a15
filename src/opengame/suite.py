"""Exhaustive desk-scale verification batteries.

Each battery checks one acceptance criterion over an enumerated or seeded
instance family and returns pass/fail with a one-line detail;
``run_battery`` times it.  The batteries share one ``SuiteData``, which
builds each census game once, and serve both the CLI ``suite``
subcommand and the test suite.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable

from .codes import PrefixCode, history_equivalence_check
from .covering import (
    Measure,
    identity_sum,
    measure_criterion,
    mismatch_count,
    monte_carlo_hit,
    weighted_identity,
)
from .criteria import kraft_sum, moran_dimension
from .freegroup import fold, hat_index, parse_word, subgroup_index
from .solver import GameInstance, brute_force_oracle, extract_minimal_size, solve
from .tree import PositionSet, hat

MC_SEED = 20260810
MC_TRIALS = 100_000

# comb-shaped maximal code: a spine of 0s with a 1-tooth at every level
COMB_CODE = PrefixCode.of([(1,), (0, 1), (0, 0, 1), (0, 0, 0)], 2)


@dataclass
class BatteryResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} ({self.seconds:.1f}s)"


def enumerate_even_antichains_depth4() -> list[frozenset[tuple[int, ...]]]:
    """All even-normalized binary antichains with positions of length <= 4.

    Each length-2 position either appears itself or is replaced by any
    subset of its four length-4 extensions; the root antichain {()} is
    added separately.
    """
    per_subtree = []
    for root in itertools.product((0, 1), repeat=2):
        leaves = [root + ext for ext in itertools.product((0, 1), repeat=2)]
        options = [frozenset({root})]
        for bits in range(16):
            options.append(frozenset(leaves[i] for i in range(4) if bits >> i & 1))
        per_subtree.append(options)
    out = [frozenset().union(*combo) for combo in itertools.product(*per_subtree)]
    out.append(frozenset({()}))
    return out


def enumerate_antichain_codes(k: int, depth: int) -> list[frozenset[tuple[int, ...]]]:
    """All prefix codes (tree antichains) with words of length <= depth."""

    def rec(d: int) -> list[frozenset[tuple[int, ...]]]:
        if d == 0:
            return [frozenset(), frozenset({()})]
        child_options = rec(d - 1)
        out = [frozenset({()})]
        for combo in itertools.product(child_options, repeat=k):
            out.append(
                frozenset((a,) + w for a, words in enumerate(combo) for w in words)
            )
        return out

    return rec(depth)


def geometric_ladder(m: int, infinite_family: bool = True) -> PositionSet:
    """The binary family with one position per half-length: (0,1)^(j-1) (0,0)."""
    return PositionSet(
        [(0, 1) * (j - 1) + (0, 0) for j in range(1, m + 1)],
        infinite_family=infinite_family,
    )


def random_even_antichain(rng: random.Random, k: int, depth: int) -> PositionSet:
    out: list[tuple[int, ...]] = []

    def walk(p: tuple[int, ...]) -> None:
        if len(p) == depth:
            if rng.random() < 0.5:
                out.append(p)
            return
        r = rng.random()
        if p and r < 0.25:
            out.append(p)
            return
        if r < 0.45:
            return
        for a in range(k):
            for b in range(k):
                walk(p + (a, b))

    walk(())
    return PositionSet(out)


class SuiteData:
    """Shared lazily-computed instance families and per-instance results."""

    @cached_property
    def exhaustive(self) -> list[PositionSet]:
        return [PositionSet(s) for s in enumerate_even_antichains_depth4()]

    @cached_property
    def games(self) -> list[GameInstance]:
        """One binary game per exhaustive instance, built once for every battery."""
        return [GameInstance(2, z) for z in self.exhaustive]

    @cached_property
    def winners(self) -> list[int]:
        return [solve(game).winner for game in self.games]

    @cached_property
    def krafts(self) -> list[Fraction]:
        return [kraft_sum(z, 2) for z in self.exhaustive]

    @cached_property
    def random_instances(self) -> list[tuple[int, PositionSet]]:
        rng = random.Random(987654321)
        out = []
        while len(out) < 1000:
            k = rng.choice((2, 3))
            depth = rng.choice((2, 4, 6))
            out.append((k, random_even_antichain(rng, k, depth)))
        return out


def battery_solver_oracle(data: SuiteData) -> tuple[bool, str]:
    start = time.monotonic()
    disagreements = 0
    for game, winner in zip(data.games, data.winners):
        if winner != brute_force_oracle(game):
            disagreements += 1
    for k, zset in data.random_instances:
        game = GameInstance(k, zset)
        if solve(game).winner != brute_force_oracle(game):
            disagreements += 1
    elapsed = time.monotonic() - start
    passed = disagreements == 0 and elapsed <= 120
    return passed, (
        f"{len(data.exhaustive)} exhaustive + {len(data.random_instances)} random "
        f"instances, {disagreements} disagreements, {elapsed:.1f}s (limit 120s)"
    )


def battery_kraft_necessity(data: SuiteData) -> tuple[bool, str]:
    violations = 0
    for winner, total in zip(data.winners, data.krafts):
        if winner == 1 and total < 1:
            violations += 1
        if total < 1 and winner != 2:
            violations += 1
    return violations == 0, (
        f"{len(data.exhaustive)} instances, {violations} violations of the"
        " sum-at-least-one necessity"
    )


def battery_minimal_extraction(data: SuiteData) -> tuple[bool, str]:
    failures = 0
    count = 0
    for zset, game, winner in zip(data.exhaustive, data.games, data.winners):
        if winner != 1:
            continue
        count += 1
        subset = extract_minimal_size(game)
        if not subset.positions <= zset.positions:
            failures += 1
            continue
        if kraft_sum(subset, 2) != 1:
            failures += 1
            continue
        if solve(GameInstance(2, subset)).winner != 1:
            failures += 1
    return failures == 0, f"{count} winner-1 instances, {failures} failures"


def battery_code_equivalence(data: SuiteData) -> tuple[bool, str]:
    forward_violations = 0  # winner 1 but some image not maximal
    converse_violations = 0  # every image maximal but winner 2
    first_converse = None
    binary = 0
    for zset, winner, total in zip(data.exhaustive, data.winners, data.krafts):
        if total != 1:
            continue
        binary += 1
        report = history_equivalence_check(zset, 2)
        if report.equiv_holds:
            continue
        if report.winner == 1:
            forward_violations += 1
        else:
            converse_violations += 1
            if first_converse is None:
                first_converse = zset.sorted_positions()
    ternary = 0
    squares = list(itertools.product(range(3), repeat=2))
    for combo in itertools.combinations(squares, 3):
        ternary += 1
        report = history_equivalence_check(PositionSet(combo), 3)
        if not report.equiv_holds:
            if report.winner == 1:
                forward_violations += 1
            else:
                converse_violations += 1
    if not history_equivalence_check(PositionSet([()]), 3).equiv_holds:
        converse_violations += 1
    ternary += 1
    detail = (
        f"{binary} binary + {ternary} ternary minimal-size instances"
        " over history mixers,"
        f" {forward_violations} forward violations,"
        f" {converse_violations} converse counterexamples"
    )
    if first_converse is not None:
        detail += (
            f"; e.g. Z={first_converse} is a responder win"
            " with every history-mixer image maximal"
        )
    return forward_violations == 0 and converse_violations == 0, detail


def battery_covering_identity(data: SuiteData) -> tuple[bool, str]:
    failures = 0
    checks = 0
    rep = identity_sum(COMB_CODE, (1, 1, 1))
    checks += 1
    if rep.sum != 1:
        failures += 1
    for c in COMB_CODE.positions:
        reduced = PrefixCode(COMB_CODE.positions - {c}, 2)
        checks += 1
        if identity_sum(reduced, (1, 1, 1)).sum >= 1:
            failures += 1
    rng = random.Random(1234)
    for n in range(1, 9):
        code = PrefixCode.of(itertools.product((0, 1), repeat=n), 2)
        denominator = 3**n
        sums: dict[tuple[int, ...], Fraction] = {}
        for x in itertools.product((0, 1), repeat=n):
            rep = identity_sum(code, x)
            sums[x] = rep.sum
            checks += 1
            if rep.sum != 1:
                failures += 1
            # exact removal check via the per-word term decomposition
            for c in code.positions:
                term = Fraction(2 ** mismatch_count(c, x), denominator)
                checks += 1
                if rep.sum - term >= 1:
                    failures += 1
        # spot-check the decomposition against the operation itself
        pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]
        if n <= 3:
            pairs = itertools.product(sums.keys(), sorted(code.positions))
        else:
            xs = list(sums.keys())
            words = sorted(code.positions)
            pairs = [(rng.choice(xs), rng.choice(words)) for _ in range(10)]
        for x, c in pairs:
            reduced = PrefixCode(code.positions - {c}, 2)
            direct = identity_sum(reduced, x).sum
            term = Fraction(2 ** mismatch_count(c, x), denominator)
            checks += 1
            if direct != sums[x] - term or direct >= 1:
                failures += 1
    return failures == 0, f"{checks} exact identity checks, {failures} failures"


def battery_free_group(data: SuiteData) -> tuple[bool, str]:
    failures = 0
    branched = [parse_word(w) for w in ("b", "aba", "aBa")]
    result = subgroup_index(branched, 2)
    if result.value is not None or result.graph.vertex_count != 3:
        failures += 1
    whole = subgroup_index([parse_word("a"), parse_word("b")], 2)
    if whole.value != 1 or whole.rank != 2:
        failures += 1
    squares = [parse_word(w) for w in ("aa", "b", "abA")]
    two = subgroup_index(squares, 2)
    if two.value != 2 or two.rank != 3:
        failures += 1
    rng = random.Random(424242)
    permutations = 0
    for gens in (branched, [parse_word("a"), parse_word("b")], squares):
        reference = fold(gens).canonical_form()
        for _ in range(100):
            permutations += 1
            if fold(gens, order_rng=rng).canonical_form() != reference:
                failures += 1
    return failures == 0, (
        f"3 fixed instances + {permutations} fold-order permutations,"
        f" {failures} failures"
    )


def battery_hat_index(data: SuiteData) -> tuple[bool, str]:
    failures = 0
    finite_checks = 0
    cache: dict[frozenset, bool] = {}

    def hat_is_finite(zset: PositionSet) -> bool:
        key = frozenset(hat(p) for p in zset if len(p) >= 2)
        if key not in cache:
            cache[key] = hat_index(zset, 2).is_finite
        return cache[key]

    degenerate = frozenset({()})
    for zset, winner, total in zip(data.exhaustive, data.winners, data.krafts):
        if zset.positions == degenerate:
            continue  # empty responder word generates nothing; outside the criterion
        if winner == 1:
            finite_checks += 1
            if not hat_is_finite(zset):
                failures += 1
        if total == 1 and not hat_is_finite(zset) and winner != 2:
            failures += 1
    return failures == 0, (
        f"{finite_checks} winner-1 instances all finite-index, {failures} failures"
    )


def battery_moran_threshold(data: SuiteData) -> tuple[bool, str]:
    failures = 0
    ladder = geometric_ladder(8)
    root = moran_dimension(ladder, 2)
    if abs(root.d - 0.5) > 1e-9:
        failures += 1
    checked = 0
    skipped = 0
    for zset, total in zip(data.exhaustive, data.krafts):
        if not zset.positions:
            continue
        if zset.min_length == 0:
            skipped += 1  # the root-only instance has no unique exponent
            continue
        checked += 1
        root = moran_dimension(zset, 2)
        if root.below_half != (total < 1):
            failures += 1
        if root.residual >= 1e-12:
            failures += 1
    return failures == 0, (
        f"ladder root + {checked} threshold agreements"
        f" ({skipped} degenerate skipped), {failures} failures"
    )


def _mc_pairs() -> list[tuple[PrefixCode, Measure]]:
    third = Measure(weights={0: Fraction(1, 3), 1: Fraction(2, 3)})
    quarter = Measure(weights={0: Fraction(1, 4), 1: Fraction(3, 4)})
    skew3 = Measure(weights={0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
    geometric = Measure.geometric2()
    b = lambda *words: PrefixCode.of(words, 2)
    t = lambda *words: PrefixCode.of(words, 3)
    g = lambda *words: PrefixCode.of(words, max(max(w) for w in words) + 1)
    return [
        (b((0, 0), (0, 1), (1, 0), (1, 1)), Measure.uniform(2)),
        (COMB_CODE, Measure.uniform(2)),
        (b((0,)), Measure.uniform(2)),
        (b((0, 0)), Measure.uniform(2)),
        (b((1,), (0, 1)), Measure.uniform(2)),
        (PrefixCode.of(itertools.product((0, 1), repeat=3), 2), Measure.uniform(2)),
        (b((0,)), third),
        (b((0,), (1, 0)), third),
        (COMB_CODE, quarter),
        (b((0, 0), (0, 1), (1, 0), (1, 1)), third),
        (t((0,), (1,), (2,)), Measure.uniform(3)),
        (t((0,), (1,)), Measure.uniform(3)),
        (t((0,), (1,), (2, 0), (2, 1), (2, 2)), Measure.uniform(3)),
        (t((0, 0)), Measure.uniform(3)),
        (t((1,)), skew3),
        (g((1,)), geometric),
        (g((1,), (2,)), geometric),
        (g((1,), (2,), (3,)), geometric),
        (g((2,), (1, 1)), geometric),
        (g((3,), (1, 2)), geometric),
    ]


def battery_measures_monte_carlo(data: SuiteData) -> tuple[bool, str]:
    start = time.monotonic()
    failures = 0
    uniform = Measure.uniform(2)
    for zset, total in zip(data.exhaustive, data.krafts):
        if measure_criterion(zset, uniform).sum != total:
            failures += 1
    weighted_checks = 0
    for k, depth in ((2, 3), (3, 2)):
        mu = Measure.uniform(k)
        for words in enumerate_antichain_codes(k, depth):
            code = PrefixCode(words, k)
            for x in itertools.product(range(k), repeat=depth):
                weighted_checks += 1
                if weighted_identity(code, x, mu).sum != identity_sum(code, x).sum:
                    failures += 1
    pairs = _mc_pairs()
    for code, measure in pairs:
        report = monte_carlo_hit(code, None, measure, MC_TRIALS, MC_SEED)
        if abs(report.empirical - float(report.exact)) > 3 * report.sigma:
            failures += 1
    elapsed = time.monotonic() - start
    passed = failures == 0 and elapsed <= 60
    return passed, (
        f"{len(data.exhaustive)} uniform criterion sums, {weighted_checks} weighted"
        f" identities, {len(pairs)} Monte Carlo pairs, {failures} failures,"
        f" {elapsed:.1f}s (limit 60s)"
    )


BATTERIES: dict[str, Callable[[SuiteData], tuple[bool, str]]] = {
    "solver_oracle": battery_solver_oracle,
    "kraft_necessity": battery_kraft_necessity,
    "minimal_extraction": battery_minimal_extraction,
    "code_equivalence": battery_code_equivalence,
    "covering_identity": battery_covering_identity,
    "free_group": battery_free_group,
    "hat_index": battery_hat_index,
    "moran_threshold": battery_moran_threshold,
    "measures_monte_carlo": battery_measures_monte_carlo,
}


def run_battery(name: str, data: SuiteData) -> BatteryResult:
    """Run the named battery on the shared data and time it."""
    start = time.monotonic()
    passed, detail = BATTERIES[name](data)
    return BatteryResult(name, passed, detail, time.monotonic() - start)


def run_batteries(names: Iterable[str] | None = None) -> list[BatteryResult]:
    selected = list(BATTERIES) if names is None else list(names)
    unknown = [n for n in selected if n not in BATTERIES]
    if unknown:
        raise ValueError(f"unknown batteries: {', '.join(unknown)}")
    data = SuiteData()
    return [run_battery(name, data) for name in selected]
