"""The four workloads: inputs made from a seed, the timed calls, the checks.

Each workload makes a fixed list of items from its seed.  ``run`` is the
timed part and calls only opengame; ``check`` runs outside the timing and
uses only ``checks``.  Calls go through module attributes (``solver.solve``)
so that a traced run, which swaps those attributes, sees every one.

The shape of every item (code tries, group actions, word lengths, weights)
comes from a stream with a fixed seed, ``SHAPE_SEED``.  The run's seed
draws only what leaves the amount of work unchanged: relabellings the
program's search treats alike, mover strategies, and Monte Carlo seeds.
So two seeds give different inputs but the same work, and a difference
between runs is the program's or the host's, not the inputs'.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from opengame import codes, covering, criteria, files, freegroup, solver, suite, tree

from checks import (
    act,
    closed_walk,
    code_kraft,
    geometric_weight,
    half_sum,
    inverse,
    mover_wins,
    normalize,
    product_sum,
    random_transitive_perms,
    reduce,
    require,
    schreier_generators,
    strategy_wins,
    within_sigmas,
)

Word = tuple[int, ...]
SHAPE_SEED = 20240611


def shapes() -> random.Random:
    """The stream every item's shape is drawn from; the same in every run."""
    return random.Random(SHAPE_SEED)


# -- shared input makers ------------------------------------------------------------


def random_maximal_code(rng, k: int, longest: int, size: int) -> list[Word]:
    """A maximal prefix code of ``size`` words (rounded down to 1 + s(k-1)).

    A random path is split down to ``longest`` first, so the code always
    reaches that length; further splits pick random leaves above it.
    """
    leaves: list[Word] = [()]
    word: Word = ()
    while len(word) < longest:
        leaves.remove(word)
        leaves.extend(word + (a,) for a in range(k))
        word = word + (rng.randrange(k),)
    while len(leaves) + k - 1 <= size:
        word = rng.choice([w for w in leaves if len(w) < longest])
        leaves.remove(word)
        leaves.extend(word + (a,) for a in range(k))
    return sorted(leaves)


def balanced_maximal_code(rng, k: int, longest: int, size: int) -> list[Word]:
    """A maximal prefix code of ``size`` words of lengths longest-1 and longest.

    All words of length longest-1, then random ones of them split, until
    the size is reached (rounded down to k^(longest-1) + s(k-1)).  With
    every word about as long, the cost of sampling or lifting a word
    hardly depends on which words were split.
    """
    leaves = [tuple(w) for w in itertools.product(range(k), repeat=longest - 1)]
    rng.shuffle(leaves)
    code = []
    while leaves and len(code) + len(leaves) + k - 1 <= size:
        word = leaves.pop()
        code.extend(word + (a,) for a in range(k))
    return sorted(code + leaves)


def pruned(rng, code: list[Word], remove: int) -> list[Word]:
    gone = set(rng.sample(code, remove))
    return [w for w in code if w not in gone]


def interleave(rng, k: int, code: list[Word], first: int | None = None) -> list[Word]:
    """Positions of a random history-dependent mover strategy along each codeword.

    The mover's move at every history it meets is drawn once; ``first``
    fixes the move at the root.
    """
    moves: dict[Word, int] = {} if first is None else {(): first}
    out = []
    for word in code:
        p: Word = ()
        for symbol in word:
            if p not in moves:
                moves[p] = rng.randrange(k)
            p = p + (moves[p], symbol)
        out.append(p)
    return sorted(out)


def relabel(rng, k: int, code: list[Word]) -> list[Word]:
    """The code under a random permutation of the k children of each node of its trie.

    The trie keeps its shape, so a search that visits every child of a
    node does the same work on either code.
    """
    perms: dict[Word, list[int]] = {}
    out = []
    for word in code:
        new = []
        for i, symbol in enumerate(word):
            prefix = word[:i]
            if prefix not in perms:
                perms[prefix] = rng.sample(range(k), k)
            new.append(perms[prefix][symbol])
        out.append(tuple(new))
    return sorted(out)


# -- census ------------------------------------------------------------------------


@dataclass
class CensusItem:
    positions: tuple[Word, ...]

    def key(self):
        return self.positions


@dataclass
class CensusOut:
    report: object
    kraft: Fraction
    criterion: object
    moran: object = None
    hat: object = None
    subset: object = None


class Workload:
    """Makes items from a seed (``make``), runs one (``run``), checks its output (``check``)."""

    def expected_failure(self, item, exc: Exception) -> bool:
        """Whether an exception from ``run`` is the known fault this workload keeps."""
        return False


class Census(Workload):
    """Every 40th instance of the exhaustive depth-4 binary family, mover moves relabelled."""

    name = "census"
    STRIDE = 40
    FAMILY = 83522

    def make(self, rng, workdir: str) -> list[CensusItem]:
        family = suite.enumerate_even_antichains_depth4()
        require(len(family) == self.FAMILY, f"family has {len(family)} instances")
        self.uniform = covering.MeasureSpec.uniform(2)
        # the seed swaps the mover's two moves, or not, at the root and at each
        # node of depth 2: a tree automorphism, so the family is closed under
        # it, and the induction, which tries every mover move, does the same work
        swap = {p: rng.randrange(2) for p in [(), (0, 0), (0, 1), (1, 0), (1, 1)]}

        def image(p: Word) -> Word:
            p = list(p)
            if len(p) > 2:
                p[2] ^= swap[tuple(p[:2])]
            if p:
                p[0] ^= swap[()]
            return tuple(p)

        return [
            CensusItem(tuple(sorted(image(p) for p in family[i])))
            for i in range(0, len(family), self.STRIDE)
        ]

    def run(self, item: CensusItem) -> CensusOut:
        game = solver.GameInstance(2, tree.PositionSet(item.positions))
        report = solver.solve(game)
        zset = game.zset
        out = CensusOut(report, criteria.kraft_sum(zset, 2), covering.measure_criterion(zset, self.uniform))
        if zset.positions and zset.min_length > 0:
            out.moran = criteria.moran_dimension(zset, 2)
        if zset.positions != {()}:
            out.hat = freegroup.hat_index(zset, 2)
        if report.winner == 1:
            out.subset = solver.extract_minimal_size(game)
        return out

    def check(self, item: CensusItem, out: CensusOut) -> None:
        zset = normalize(2, item.positions)
        winner = 1 if mover_wins(2, zset) else 2
        check_winner(2, zset, out.report, winner)
        total = half_sum(2, zset)
        require(out.kraft == total, "kraft_sum differs from the integer sum")
        require(out.criterion.sum == total, "uniform measure_criterion differs from the integer sum")
        if out.moran is not None:
            require(out.moran.below_half == (total < 1), "moran below_half disagrees with sum < 1")
        if out.hat is not None and winner == 1:
            require(out.hat.value is not None, "hat index infinite on a mover win")
        if winner == 1:
            check_subset(2, zset, out.subset)


def check_winner(k: int, zset: set[Word], report, winner: int) -> None:
    depth = max((len(p) for p in zset), default=0)
    require(report.winner == winner, f"winner {report.winner}, expected {winner}")
    require(
        strategy_wins(k, zset, depth, report.winner, report.strategy.table),
        "the returned strategy loses a play",
    )


def check_subset(k: int, zset: set[Word], subset) -> None:
    chosen = set(subset.positions)
    require(chosen <= zset, "minimal subset leaves Z")
    require(half_sum(k, chosen) == 1, "minimal subset does not sum to 1")
    require(mover_wins(k, chosen), "the mover loses on the minimal subset")


# -- deep --------------------------------------------------------------------------


@dataclass
class DeepItem:
    kind: str
    k: int
    positions: list[Word]
    winner: int
    path: str = ""

    def key(self):
        return (self.kind, self.k, tuple(self.positions), self.winner)


@dataclass
class DeepOut:
    report: object
    text: str
    subset: object = None


class Deep(Workload):
    """Large games read from files, as ``opengame solve`` reads them."""

    name = "deep"
    # (kind, k, depth, code words, copies); about equal shares of a round
    SHAPES = (
        ("maximal", 2, 22, 24, 4),
        ("maximal", 3, 12, 41, 4),
        ("pruned", 2, 16, 48, 8),
        ("pruned", 2, 18, 48, 4),
        ("pruned", 3, 12, 41, 4),
        ("sum_at_least_one", 2, 16, 48, 1),
        ("sum_at_least_one", 3, 10, 41, 1),
    )
    PRUNE = 2
    COMBS = range(2, 21)

    def make(self, rng, workdir: str) -> list[DeepItem]:
        items = []
        shape = shapes()
        for kind, k, depth, size, copies in self.SHAPES:
            for _ in range(copies):
                code = random_maximal_code(shape, k, depth // 2, size)
                if kind == "maximal":
                    # a mover win: the induction tries every responder move
                    # whatever the labels, so the seed may relabel the code
                    code = relabel(rng, k, code)
                    items.append(DeepItem(kind, k, interleave(rng, k, code), 1))
                    continue
                # the solver tries responder moves in increasing order and
                # stops at the first hole, so the labels of a pruned code set
                # its cost and stay as drawn; the seed draws only the strategy
                code = code[: -self.PRUNE]
                if kind == "pruned":
                    items.append(DeepItem(kind, k, interleave(rng, k, code), 2))
                    continue
                # a responder win with sum >= 1: the pruned code under every root move
                positions = sorted(p for a in range(k) for p in interleave(rng, k, code, first=a))
                items.append(DeepItem(kind, k, positions, 2))
        for n in self.COMBS:
            code = [(0,) * i + (1,) for i in range(n)] + [(0,) * n]
            items.append(DeepItem(f"comb{n}", 2, [tuple(x for c in w for x in (0, c)) for w in code], 1))
        for i, item in enumerate(items):
            item.path = os.path.join(workdir, f"game{i}.json")
            with open(item.path, "w") as out:
                json.dump(
                    {"kind": "game", "schema_version": 1, "alphabet_size": item.k,
                     "infinite_family": False, "positions": [list(p) for p in item.positions]},
                    out,
                )
        return items

    def run(self, item: DeepItem) -> DeepOut:
        k, zset = files.load_game(item.path)
        game = solver.GameInstance(k, zset)
        report = solver.solve(game)
        out = DeepOut(report, files.dumps_canonical(report.to_json_dict()))
        if report.winner == 1:
            out.subset = solver.extract_minimal_size(game)
        return out

    def check(self, item: DeepItem, out: DeepOut) -> None:
        zset = set(item.positions)
        if item.kind in ("maximal", "pruned") or item.kind.startswith("comb"):
            # one code, one strategy: a mover win exactly when the code is maximal
            hats = [p[1::2] for p in item.positions]
            require((code_kraft(item.k, hats) == 1) == (item.winner == 1), "construction mislabelled")
        else:
            require(half_sum(item.k, zset) >= 1, "sum below 1 on a sum_at_least_one game")
        require(mover_wins(item.k, zset) == (item.winner == 1), "trie induction disagrees with the construction")
        check_winner(item.k, zset, out.report, item.winner)
        require(json.loads(out.text)["winner"] == item.winner, "emitted report names another winner")
        if item.winner == 1:
            check_subset(item.k, zset, out.subset)

    def expected_failure(self, item: DeepItem, exc: Exception) -> bool:
        # the budget counts k^depth leaves, not the nodes the induction visits
        return item.kind.startswith("comb") and isinstance(exc, solver.BudgetExceededError)


# -- fold --------------------------------------------------------------------------


@dataclass
class FoldItem:
    kind: str
    k: int
    generators: list
    index: int | None = None
    members: list = field(default_factory=list)  # (word, in subgroup)
    code: list = field(default_factory=list)
    positions: list = field(default_factory=list)

    def key(self):
        return (self.kind, self.k, tuple(self.generators), tuple(self.members), tuple(self.positions))


@dataclass
class FoldOut:
    result: object
    members: list
    maximal: bool | None = None


def automorphism(rng, k: int):
    """A random automorphism of F_k: generators permuted, some of them inverted.

    Folding the image of a generator set merges the same vertices in the
    same order as folding the set itself, so the work is unchanged.
    """
    perm = rng.sample(range(k), k)
    signs = [rng.choice((1, -1)) for _ in range(k)]
    return lambda word: tuple((perm[g], e * signs[g]) for g, e in word)


def random_reduced_word(rng, k: int, length: int):
    word: list[tuple[int, int]] = []
    while len(word) < length:
        letter = (rng.randrange(k), rng.choice((1, -1)))
        if word and word[-1] == (letter[0], -letter[1]):
            continue
        word.append(letter)
    return tuple(word)


class Fold(Workload):
    """Large generator sets folded by ``subgroup_index``; membership; hat indices."""

    name = "fold"
    # (k, points, letters): Schreier sets of a random transitive action
    SCHREIER = ((2, 12, 200), (2, 16, 240), (3, 8, 200), (3, 12, 240))
    RANDOM = ((2, 44, 8), (3, 32, 10))  # (k, words, letters per word)
    HAT = ((2, 8, 64), (3, 5, 81))  # (k, longest word, code words)
    COPIES = 2

    def make(self, rng, workdir: str) -> list[FoldItem]:
        items = []
        shape = shapes()
        for k, n, letters in self.SCHREIER * self.COPIES:
            perms = random_transitive_perms(shape, k, n)
            base = schreier_generators(perms)
            gens = list(base)
            while sum(len(w) for w in gens) < letters:
                word = ()
                for _ in range(shape.choice((2, 3))):
                    g = shape.choice(base)
                    word += g if shape.random() < 0.5 else inverse(g)
                gens.append(reduce(word))
            inside = reduce(shape.choice(base) + inverse(shape.choice(base)) + shape.choice(base))
            while True:
                outside = random_reduced_word(shape, k, 9)
                if act(perms, 0, outside) != 0:
                    break
            # an automorphism keeps the index and which words are members
            phi = automorphism(rng, k)
            items.append(FoldItem("schreier", k, [phi(w) for w in gens], n,
                                  [(phi(inside), True), (phi(outside), False)]))
        for k, words, length in self.RANDOM * self.COPIES:
            phi = automorphism(rng, k)
            gens = [phi(random_reduced_word(shape, k, length)) for _ in range(words)]
            items.append(FoldItem("random", k, gens))
        for k, longest, size in self.HAT * self.COPIES:
            # the same permutation of the symbols at every node keeps the code
            # maximal and its words' folding alike; the seed draws it and the strategy
            perm = rng.sample(range(k), k)
            code = sorted(tuple(perm[a] for a in w) for w in random_maximal_code(shape, k, longest, size))
            items.append(FoldItem("hat", k, [tuple((a, 1) for a in w) for w in code],
                                  code=code, positions=interleave(rng, k, code)))
        return items

    def run(self, item: FoldItem) -> FoldOut:
        if item.kind == "hat":
            maximal = codes.is_maximal(codes.PrefixCode.of(item.code, item.k))
            return FoldOut(freegroup.hat_index(tree.PositionSet(item.positions), item.k), [], maximal)
        result = freegroup.subgroup_index(item.generators, item.k)
        answers = [freegroup.membership(word, item.generators) for word, _ in item.members]
        return FoldOut(result, answers)

    def check(self, item: FoldItem, out: FoldOut) -> None:
        graph = out.result.graph
        edges = list(graph.edges)
        for word in item.generators:
            require(closed_walk(edges, graph.basepoint, word), "a generator is no closed loop")
        require(out.result.rank == len(edges) - len(graph.vertices) + 1, "rank is not |E|-|V|+1")
        if out.result.value is not None:
            require(out.result.rank == out.result.value * (item.k - 1) + 1, "rank breaks the index formula")
        if item.kind == "schreier":
            require(out.result.value == item.index, f"index {out.result.value}, expected {item.index}")
            require(out.members == [inside for _, inside in item.members], "membership answers wrong")
        if item.kind == "hat":
            require(out.maximal is True, "is_maximal rejects a maximal code")
            require(out.result.value is not None, "hat index infinite for a maximal code")


# -- sampling ------------------------------------------------------------------------


@dataclass
class SamplingItem:
    kind: str
    k: int
    words: list[Word]
    weights: dict | None  # None: the geometric tail 2^-n on symbols n >= 1
    x: list[int]
    maximal: bool
    seed: int
    measure: object

    def key(self):
        weights = None if self.weights is None else sorted(self.weights.items())
        return (self.kind, self.k, tuple(self.words), weights, tuple(self.x), self.seed)


@dataclass
class SamplingOut:
    maximal: bool
    mc: object
    exact: Fraction
    identity: object
    weighted_x: object
    weighted: object
    lifted: Fraction


class Sampling(Workload):
    """Codes of a few hundred words under finite and geometric measures."""

    name = "sampling"
    TRIALS = 3000
    SIGMAS = 5
    PRUNE = 3
    # (symbols, longest word, code words)
    FINITE = ((2, 7, 80), (3, 5, 141), (4, 4, 190), (5, 4, 201))
    GEOMETRIC = (3, 5, 141)  # words over symbols 1..3
    COPIES = 2

    def make(self, rng, workdir: str) -> list[SamplingItem]:
        # the weights, the codes and x set the work (the inverse-CDF scan, the
        # words' lengths, 2^mismatches lifts), so they come from the fixed
        # stream; the seed draws the Monte Carlo seeds
        items = []
        shape = shapes()
        for m, longest, size in self.FINITE * self.COPIES:
            # weights 1..m over the sum, in a random order
            raw = shape.sample(range(1, m + 1), m)
            weights = {a: Fraction(w, sum(raw)) for a, w in enumerate(raw)}
            for maximal in (True, False):
                code = balanced_maximal_code(shape, m, longest, size)
                if not maximal:
                    code = pruned(shape, code, self.PRUNE)
                x = [shape.randrange(m) for _ in range(longest)]
                items.append(SamplingItem("finite", m, code, weights, x, maximal, rng.getrandbits(63),
                                          covering.Measure(weights=weights)))
        m, longest, size = self.GEOMETRIC
        for remove in (0, self.PRUNE) * self.COPIES:
            code = balanced_maximal_code(shape, m, longest, size)
            code = pruned(shape, code, remove) if remove else code
            words = [tuple(a + 1 for a in w) for w in code]
            x = [shape.randrange(m) + 1 for _ in range(longest)]
            items.append(SamplingItem("geometric", m + 1, words, None, x, False, rng.getrandbits(63),
                                      covering.Measure.geometric2()))
        return items

    def run(self, item: SamplingItem) -> SamplingOut:
        code = codes.PrefixCode.of(item.words, item.k)
        measure = item.measure
        return SamplingOut(
            codes.is_maximal(code),
            covering.monte_carlo_hit(code, None, measure, self.TRIALS, item.seed),
            covering.exact_hit_probability(code, measure),
            covering.identity_sum(code, item.x),
            covering.weighted_identity(code, item.x, measure),
            covering.weighted_identity(code, None, measure),
            covering.lifted_measure_sum(code, item.x, measure),
        )

    def check(self, item: SamplingItem, out: SamplingOut) -> None:
        if item.weights is None:
            weights = {s: geometric_weight(s) for w in item.words for s in w}
        else:
            weights = item.weights
        exact = product_sum(item.words, weights)
        require(out.maximal == item.maximal, "is_maximal disagrees with the construction")
        require(out.exact == exact, "exact_hit_probability differs from the Fraction sum")
        require((exact == 1) == item.maximal and exact <= 1, "hit probability of the wrong size")
        require((out.identity.sum == 1) == item.maximal and out.identity.sum <= 1, "identity_sum verdict wrong")
        require(out.weighted.sum == exact, "weighted_identity without x differs from the Fraction sum")
        require(out.weighted_x.sum == out.lifted, "weighted_identity with x differs from the lifted sum")
        require(out.mc.exact == exact, "Monte Carlo report carries another exact value")
        require(within_sigmas(out.mc.empirical, exact, self.TRIALS, self.SIGMAS), "Monte Carlo beyond 5 sigma")


WORKLOADS = {w.name: w for w in (Census, Deep, Fold, Sampling)}
