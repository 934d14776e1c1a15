"""Command-line interface over all package operations.

Every subcommand reads JSON instance files (or inline generator strings),
routes to the corresponding module operation, and prints a JSON report
with exact rationals rendered as "numerator/denominator" strings.  Exit
status: 0 success, 1 a checked property was violated, 2 usage, file or
budget errors, 3 any other exception inside a command; exits 2 and 3
print one JSON line {"error": ..., "kind": "usage" | "internal"} on
stderr.  ``codes equiv`` checks the winner/maximality equivalence over
every history mixer, where it is a theorem, so exit 1 there flags a
defect; with ``--per-stage`` it enumerates the normalized per-stage
vectors instead and exits 1 where only their converse fails.  The
environment variable OPENGAME_BUDGET caps the nodes the solver visits
when --budget is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import files
from .codes import (
    BudgetError,
    PrefixCode,
    equivalence_check,
    history_code,
    history_equivalence_check,
    is_bifix_code,
    is_maximal,
    is_prefix_code,
)
from .covering import (
    Measure,
    averaged_identity,
    identity_sum,
    monte_carlo_hit,
    weighted_identity,
)
from .criteria import kraft_sum, is_minimal_size, moran_dimension, p2_certificate, subtree_criterion
from .freegroup import hat_index, fold, membership, parse_word, subgroup_index, word_to_str
from .solver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GameInstance,
    brute_force_oracle,
    extract_minimal_size,
    solve,
)
from .suite import BATTERIES, run_batteries
from .tree import hat, normalize_even

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _emit(payload: dict) -> None:
    sys.stdout.write(files.dumps_canonical(payload))


def _parse_symbols(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(piece) for piece in text.split(","))
    return tuple(int(ch) for ch in text)


def _budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("OPENGAME_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


def _infer_rank(declared: int | None, flag: int | None, words) -> int:
    if flag is not None:
        return flag
    if declared is not None:
        return declared
    highest = max((gen for word in words for gen, _ in word), default=1)
    return max(highest + 1, 2)


def _cmd_solve(args: argparse.Namespace) -> int:
    k, zset = files.load_game(args.instance)
    game = GameInstance(k, zset)
    budget = _budget(args)
    report = solve(game, budget=budget)
    payload = report.to_json_dict()
    status = EXIT_OK
    if args.oracle:
        oracle_winner = brute_force_oracle(game, budget=budget)
        payload["oracle_winner"] = oracle_winner
        payload["oracle_agrees"] = oracle_winner == report.winner
        if not payload["oracle_agrees"]:
            status = EXIT_VIOLATION
    _emit(payload)
    return status


def _cmd_kraft(args: argparse.Namespace) -> int:
    k, zset = files.load_game(args.instance)
    total = kraft_sum(zset, k)
    certificate = p2_certificate(zset, k)
    payload: dict = {
        "kraft_sum": _frac(total),
        "is_minimal_size": is_minimal_size(zset, k),
        "p2_certificate": None,
    }
    if certificate is not None:
        payload["p2_certificate"] = {
            "sum": _frac(certificate.sum),
            "reason": certificate.reason,
            "note": certificate.note,
        }
    if args.subtree is not None:
        payload["subtree_criterion"] = _frac(subtree_criterion(zset, k, args.subtree))
    if args.moran:
        root = moran_dimension(normalize_even(zset, k), k)
        payload["moran"] = {
            "exponent": root.d,
            "residual": root.residual,
            "below_half": root.below_half,
        }
    _emit(payload)
    return EXIT_OK


def _cmd_minimize(args: argparse.Namespace) -> int:
    k, zset = files.load_game(args.instance)
    subset = extract_minimal_size(GameInstance(k, zset), budget=_budget(args))
    sys.stdout.write(files.game_to_json(k, subset))
    return EXIT_OK


def _cmd_codes_check(args: argparse.Namespace) -> int:
    code = files.load_code(args.code)
    prefix_free = is_prefix_code(code)
    payload = {
        "is_prefix_code": prefix_free,
        "is_bifix_code": is_bifix_code(code),
        "is_maximal": is_maximal(code) if prefix_free else None,
        "words": [list(w) for w in code.sorted_positions()],
    }
    _emit(payload)
    return EXIT_OK


def _cmd_codes_cx(args: argparse.Namespace) -> int:
    k, zset = files.load_game(args.instance)
    vector = files.load_xvector(args.x, alphabet_size=k)
    image = history_code(zset, vector.as_mixer(zset), k)
    prefix_free = is_prefix_code(image)
    payload = {
        "alphabet_size": k,
        "words": [list(w) for w in image.sorted_positions()],
        "is_prefix_code": prefix_free,
        "is_maximal": is_maximal(image) if prefix_free else None,
    }
    _emit(payload)
    return EXIT_OK


def _cmd_codes_equiv(args: argparse.Namespace) -> int:
    k, zset = files.load_game(args.instance)
    check = equivalence_check if args.per_stage else history_equivalence_check
    report = check(zset, k)
    _emit(report.to_json_dict())
    return EXIT_OK if report.equiv_holds else EXIT_VIOLATION


def _cmd_fold(args: argparse.Namespace) -> int:
    _, words = files.parse_generators(args.generators)
    graph = fold(words)
    if args.dot:
        sys.stdout.write(graph.to_dot() + "\n")
    else:
        _emit(graph.to_json_dict())
    return EXIT_OK


def _cmd_index(args: argparse.Namespace) -> int:
    declared, words = files.parse_generators(args.generators)
    k = _infer_rank(declared, args.k, words)
    result = subgroup_index(words, k)
    payload = result.to_json_dict()
    payload["generators"] = sorted(word_to_str(w) for w in words)
    if args.dot:
        sys.stdout.write(result.graph.to_dot() + "\n")
    else:
        _emit(payload)
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    _, words = files.parse_generators(args.generators)
    target = parse_word(args.word)
    payload = {
        "word": word_to_str(target),
        "member": membership(target, words),
    }
    _emit(payload)
    return EXIT_OK


def _cmd_hat_index(args: argparse.Namespace) -> int:
    k, zset = files.load_game(args.instance)
    result = hat_index(zset, k)
    payload = result.to_json_dict()
    payload["hat_words"] = sorted(
        [list(hat(p)) for p in zset if len(p) >= 2]
    )
    _emit(payload)
    return EXIT_OK


def _cmd_identity(args: argparse.Namespace) -> int:
    code = files.load_code(args.code)
    if args.averaged:
        if args.n is None:
            raise ValueError("--averaged requires -n")
        report = averaged_identity(code, args.n)
    else:
        if args.x is None:
            raise ValueError("identity requires --x WORD or --averaged -n N")
        report = identity_sum(code, _parse_symbols(args.x))
    _emit(report.to_json_dict())
    return EXIT_OK


def _cmd_weighted(args: argparse.Namespace) -> int:
    code = files.load_code(args.code)
    spec = files.load_measure(args.measure)
    if spec.single is None:
        raise ValueError("weighted identity needs a single measure, not a per-stage family")
    x = _parse_symbols(args.x) if args.x is not None else None
    report = weighted_identity(code, x, spec.single)
    _emit(report.to_json_dict())
    return EXIT_OK


def _cmd_mc(args: argparse.Namespace) -> int:
    code = files.load_code(args.code)
    if args.measure is not None:
        spec = files.load_measure(args.measure)
        if spec.single is None:
            raise ValueError("Monte Carlo needs a single measure, not a per-stage family")
        measure = spec.single
    else:
        measure = Measure.uniform(code.alphabet_size)
    x = _parse_symbols(args.x) if args.x is not None else None
    report = monte_carlo_hit(code, x, measure, args.trials, args.seed)
    payload = report.to_json_dict()
    payload["within_3_sigma"] = (
        abs(report.empirical - float(report.exact)) <= 3 * report.sigma
    )
    _emit(payload)
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    names = args.only.split(",") if args.only else None
    results = run_batteries(names)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opengame",
        description="Winner criteria for open alternating-move games and prefix codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide the winner of a game instance")
    p.add_argument("instance")
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("kraft", help="exact Kraft-type sums and certificates")
    p.add_argument("instance")
    p.add_argument("--subtree", type=int, default=None, metavar="N")
    p.add_argument("--moran", action="store_true")
    p.set_defaults(func=_cmd_kraft)

    p = sub.add_parser("minimize", help="extract a minimal-size winning subset")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_minimize)

    codes = sub.add_parser("codes", help="prefix-code operations")
    codes_sub = codes.add_subparsers(dest="codes_command", required=True)
    p = codes_sub.add_parser("check", help="prefix/bifix/maximality checks")
    p.add_argument("code")
    p.set_defaults(func=_cmd_codes_check)
    p = codes_sub.add_parser("cx", help="block-encode a game instance")
    p.add_argument("instance")
    p.add_argument("--x", required=True, help="mixing vector JSON file")
    p.set_defaults(func=_cmd_codes_cx)
    p = codes_sub.add_parser("equiv", help="winner vs maximal-image equivalence")
    p.add_argument("instance")
    p.add_argument(
        "--per-stage",
        action="store_true",
        help="per-stage vectors only, whose converse can fail",
    )
    p.set_defaults(func=_cmd_codes_equiv)

    p = sub.add_parser("fold", help="fold generator words into the core graph")
    p.add_argument("generators", help="comma-separated words or a JSON file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("index", help="subgroup index from folded core graph")
    p.add_argument("generators")
    p.add_argument("-k", type=int, default=None, help="free-group rank")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("member", help="subgroup membership via the core graph")
    p.add_argument("word")
    p.add_argument("generators")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("hat-index", help="index of the responder-word subgroup")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_hat_index)

    p = sub.add_parser("identity", help="exact covering identity for a code")
    p.add_argument("code")
    p.add_argument("--x", default=None, help="mover symbols, e.g. 111 or 1,0,2")
    p.add_argument("--averaged", action="store_true")
    p.add_argument("-n", type=int, default=None)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("weighted", help="measure-weighted identity for a code")
    p.add_argument("code")
    p.add_argument("--measure", required=True)
    p.add_argument("--x", default=None)
    p.set_defaults(func=_cmd_weighted)

    p = sub.add_parser("mc", help="seeded Monte Carlo hit-frequency check")
    p.add_argument("code")
    p.add_argument("--measure", default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("suite", help="run the exhaustive verification batteries")
    p.add_argument(
        "--only",
        default=None,
        help=f"comma-separated battery names ({', '.join(BATTERIES)})",
    )
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (files.FileFormatError, BudgetExceededError, BudgetError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": error, "kind": "internal"}), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
