"""JSON instance files: games, codes, mixing vectors, generators, measures.

Every kind has a canonical emitted form (sorted keys, sorted payload,
two-space indent, trailing newline) that round-trips byte-identically
through parse and emit.  Parsing is tolerant about the envelope (missing
"kind"/"schema_version" default to the requested kind and version 1) but
strict about payload shapes, and errors carry the offending path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .codes import PrefixCode, XVector
from .covering import Measure, MeasureSpec
from .freegroup import GroupWord, parse_word, word_to_str
from .tree import PositionSet

SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """Malformed instance file; the message names the file and the defect."""


def _fail(path: str | Path, message: str) -> "FileFormatError":
    return FileFormatError(f"{path}: {message}")


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _fail(path, f"cannot read file ({exc})") from None
    except json.JSONDecodeError as exc:
        raise _fail(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    if not isinstance(data, dict):
        raise _fail(path, "top level must be a JSON object")
    return data


def _check_envelope(path: str | Path, data: dict, kind: str) -> None:
    found = data.get("kind", kind)
    if found != kind:
        raise _fail(path, f"expected kind {kind!r}, found {found!r}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise _fail(path, f"unsupported schema_version {version!r}")


def _int_arrays(path: str | Path, value: Any, field: str) -> list[tuple[int, ...]]:
    if not isinstance(value, list):
        raise _fail(path, f"{field!r} must be a list of integer arrays")
    out = []
    for i, item in enumerate(value):
        # type(a) is int: JSON true/false parse to bool, a subclass of int
        if not isinstance(item, list) or not all(type(a) is int and a >= 0 for a in item):
            raise _fail(path, f"{field}[{i}] must be an array of nonnegative integers")
        out.append(tuple(item))
    return out


def _alphabet_size(path: str | Path, data: dict) -> int:
    k = data.get("alphabet_size")
    if not isinstance(k, int) or k < 2:
        raise _fail(path, "'alphabet_size' must be an integer >= 2")
    return k


# -- games ------------------------------------------------------------------


def load_game(path: str | Path) -> tuple[int, PositionSet]:
    data = _load_json(path)
    _check_envelope(path, data, "game")
    k = _alphabet_size(path, data)
    positions = _int_arrays(path, data.get("positions"), "positions")
    for p in positions:
        if any(a >= k for a in p):
            raise _fail(path, f"position {list(p)} uses symbols outside 0..{k - 1}")
    flag = data.get("infinite_family", False)
    if not isinstance(flag, bool):
        raise _fail(path, "'infinite_family' must be a boolean")
    return k, PositionSet(positions, infinite_family=flag)


def game_to_json(k: int, zset: PositionSet) -> str:
    return dumps_canonical(
        {
            "kind": "game",
            "schema_version": SCHEMA_VERSION,
            "alphabet_size": k,
            "infinite_family": zset.infinite_family,
            "positions": [list(p) for p in zset.sorted_positions()],
        }
    )


# -- codes ------------------------------------------------------------------


def load_code(path: str | Path) -> PrefixCode:
    data = _load_json(path)
    _check_envelope(path, data, "code")
    k = _alphabet_size(path, data)
    words = _int_arrays(path, data.get("words"), "words")
    try:
        return PrefixCode.of(words, k)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def code_to_json(code: PrefixCode) -> str:
    return dumps_canonical(
        {
            "kind": "code",
            "schema_version": SCHEMA_VERSION,
            "alphabet_size": code.alphabet_size,
            "words": [list(w) for w in code.sorted_positions()],
        }
    )


# -- mixing vectors ----------------------------------------------------------


def load_xvector(path: str | Path, alphabet_size: int | None = None) -> XVector:
    data = _load_json(path)
    _check_envelope(path, data, "xvector")
    if "bits" in data:
        bits = data["bits"]
        if not isinstance(bits, list) or not all(type(b) is int and b in (0, 1) for b in bits):
            raise _fail(path, "'bits' must be a list of 0/1")
        if alphabet_size not in (None, 2):
            raise _fail(path, f"'bits' is binary shorthand, alphabet size is {alphabet_size}")
        return XVector.from_bits(bits)
    entries = data.get("entries")
    if entries is None:
        raise _fail(path, "expected 'entries' or the binary shorthand 'bits'")
    tables = _int_arrays(path, entries, "entries")
    depth = data.get("depth", len(tables))
    if type(depth) is not int:
        raise _fail(path, "'depth' must be an integer")
    if depth != len(tables):
        raise _fail(path, f"'depth' is {depth} but {len(tables)} entries are listed")
    try:
        return XVector(tables, alphabet_size=alphabet_size)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def xvector_to_json(x: XVector) -> str:
    return dumps_canonical(
        {
            "kind": "xvector",
            "schema_version": SCHEMA_VERSION,
            "depth": x.depth,
            "entries": [list(e) for e in x.entries],
        }
    )


# -- generators ---------------------------------------------------------------


def parse_generators(arg: str | Path) -> tuple[int | None, list[GroupWord]]:
    """Generators from an inline comma-separated string or a JSON file.

    Returns the declared alphabet size (None when inline strings carry no
    declaration) and the parsed words.
    """
    text = str(arg)
    if text.endswith(".json"):
        data = _load_json(arg)
        _check_envelope(arg, data, "generators")
        gens = data.get("generators")
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise _fail(arg, "'generators' must be a list of strings")
        k = data.get("alphabet_size")
        if k is not None and (not isinstance(k, int) or k < 2):
            raise _fail(arg, "'alphabet_size' must be an integer >= 2")
        try:
            return k, [parse_word(g) for g in gens]
        except ValueError as exc:
            raise _fail(arg, str(exc)) from None
    words = [w for w in (piece.strip() for piece in text.split(",")) if w]
    return None, [parse_word(w) for w in words]


def generators_to_json(k: int, words: list[GroupWord]) -> str:
    return dumps_canonical(
        {
            "kind": "generators",
            "schema_version": SCHEMA_VERSION,
            "alphabet_size": k,
            "generators": sorted(word_to_str(w) for w in words),
        }
    )


# -- measures ------------------------------------------------------------------


def _parse_fraction(path: str | Path, text: Any, field: str) -> Fraction:
    if not isinstance(text, str):
        raise _fail(path, f"{field} must be a rational string like '1/3'")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _fail(path, f"{field} is not a valid rational: {text!r}") from None


def _measure_from_dict(path: str | Path, data: dict, where: str) -> Measure:
    if "tail" in data:
        if data["tail"] != Measure.GEOMETRIC2:
            raise _fail(path, f"{where}: unknown tail {data['tail']!r}")
        return Measure.geometric2()
    weights = data.get("weights")
    if not isinstance(weights, dict) or not weights:
        raise _fail(path, f"{where}: expected 'weights' or 'tail'")
    table = {}
    for key, value in weights.items():
        try:
            symbol = int(key)
        except ValueError:
            raise _fail(path, f"{where}: weight key {key!r} is not a symbol") from None
        table[symbol] = _parse_fraction(path, value, f"{where}: weight of {key}")
    try:
        return Measure(weights=table)
    except ValueError as exc:
        raise _fail(path, f"{where}: {exc}") from None


def load_measure(path: str | Path) -> MeasureSpec:
    data = _load_json(path)
    _check_envelope(path, data, "measure")
    if "stages" in data:
        stages = data["stages"]
        if not isinstance(stages, list) or not stages:
            raise _fail(path, "'stages' must be a nonempty list")
        return MeasureSpec(
            stages=[
                _measure_from_dict(path, stage, f"stages[{i}]")
                for i, stage in enumerate(stages)
            ]
        )
    return MeasureSpec(single=_measure_from_dict(path, data, "measure"))


def measure_to_json(spec: MeasureSpec) -> str:
    payload: dict[str, Any] = {"kind": "measure", "schema_version": SCHEMA_VERSION}
    payload.update(spec.to_json_dict())
    return dumps_canonical(payload)
