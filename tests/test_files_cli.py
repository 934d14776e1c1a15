import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from opengame import files
from opengame import cli, covering
from opengame.cli import main
from opengame.codes import PrefixCode, XVector
from opengame.covering import Measure
from opengame.suite import geometric_ladder
from opengame.tree import PositionSet

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(files.game_to_json(2, PositionSet([(0, 1), (0, 0)])))
    return str(path)


@pytest.fixture
def code_file(tmp_path):
    code = PrefixCode.of([(1,), (0, 1), (0, 0, 1), (0, 0, 0)], 2)
    path = tmp_path / "code.json"
    path.write_text(files.code_to_json(code))
    return str(path)


def test_game_round_trip_is_byte_identical(game_file):
    first = Path(game_file).read_text()
    k, z = files.load_game(game_file)
    assert files.game_to_json(k, z) == first


def test_code_and_xvector_round_trips(tmp_path):
    code = PrefixCode.of([(0, 1), (1,)], 2)
    text = files.code_to_json(code)
    path = tmp_path / "c.json"
    path.write_text(text)
    assert files.code_to_json(files.load_code(path)) == text

    x = XVector.from_bits((1, 0))
    text = files.xvector_to_json(x)
    xpath = tmp_path / "x.json"
    xpath.write_text(text)
    assert files.load_xvector(xpath) == x
    assert files.xvector_to_json(files.load_xvector(xpath)) == text

    bits = tmp_path / "bits.json"
    bits.write_text('{"kind": "xvector", "bits": [1, 0]}')
    assert files.load_xvector(bits) == x


def test_measure_round_trip(tmp_path):
    measure = Measure(weights={0: Fraction(1, 3), 1: Fraction(2, 3)})
    text = files.measure_to_json(measure)
    path = tmp_path / "m.json"
    path.write_text(text)
    assert files.measure_to_json(files.load_measure(path)) == text

    tail = tmp_path / "tail.json"
    tail.write_text('{"kind": "measure", "tail": "geometric2"}')
    assert not files.load_measure(tail).finite_support


def test_cli_rejects_per_stage_measure_files(tmp_path, code_file, capsys):
    staged = tmp_path / "staged.json"
    staged.write_text(
        json.dumps({"kind": "measure", "stages": [{"weights": {"0": "1/2", "1": "1/2"}}]})
    )
    for argv in (["weighted", code_file, "--x", "111"], ["mc", code_file, "--trials", "10"]):
        assert main(argv + ["--measure", str(staged)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["kind"] == "usage" and "staged.json" in error["error"]


def test_malformed_files_carry_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(files.FileFormatError, match="bad.json"):
        files.load_game(bad)

    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"kind": "code", "alphabet_size": 2, "words": []}')
    with pytest.raises(files.FileFormatError, match="expected kind 'game'"):
        files.load_game(wrong)

    nosym = tmp_path / "nosym.json"
    nosym.write_text('{"alphabet_size": 2, "positions": [[0, 7]]}')
    with pytest.raises(files.FileFormatError, match="outside"):
        files.load_game(nosym)


def test_generators_inline_and_file(tmp_path):
    k, gens = files.parse_generators("b,aba,aBa")
    assert k is None and len(gens) == 3
    path = tmp_path / "gens.json"
    path.write_text(
        '{"kind": "generators", "alphabet_size": 2, "generators": ["aa", "b"]}'
    )
    k, gens = files.parse_generators(str(path))
    assert k == 2 and len(gens) == 2


def test_cli_solve_with_oracle(game_file, capsys):
    assert main(["solve", game_file, "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == 1
    assert payload["oracle_agrees"] is True


def test_cli_kraft_flags(game_file, capsys):
    assert main(["kraft", game_file, "--subtree", "2", "--moran"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kraft_sum"] == "1/1"
    assert payload["is_minimal_size"] is True
    assert payload["subtree_criterion"] == "1/1"
    assert payload["moran"]["below_half"] is False


def test_cli_minimize(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(files.game_to_json(2, PositionSet([(0, 0), (0, 1), (1, 0)])))
    assert main(["minimize", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["positions"] == [[0, 0], [0, 1]]


def test_cli_codes_subcommands(tmp_path, game_file, code_file, capsys):
    assert main(["codes", "check", code_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_prefix_code"] and payload["is_maximal"]
    assert not payload["is_bifix_code"]

    xfile = tmp_path / "x.json"
    xfile.write_text(files.xvector_to_json(XVector.from_bits((0,))))
    assert main(["codes", "cx", game_file, "--x", str(xfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["words"] == [[0], [1]]

    assert main(["codes", "equiv", game_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equiv_holds"] and payload["winner"] == 1


def test_cli_codes_equiv_flags_failed_equivalence(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(
        files.game_to_json(
            2, PositionSet([(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)])
        )
    )
    assert main(["codes", "equiv", str(path), "--per-stage"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == 2 and payload["all_maximal"]

    # over history mixers the equivalence holds: some image is not maximal
    assert main(["codes", "equiv", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] == 2 and payload["equiv_holds"]
    assert not payload["all_maximal"]


def test_cli_codes_equiv_decides_deep_combs_and_rejects_flagged_ladders(tmp_path, capsys):
    # the comb code {0^i 1 : i < 19} + {0^19} interleaved with mover 0: 2^19
    # history mixers, decided by comparing 19 sorted neighbours
    comb = [(0,) * i + (1,) for i in range(19)] + [(0,) * 19]
    path = tmp_path / "comb.json"
    path.write_text(files.game_to_json(2, PositionSet(sum(((0, c) for c in w), ()) for w in comb)))
    for flag, checked in (([], 19), (["--per-stage"], 190)):
        assert main(["codes", "equiv", str(path), *flag]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["winner"] == 1 and payload["all_maximal"] and payload["equiv_holds"]
        assert payload["witness"] is None and payload["checked"] == checked

    # a flagged ladder is minimal-size only through its closed-form tail; the
    # images are taken of its listed positions, which sum to 7/8
    path = tmp_path / "ladder.json"
    path.write_text(files.game_to_json(2, geometric_ladder(3)))
    for flag in ([], ["--per-stage"]):
        assert main(["codes", "equiv", str(path), *flag]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "equivalence_check requires a minimal-size set", "kind": "usage"}


def test_cli_fold_index_member(capsys):
    assert main(["fold", "b,aba,aBa"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["vertices"]) == 3

    assert main(["index", "b,aba,aBa", "-k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index"] == "infinite" and payload["core_vertices"] == 3

    assert main(["index", "aa,b,abA", "-k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index"] == 2 and payload["rank"] == 3

    assert main(["member", "abaB", "b,aba,aBa"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True

    assert main(["fold", "b,aba,aBa", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_cli_hat_index(game_file, capsys):
    assert main(["hat-index", game_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index"] == 1
    assert payload["hat_words"] == [[0], [1]]


def test_cli_identity_weighted_mc(tmp_path, code_file, capsys):
    assert main(["identity", code_file, "--x", "111"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sum"] == "1/1" and payload["verdict"] == "equals_one"

    assert main(["identity", code_file, "--averaged", "-n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["sum"] == "1/1"

    assert main(["identity", code_file, "--x", "115"]) == 2  # 5 is outside 0..1
    assert json.loads(capsys.readouterr().err)["kind"] == "usage"

    mfile = tmp_path / "m.json"
    mfile.write_text('{"kind": "measure", "weights": {"0": "1/3", "1": "2/3"}}')
    assert main(["weighted", code_file, "--measure", str(mfile), "--x", "111"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "equals_one"

    assert main(["mc", code_file, "--trials", "2000", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == "1/1" and payload["within_3_sigma"] is True

    with pytest.raises(SystemExit) as exc:  # mc has no --x
        main(["mc", code_file, "--x", "111"])
    assert exc.value.code == 2


def test_cli_averaged_identity_refuses_past_its_cap(code_file, monkeypatch, capsys):
    # 2^17 mover sequences exceed AVERAGING_BUDGET = 2^16; refused before any is summed
    def unreachable(*args):
        raise AssertionError("averaged_identity enumerated past its cap")

    monkeypatch.setattr(covering, "identity_sum", unreachable)
    assert main(["identity", code_file, "--averaged", "-n", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["kind"] == "usage" and "2^17" in error["error"]


def test_cli_usage_errors(tmp_path, game_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err
    assert json.loads(err)["kind"] == "usage"

    assert main(["solve", game_file, "--budget", "1"]) == 2
    err = capsys.readouterr().err
    assert "budget" in err.lower()
    assert json.loads(err)["kind"] == "usage"

    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def test_cli_suite_single_battery(capsys):
    assert main(["suite", "--only", "free_group"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS free_group")

    assert main(["suite", "--only", "nope"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "unknown batteries: nope", "kind": "usage"}


def test_cli_module_entry_point(game_file):
    proc = subprocess.run(
        [sys.executable, "-m", "opengame", "solve", game_file],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["winner"] == 1


def test_cli_env_budget(game_file):
    proc = subprocess.run(
        [sys.executable, "-m", "opengame", "solve", game_file],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "OPENGAME_BUDGET": "1"},
    )
    assert proc.returncode == 2
    assert "budget" in proc.stderr.lower()


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("game", {"alphabet_size": 2, "positions": [[True, False], [False, True]]}),
        ("xvector", {"bits": [True, False]}),
        ("xvector", {"depth": True, "entries": [[0, 1]]}),
    ],
)
def test_json_booleans_are_not_symbols(tmp_path, game_file, capsys, kind, payload):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"kind": kind, **payload}))
    load = files.load_game if kind == "game" else files.load_xvector
    with pytest.raises(files.FileFormatError, match=f"{kind}.json"):
        load(path)
    argv = ["solve", str(path)] if kind == "game" else ["codes", "cx", game_file, "--x", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{kind}.json" in captured.err
    assert json.loads(captured.err)["kind"] == "usage"


@pytest.mark.parametrize(
    "positions",
    [
        [[2, 0], [2, 1], [2, 2]],  # mover symbol 2 has no bit
        [[0, 0], [1, 2]],  # mover symbols 0 and 1 only
    ],
)
def test_bits_shorthand_needs_a_binary_game(tmp_path, capsys, positions):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"kind": "game", "alphabet_size": 3, "positions": positions}))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"kind": "xvector", "bits": [1]}))
    with pytest.raises(files.FileFormatError, match="x.json"):
        files.load_xvector(x, alphabet_size=3)
    assert main(["codes", "cx", str(game), "--x", str(x)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "usage"


def test_cli_internal_failure_exit_code(game_file, monkeypatch, capsys):
    def broken(args):
        raise AssertionError("routes disagree")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    assert main(["solve", game_file]) == cli.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "AssertionError: routes disagree",
        "kind": "internal",
    }


def test_cli_uncaught_exception_is_internal(game_file, monkeypatch, capsys):
    def broken(args):
        raise IndexError("tuple index out of range")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    assert main(["solve", game_file]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "IndexError: tuple index out of range",
        "kind": "internal",
    }
