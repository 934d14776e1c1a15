"""Replay recorded CLI calls and require the same stdout bytes, stderr and exit status.

``golden/cases.json`` lists each call's arguments, exit status and stderr;
``golden/<name>.out`` holds its stdout.  Paths in the arguments are
relative to ``golden/``.  A change that means to alter an output
re-records the affected files and says so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from opengame.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_matches_the_recording(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("OPENGAME_BUDGET", raising=False)
    status = main(case["argv"])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{case['name']}.out").read_text()
    assert captured.err == case["stderr"]
    assert status == case["status"]
