"""Acceptance batteries, one test per criterion, one printed line each.

Criterion 4 states a two-directional equivalence for minimal-size
instances: the mover wins iff the block-code image is a maximal prefix
code for every history mixer c_i = x(a_1, b_1, ..., a_i) + b_i (mod k).
Both directions hold; the battery checks them on 2091 binary and 85
ternary instances.  Over per-stage mixers x_i(a_i) only the forward
direction holds: four depth-4 binary responder wins keep every per-stage
image maximal.
"""

from fractions import Fraction

import pytest

from opengame.suite import BatteryResult, SuiteData, battery_kraft_necessity, run_battery
from opengame.tree import PositionSet


@pytest.fixture(scope="module")
def data() -> SuiteData:
    return SuiteData()


def _run(name: str, data: SuiteData) -> BatteryResult:
    result = run_battery(name, data)
    print()
    print(result.line())
    return result


def test_criterion_1_solver_matches_oracle(data):
    result = _run("solver_oracle", data)
    assert result.passed, result.detail


def test_criterion_2_kraft_necessity(data):
    result = _run("kraft_necessity", data)
    assert result.passed, result.detail


def test_kraft_necessity_counts_each_violation_once():
    stub = SuiteData()
    stub.exhaustive = [PositionSet([(0, 0)])]
    stub.winners, stub.krafts = [1], [Fraction(1, 2)]
    passed, detail = battery_kraft_necessity(stub)
    assert not passed
    assert detail == "1 instances, 1 violations of the sum-at-least-one necessity"


def test_criterion_3_minimal_extraction(data):
    result = _run("minimal_extraction", data)
    assert result.passed, result.detail


def test_criterion_4_code_equivalence(data):
    result = _run("code_equivalence", data)
    assert result.passed, result.detail


def test_criterion_5_covering_identity(data):
    result = _run("covering_identity", data)
    assert result.passed, result.detail


def test_criterion_6_free_group(data):
    result = _run("free_group", data)
    assert result.passed, result.detail


def test_criterion_7_hat_index(data):
    result = _run("hat_index", data)
    assert result.passed, result.detail


def test_criterion_8_moran_threshold(data):
    result = _run("moran_threshold", data)
    assert result.passed, result.detail


def test_criterion_9_measures_monte_carlo(data):
    result = _run("measures_monte_carlo", data)
    assert result.passed, result.detail
