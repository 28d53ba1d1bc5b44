"""Every default scenario, convergence gate on, reproduces its stored reference
document (``perfbench/golden/<scenario>.json``, read here and never written).

Metrics and table entries are compared at 1e-10 relative tolerance plus a
1e-13 absolute floor for entries that are round-off (leakage at t = 0,
protocol deviations), the same comparison the benchmark makes.
"""

import json
from pathlib import Path

import pytest

from cavityconv.scenarios import run_scenario
from cavityconv.serialize import result_to_json

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
RTOL = 1e-10
ATOL = 1e-13


def close(got, want) -> bool:
    if isinstance(want, (bool, str)) or isinstance(got, (bool, str)):
        return got == want
    return abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_default_scenario_matches_golden_document(path):
    want = json.loads(path.read_text())
    # the document as the CLI prints it, floats rounded the same way
    got = json.loads(result_to_json(run_scenario({"scenario": want["scenario"]})))
    assert got["convergence_gate"]["checked"] == want["convergence_gate"]["checked"]
    assert set(got["metrics"]) == set(want["metrics"])
    for name, value in want["metrics"].items():
        assert close(got["metrics"][name], value), (name, got["metrics"][name], value)
    assert set(got["tables"]) == set(want["tables"])
    for name, table in want["tables"].items():
        rows = got["tables"][name]["rows"]
        assert got["tables"][name]["columns"] == table["columns"]
        assert len(rows) == len(table["rows"])
        for got_row, want_row in zip(rows, table["rows"]):
            assert all(close(g, w) for g, w in zip(got_row, want_row)), (name, got_row, want_row)


def test_every_registered_default_has_a_golden_document():
    from cavityconv.scenarios import SCENARIOS

    assert {p.stem for p in GOLDEN_DIR.glob("*.json")} == set(SCENARIOS)
