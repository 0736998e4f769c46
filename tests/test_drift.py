"""Drift gate: every algorithm's per-window results against a checked-in golden file.

Statuses and iteration counts must match exactly, estimates to
``ESTIMATE_TOL``. The runs, the tolerance and the regeneration command are in
``tests/drift_golden.py``.
"""

import json

import numpy as np
import pytest

from drift_golden import ESTIMATE_TOL, GOLDEN, run_cells

GOLDEN_CELLS = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def cells():
    return run_cells()


def test_the_gate_covers_the_golden_runs(cells):
    assert sorted(cells) == sorted(GOLDEN_CELLS)


@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_windows_match_the_golden_file(cells, name):
    got, want = cells[name], GOLDEN_CELLS[name]
    assert [(w["status"], w["iterations"]) for w in got] == [
        (w["status"], w["iterations"]) for w in want
    ]
    for k, (a, b) in enumerate(zip(got, want)):
        np.testing.assert_allclose(
            a["estimate"], b["estimate"], rtol=ESTIMATE_TOL, atol=ESTIMATE_TOL,
            err_msg=f"window {k}",
        )
