"""Work gate: every algorithm's work counts against a checked-in golden file.

Every count must match exactly: counts do not move with the host. The runs,
the counted names and the regeneration command are in
``tests/work_golden.py``.
"""

import json
from collections import Counter

import pytest

from work_golden import GOLDEN, SITES, counting, run_cells

GOLDEN_CELLS = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def cells():
    return run_cells()


def test_the_gate_covers_the_golden_runs(cells):
    assert sorted(cells) == sorted(GOLDEN_CELLS)


@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_work_matches_the_golden_file(cells, name):
    assert cells[name] == GOLDEN_CELLS[name]


def _patched():
    return [getattr(owner, attr) for owner, attr, _ in SITES]


def test_counting_restores_every_patched_name():
    before = _patched()
    with counting(Counter()):
        assert not any(a is b for a, b in zip(before, _patched()))
    assert all(a is b for a, b in zip(before, _patched()))
