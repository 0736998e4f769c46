"""Smoke test of ``tests/iteration_cost.py``: one repeat of a few calls runs
every phase at every shape. Timings move with the host, so none is checked."""

from iteration_cost import PHASES, SHAPES, report


def test_the_split_names_every_phase_at_every_shape():
    lines = report(calls=2, repeats=1)
    assert lines[0].startswith("machine {")
    headers = [k for k, line in enumerate(lines) if line.startswith("L = ")]
    assert [lines[k].split(":")[0] for k in headers] == [f"L = {L}, N = {N}" for L, N in SHAPES]
    for k in headers:
        names = [line.split()[0] for line in lines[k + 1:k + 1 + len(PHASES)]]
        assert names == list(PHASES)
