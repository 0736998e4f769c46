"""Smoke test of ``tests/iteration_cost.py``: one repeat of a few calls runs
every phase at every shape. Timings move with the host, so none is checked."""

from iteration_cost import PHASES, SHAPES, TOTALS, report


def test_the_split_names_every_phase_at_every_shape():
    lines = report(calls=2, repeats=1)
    assert lines[0].startswith("machine {")
    headers = [k for k, line in enumerate(lines) if line.startswith("L = ")]
    assert [lines[k].split(":")[0] for k in headers] == [f"L = {L}, N = {N}" for L, N in SHAPES]
    for k in headers:
        rows = lines[k + 1:k + 1 + len(PHASES) + len(TOTALS)]
        assert [line[:15].strip() for line in rows] == list(PHASES + TOTALS)
        # the qp phase's solve is at roundoff at L = 25 and refined at L = 400
        qp = rows[PHASES.index("qp")]
        assert qp.endswith(f"({1 if lines[k].startswith('L = 25,') else 2} transposed dtbtrs)")
        # the calls are counted, not timed: whole iterations' worth of events
        python_calls, c_calls = (float(line[15:]) for line in rows[-2:])
        assert python_calls > 0 and c_calls > 0
