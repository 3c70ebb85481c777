"""The sweep's grid axis against the per-point loop it replaced.

`noise.error_sweep` evaluates every distinct pulse error model of a grid as
one entry of a leading stack axis, the ideal pulses as entry 0, in chunks
of at most MAX_GRID_ENTRIES stacked entries. `oracles.per_point_sweep`
runs one point at a time, through `product_fidelity`. The property test
draws the bath strategies too: no bath, scalar fields and bath qubits of
random width and seed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfsgates.noise as noise
from dfsgates.cli import main
from dfsgates.gates import schedule_u1, schedule_u2, schedule_u3
from dfsgates.noise import BathModel, InterleavingPlan, error_sweep, sweep_csv_lines
from oracles import per_point_sweep

BUILDERS = {"u1": schedule_u1, "u2": schedule_u2}


@st.composite
def sweeps(draw):
    """(schedule, plan, bath, grids): a built-in gate on a random target at
    N = 4, 6 or 8, a bath of each kind, 1-6 cycles and a grid of 0-6
    values per error kind that may hold zero and repeats."""
    n = draw(st.sampled_from([4, 6, 8]))
    gate = draw(st.sampled_from(["u1", "u2", "u3"]))
    angle = draw(st.floats(-1.5, 1.5))
    if gate == "u3":
        k = draw(st.integers(1, n - 3))
        schedule = schedule_u3(n, k, draw(st.integers(k + 1, n - 2)), angle)
    else:
        schedule = BUILDERS[gate](n, draw(st.integers(1, n - 2)), angle)
    kind = draw(st.sampled_from(["none", "scalar", "qubit"]))
    if kind == "none":
        bath = BathModel.zero(n)
    else:
        bath = BathModel.random(n, draw(st.floats(0.0, 0.3)), draw(st.integers(0, 10**6)), kind)
    value = st.one_of(st.just(0.0), st.floats(-0.2, 0.2))
    grids = draw(st.dictionaries(st.sampled_from(["flip", "detuning"]),
                                 st.lists(value, max_size=6), min_size=1))
    return schedule, InterleavingPlan(draw(st.integers(1, 6))), bath, grids


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sweeps())
def test_grid_matches_per_point_loop(case):
    schedule, plan, bath, grids = case
    rows = error_sweep(schedule, plan, bath, grids)
    want = per_point_sweep(schedule, plan, bath, grids)
    assert [(k, v) for k, v, _ in rows] == [(k, v) for k, v, _ in want]
    assert max((abs(f - g) for (_, _, f), (_, _, g) in zip(rows, want)), default=0.0) <= 1e-15
    assert sweep_csv_lines(rows, 3, plan, schedule) == sweep_csv_lines(want, 3, plan, schedule)


def test_zero_grid_writes_two_rows_at_fidelity_one(tmp_path):
    out = tmp_path / "zero.csv"
    code = main(["sweep", "--eps-range", "0:0", "--delta-range", "0:0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["detuning", "0", "1.000000000000"], ["flip", "0", "1.000000000000"]]


def test_kind_with_no_values_gives_no_rows():
    schedule, bath = schedule_u1(4, 1, 0.7), BathModel.random(4, 0.1, seed=2)
    plan = InterleavingPlan(2)
    assert error_sweep(schedule, plan, bath, {"flip": []}) == []
    rows = error_sweep(schedule, plan, bath, {"flip": [], "detuning": [0.05, 0.0]})
    assert [(k, v) for k, v, _ in rows] == [("detuning", 0.05), ("detuning", 0.0)]
    assert rows == error_sweep(schedule, plan, bath, {"detuning": [0.05, 0.0]})


@pytest.mark.parametrize("kind", ["scalar", "qubit"])
def test_chunks_give_the_rows_of_one_chunk(monkeypatch, kind):
    # The grid holds 13 distinct error models: the ideal pulses, which the
    # zeros share, and six more per kind, 0.05 twice. A budget of three
    # grid entries cuts them into five chunks, a budget of one into 13.
    schedule, bath = schedule_u2(4, 2, 0.6), BathModel.random(4, 0.1, seed=5, kind=kind)
    plan = InterleavingPlan(3)
    values = [-0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1, 0.0, 0.05]
    grids = {"flip": values, "detuning": values[::-1]}
    whole = error_sweep(schedule, plan, bath, grids)
    slices, idle = noise._factor_slices(schedule, bath, plan)
    per_entry = slices.size + idle.size
    assert noise.MAX_GRID_ENTRIES >= 13 * per_entry
    calls = []
    grid_propagators = noise._grid_propagators

    def counting(factors, plan, errors):
        calls.append(len(errors))
        return grid_propagators(factors, plan, errors)

    monkeypatch.setattr(noise, "_grid_propagators", counting)
    monkeypatch.setattr(noise, "MAX_GRID_ENTRIES", 3 * per_entry + 1)
    assert error_sweep(schedule, plan, bath, grids) == whole
    assert calls == [3, 3, 3, 3, 1]
    calls.clear()
    monkeypatch.setattr(noise, "MAX_GRID_ENTRIES", 1)
    assert error_sweep(schedule, plan, bath, grids) == whole
    assert calls == [1] * 13
