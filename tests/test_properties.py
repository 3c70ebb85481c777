"""Differential property tests: the code-space gate path against the
full-register oracle on random commutant schedules.

The schedules draw their terms from every commutant two-body string, so
they reach logical images that u1/u2/u3 never produce, such as
X_1 X_N -> X...X of weight N - 2.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import two_body_strings
from dfsgates.dfs import build_logical_basis
from dfsgates.gates import GateSchedule, ScheduleSegment, logical_gate
from dfsgates.pauli import PauliString, PauliSum, commutant_split
from oracles import evolve_schedule, project_to_logical

COMMUTANT = {
    n: [s for s in two_body_strings(n)
        if commutant_split(PauliSum.from_terms(n, [(1.0, s)]))[1].is_zero()]
    for n in (4, 6)
}
BASES = {n: build_logical_basis(n) for n in COMMUTANT}


def _schedule(n: int, segments) -> GateSchedule:
    """A schedule of (terms, area) segments; kind and target do not enter
    logical_gate."""
    return GateSchedule("u1", n, (1,), 0.0, tuple(
        ScheduleSegment(PauliSum.from_terms(n, terms), area) for terms, area in segments
    ))


@st.composite
def commutant_schedules(draw) -> GateSchedule:
    """1-3 segments of 1-3 commutant two-body strings at N = 4 or 6, with
    coefficients in [-3, 3] and areas in [-2, 2]."""
    n = draw(st.sampled_from(sorted(COMMUTANT)))
    term = st.tuples(st.floats(-3.0, 3.0), st.sampled_from(COMMUTANT[n]))
    segment = st.tuples(st.lists(term, min_size=1, max_size=3), st.floats(-2.0, 2.0))
    return _schedule(n, draw(st.lists(segment, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(commutant_schedules())
@example(_schedule(6, [
    ([(0.7, PauliString.from_label("XIIIIX")), (-1.1, PauliString.from_label("YIIIIY"))], 1.3),
    ([(0.4, PauliString.from_label("IZIIIZ"))], -0.8),
]))
def test_block_gate_matches_full_register_oracle(schedule):
    full = evolve_schedule(schedule)
    oracle = project_to_logical(full, BASES[schedule.n_physical])
    assert np.abs(logical_gate(schedule) - oracle).max() <= 1e-12
