"""Differential property tests: the logical-support gate path and the
holonomy certifier against the whole-block and full-register oracles, and
the factored sweep engine against the dense interleaved propagator, on
random commutant schedules.

The schedules draw their terms from every commutant two-body string, so
they reach logical images that u1/u2/u3 never produce, such as
X_1 X_N -> X...X of weight N - 2, whose support is every logical qubit,
and active factors of 2 to N system qubits. The full-register oracles run
at N = 4 and 6; the whole-block oracle also at N = 8.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import two_body_strings
from dfsgates.dfs import build_logical_basis
from dfsgates.gates import GateSchedule, ScheduleSegment, logical_gate, verify_holonomy
from dfsgates.linalg import product_fidelity
from dfsgates.noise import BathModel, DDErrorModel, InterleavingPlan, error_sweep
from dfsgates.pauli import PauliString, PauliSum, commutant_split
from oracles import (
    block_certifier,
    evolve_schedule,
    holonomy_oracle,
    interleave,
    project_to_logical,
    reduced_system_propagator,
)

COMMUTANT = {
    n: [s for s in two_body_strings(n)
        if not commutant_split(PauliSum.from_terms(n, [(1.0, s)]))[1].terms]
    for n in (4, 6, 8)
}
# Two-body strings that anticommute with X...X or Z...Z: one such term
# moves the code space.
LEAKING = {n: [s for s in two_body_strings(n) if s not in COMMUTANT[n]] for n in COMMUTANT}
# The full-register oracles' sizes.
BASES = {n: build_logical_basis(n) for n in (4, 6)}


def _schedule(n: int, segments, kind: str = "u1", target=(1,)) -> GateSchedule:
    """A schedule of (terms, area) segments; kind and target do not enter
    logical_gate, only the frames that verify_holonomy transports."""
    return GateSchedule(kind, n, tuple(target), 0.0, tuple(
        ScheduleSegment(PauliSum.from_terms(n, terms), area) for terms, area in segments
    ))


@st.composite
def commutant_schedules(draw, sizes=tuple(BASES), leaking: bool = False) -> GateSchedule:
    """1-3 segments of 1-3 commutant two-body strings at an N of sizes, with
    coefficients in [-3, 3] and areas in [-2, 2], under a random kind and
    valid target. With leaking, one segment also holds one term that
    anticommutes with X...X or Z...Z, of coefficient +-[0.05, 1]."""
    n = draw(st.sampled_from(sizes))
    term = st.tuples(st.floats(-3.0, 3.0), st.sampled_from(COMMUTANT[n]))
    segment = st.tuples(st.lists(term, min_size=1, max_size=3), st.floats(-2.0, 2.0))
    segments = draw(st.lists(segment, min_size=1, max_size=3))
    if leaking:
        at = draw(st.integers(0, len(segments) - 1))
        kick = (draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1, 1])),
                draw(st.sampled_from(LEAKING[n])))
        segments[at] = ([*segments[at][0], kick], segments[at][1])
    kind = draw(st.sampled_from(["u1", "u2", "u3"]))
    if kind == "u3":
        k = draw(st.integers(1, n - 3))
        target = (k, draw(st.integers(k + 1, n - 2)))
    else:
        target = (draw(st.integers(1, n - 2)),)
    return _schedule(n, segments, kind, target)


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


# Each example runs the dense oracle on the full register; 40 keep the
# pair of tests near two seconds.
@settings(max_examples=40, deadline=None)
@given(commutant_schedules())
def test_certifier_matches_holonomy_oracle(schedule):
    report = verify_holonomy(schedule)
    got = (report.cyclic_defect, report.max_parallel_transport_violation,
           report.leakage, report.subspace_swap)
    want = holonomy_oracle(schedule, BASES[schedule.n_physical])
    assert (got[3] is None) == (want[3] is None)
    for value, reference in zip(got, want):
        if reference is not None:
            assert abs(value - reference) <= 1e-12 * reference + 1e-14


@settings(max_examples=40, deadline=None)
@given(commutant_schedules(leaking=True))
def test_leaking_term_reported_at_least_the_oracle_leakage(schedule):
    # The oracle's leakage of B† U B carries its own rounding, ~1e-15, which
    # a vanishing area leaves as the whole value.
    oracle_leakage = holonomy_oracle(schedule, BASES[schedule.n_physical])[2]
    report = verify_holonomy(schedule)
    assert report.leakage >= oracle_leakage - 1e-14
    # The one mask pass per segment reports what commutant_split finds there;
    # verify prints the counts as its commutant_membership row.
    assert len(report.leaking_terms) == len(report.leak_weights) == len(schedule.segments)
    for segment, count, weight in zip(schedule.segments, report.leaking_terms,
                                      report.leak_weights):
        leaking = commutant_split(segment.hamiltonian)[1]
        assert count == leaking.n_terms
        assert weight == sum(abs(c) for c, _ in leaking.terms)
    assert sum(report.leaking_terms) >= 1


@settings(max_examples=60, deadline=None)
@given(commutant_schedules(sizes=(4, 6, 8)))
@example(_schedule(8, [
    ([(0.7, PauliString.from_label("XIIIIIIX")), (0.3, PauliString.from_label("IZIIIZII"))], 1.3),
], "u3", (2, 5)))
def test_support_path_matches_block_oracle(schedule):
    *want, gate = block_certifier(schedule)
    report = verify_holonomy(schedule)
    got = (report.cyclic_defect, report.max_parallel_transport_violation,
           report.leakage, report.subspace_swap)
    assert (got[3] is None) == (want[3] is None)
    for value, reference in zip(got, want):
        if reference is not None:
            assert abs(value - reference) <= 1e-12 * reference + 1e-14
    # Both paths round each eigenphase of a_s H_s, so the gates agree to
    # 1e-14 per radian of the summed phase bound sum_s |a_s| sum |c|;
    # u1/u2/u3 stay within 1e-14 flat (test_gates).
    phase = sum(abs(seg.area) * abs(c) for seg in schedule.segments
                for c, _ in seg.hamiltonian.terms)
    bound = 1e-14 * (1 + phase)
    assert np.abs(logical_gate(schedule) - gate).max() <= bound


@st.composite
def noisy_sweeps(draw):
    """(schedule, plan, bath, grids): a commutant schedule at N = 4 or 6 with
    at least one term, a scalar bath there or a bath-qubit model at N = 4 (a
    256-dimensional dense register), of random width and seed, 1-3 cycles
    and 1-3 values per error kind."""
    schedule = draw(commutant_schedules().filter(
        lambda s: any(seg.hamiltonian.terms for seg in s.segments)))
    n = schedule.n_physical
    kind = draw(st.sampled_from(["qubit", "scalar"] if n == 4 else ["scalar"]))
    bath = BathModel.random(n, draw(st.floats(0.0, 0.3)), draw(st.integers(0, 10**6)), kind)
    value = st.floats(-0.2, 0.2)
    grids = {"flip": draw(st.lists(value, min_size=1, max_size=3)),
             "detuning": draw(st.lists(value, min_size=1, max_size=3))}
    return schedule, InterleavingPlan(draw(st.integers(1, 3))), bath, grids


@settings(max_examples=25, deadline=None, derandomize=True)
@given(noisy_sweeps())
def test_sweep_matches_dense_interleave(case):
    # The engine factors the register over its active and idle qubits; the
    # oracle multiplies dense pulses and slices on the whole register.
    schedule, plan, bath, grids = case
    ideal = reduced_system_propagator(interleave(schedule, bath, plan), bath)
    for kind, value, fidelity in error_sweep(schedule, plan, bath, grids):
        errors = DDErrorModel(epsilon=value) if kind == "flip" else DDErrorModel(delta=value)
        noisy = reduced_system_propagator(interleave(schedule, bath, plan, errors), bath)
        assert abs(fidelity - product_fidelity([ideal], [noisy])) <= 2e-14
