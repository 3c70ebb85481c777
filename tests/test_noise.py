from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
import dfsgates.noise as noise
from dfsgates.errors import BadPartitionError, DimensionMismatchError, DimensionTooLargeError
from dfsgates.gates import (
    GateSchedule,
    ScheduleSegment,
    schedule_u1,
    schedule_u2,
    schedule_u3,
)
from dfsgates.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expm_hermitian,
    kron_all,
    product_fidelity,
)
from dfsgates.noise import (
    MAX_CYCLES_PER_SEGMENT,
    BathModel,
    DDErrorModel,
    IDEAL_PULSES,
    InterleavingPlan,
    bare_evolution_error,
    dd_cycle,
    decoupling_order_probe,
    error_sweep,
    fit_error_order,
    single_qubit_pulse,
    symbolic_bath_average,
)
from dfsgates.pauli import PauliString, PauliSum
from oracles import (
    assemble,
    dense_bare_evolution_error,
    dense_decoupling_order_probe,
    engine_propagator,
    evolve_schedule,
    factor_qubits,
    hamiltonian_matrix,
    interleave,
    interleave_oracle,
    is_unitary,
    pauli_to_matrix,
    per_factor_bare_evolution_error,
    per_rung_decoupling_order_probe,
    pulse,
    reduced_system_propagator,
    sign_sum,
)


class TestPulses:
    def test_ideal_single_x(self):
        assert np.allclose(pulse("x", 1), -1j * SIGMA_X, atol=1e-12)

    def test_ideal_four_x_is_global_string(self):
        # (-i)^4 = 1, so the ideal pulse is the global Pauli string itself
        expected = pauli_to_matrix(PauliString.uniform(4, "X"))
        assert np.allclose(pulse("x", 4), expected, atol=1e-12)

    def test_ideal_equals_zero_error(self):
        for axis in ("x", "y"):
            assert np.array_equal(pulse(axis, 2), pulse(axis, 2, IDEAL_PULSES))
            assert np.allclose(pulse(axis, 2), pulse(axis, 2, DDErrorModel(epsilon=0.0)))
            assert np.allclose(pulse(axis, 2), pulse(axis, 2, DDErrorModel(delta=0.0)))

    def test_flip_closed_form(self):
        eps = 0.07
        angle = (1 + eps) * np.pi / 2
        expected = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * SIGMA_X
        assert np.allclose(pulse("x", 1, DDErrorModel(epsilon=eps)), expected, atol=1e-12)

    def test_flip_full_turn(self):
        # eps = 1 doubles the pi rotation into a 2*pi turn, i.e. -I per qubit
        assert np.allclose(pulse("x", 1, DDErrorModel(epsilon=1.0)), -np.eye(2), atol=1e-12)

    def test_detuning_axis_tilt(self):
        delta = 0.2
        r = single_qubit_pulse("x", DDErrorModel(delta=delta))
        # Tr(R sigma_a) = -2i sin(theta/2) n_a recovers the rotation axis
        axis = np.array(
            [-np.imag(np.trace(r @ s)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        )
        axis /= np.linalg.norm(axis)
        assert axis[2] == pytest.approx(delta / np.sqrt(1 + delta**2), abs=1e-12)
        assert axis[1] == pytest.approx(0.0, abs=1e-12)

    def test_detuning_unitary_any_delta(self):
        for delta in (-0.5, -0.1, 0.05, 0.5):
            assert is_unitary(pulse("y", 3, DDErrorModel(delta=delta)), atol=1e-12)

    def test_y_pulse_azimuth(self):
        assert np.allclose(single_qubit_pulse("y"), -1j * SIGMA_Y, atol=1e-12)

    def test_too_many_qubits_rejected(self):
        with pytest.raises(DimensionTooLargeError):
            pulse("x", 9)


class TestDDCycle:
    def test_zero_hamiltonian_ideal_is_identity_up_to_phase(self):
        u = dd_cycle(np.zeros((16, 16)), 0.1)
        assert product_fidelity([u], [np.eye(16)]) >= 1 - 1e-12

    def test_matches_group_conjugation_product(self, rng):
        # XY-4 toggling realizes conjugation by each group element once:
        # U = (Y F Y)(Z F Z)(X F X) F for even n, exactly up to global phase
        n = 4
        h = np.zeros((2**n, 2**n), dtype=complex)
        for i in range(n):
            for axis, sigma in (("X", SIGMA_X), ("Y", SIGMA_Y), ("Z", SIGMA_Z)):
                h += rng.normal() * pauli_to_matrix(PauliString.from_sites(n, {i + 1: axis}))
        dt = 0.13
        f = expm_hermitian(h, dt)
        conj = f.copy()
        for letter in ("X", "Z", "Y"):
            g = pauli_to_matrix(PauliString.uniform(n, letter))
            conj = g @ f @ g @ conj
        assert product_fidelity([dd_cycle(h, dt)], [conj]) >= 1 - 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_stack_equals_each_slice(self, rng, dim):
        # The probe runs one cycle on the stack of per-qubit factors; each
        # matrix of the result is the cycle of its own Hamiltonian.
        h = np.stack([random_hermitian(dim, rng) for _ in range(5)])
        stacked = dd_cycle(h, 0.13)
        each = np.stack([dd_cycle(m, 0.13) for m in h])
        assert stacked.shape == (5, dim, dim)
        assert np.abs(stacked - each).max() <= 1e-15

    def test_suppresses_bath_better_than_bare(self, rng):
        bath = BathModel.random(2, 0.2, seed=11)
        h = hamiltonian_matrix(bath)
        dt = 0.05
        eye = np.eye(4)
        f_dd = product_fidelity([dd_cycle(h, dt)], [eye])
        f_bare = product_fidelity([expm_hermitian(h, 4 * dt)], [eye])
        assert f_dd > f_bare


class TestInterleave:
    """The decoupled schedule propagator, as the sweep engine evaluates it,
    assembled on the full register from its factors."""

    def test_transparent_with_zero_bath(self):
        # pulses commute with every gate Hamiltonian, so they cancel in pairs
        for make, args in ((schedule_u1, (4, 1, 0.9)), (schedule_u3, (4, 1, 2, 0.7))):
            schedule = make(*args)
            bare = evolve_schedule(schedule)
            dressed = engine_propagator(schedule, BathModel.zero(4), InterleavingPlan(2))
            assert product_fidelity([bare], [dressed]) >= 1 - 1e-9

    def test_zero_area_single_cycle_matches_dd_cycle(self):
        schedule = schedule_u1(4, 1, 0.4)
        zeroed = type(schedule)(
            schedule.kind, schedule.n_physical, schedule.target, schedule.angle,
            tuple(type(seg)(seg.hamiltonian, 0.0) for seg in schedule.segments),
        )
        u = engine_propagator(zeroed, BathModel.zero(4), InterleavingPlan(1))
        cycle = dd_cycle(np.zeros((16, 16)), 1.0)
        # two segments produce two pulse-only cycles
        assert np.allclose(u, cycle @ cycle, atol=1e-12)

    def test_more_cycles_average_bath_better(self):
        schedule = schedule_u3(4, 1, 2, np.pi / 4)
        bath = BathModel.random(4, 0.1, seed=5)
        bare = evolve_schedule(schedule)
        fids = []
        for cycles in (1, 2):
            dressed = engine_propagator(schedule, bath, InterleavingPlan(cycles))
            fids.append(product_fidelity([bare], [dressed]))
        assert fids[1] > fids[0]

    def test_bath_qubit_register_dimensions(self):
        # u1 on logical qubit 1 acts on system qubits 1, 2, 4: the 8-dim
        # active factor, one slice per tau_x sign pattern of their bath
        # partners 5, 6, 8. System qubit 3 is the one 2-dim idle factor,
        # one slice per sign of bath qubit 7.
        schedule = schedule_u1(4, 1, 0.3)
        bath = BathModel.random(4, 0.05, seed=2, kind="qubit")
        plan = InterleavingPlan(1)
        factors = noise._factor_slices(schedule, bath, plan)
        slices, idle = factors
        assert factor_qubits(schedule, bath) == [(1, 2, 4, 5, 6, 8), (3, 7)]
        # The idle factor holds bath terms only: one slice for both segments.
        assert [slices.shape, idle.shape] == [(8, 2, 8, 8), (2, 1, 2, 2)]
        # Shared or stacked per segment, the idle slice gives the same bits,
        # on a grid of two error models.
        per_segment = np.repeat(idle, 2, axis=1)
        grid = [IDEAL_PULSES, DDErrorModel(epsilon=0.05)]
        _, shared = noise._grid_propagators(factors, plan, grid)
        stacked, _ = noise._grid_propagators((per_segment, idle), plan, grid)
        assert np.array_equal(shared[:, :, 0], stacked)
        u_active, u_idle = (u[1] for u in noise._grid_propagators(factors, plan, grid))
        assert [u_active.shape, u_idle.shape] == [(8, 8, 8), (2, 1, 2, 2)]
        u = engine_propagator(schedule, bath, plan, DDErrorModel(epsilon=0.05))
        assert u.shape == (256, 256)
        reduced = reduced_system_propagator(u, bath)
        assert reduced.shape == (16, 16)
        # The bath reduction factors too: <0|_bath U |0>_bath of the full
        # register is the product of the factors' means over their patterns.
        blocks = [u_active.mean(axis=0), *u_idle.mean(axis=0)]
        assert [b.shape for b in blocks] == [(8, 8), (2, 2)]
        assert np.abs(assemble([(1, 2, 4), (3,)], blocks, 4) - reduced).max() <= 1e-15

    def test_mismatched_bath_rejected(self):
        with pytest.raises(DimensionMismatchError):
            noise._factor_slices(schedule_u1(4, 1, 0.3), BathModel.zero(6), InterleavingPlan(1))

    def test_plan_validation(self):
        for cycles in (0, -3, MAX_CYCLES_PER_SEGMENT + 1, 10**20):
            with pytest.raises(ValueError, match="cycles per segment"):
                InterleavingPlan(cycles_per_segment=cycles)
        assert InterleavingPlan(MAX_CYCLES_PER_SEGMENT).cycles_per_segment == MAX_CYCLES_PER_SEGMENT

    def test_cycle_cap_stays_unitary(self):
        # At the cap the repeated squaring still returns a unitary, and the
        # zero-bath, ideal-pulse propagator is still the bare gate.
        schedule = schedule_u1(4, 1, 0.5)
        dressed = engine_propagator(
            schedule, BathModel.zero(4), InterleavingPlan(MAX_CYCLES_PER_SEGMENT))
        assert is_unitary(dressed, atol=1e-9)
        assert product_fidelity([evolve_schedule(schedule)], [dressed]) >= 1 - 1e-9


class TestLocalPulses:
    """The library applies a pulse on every qubit of a register factor as
    one product with the pulse's Kronecker power, for a stack of pulses at
    once; the dense pulse of `oracles.pulse` (repeated np.kron) of each
    stack entry times the matrix is the oracle."""

    ERRORS = (IDEAL_PULSES, DDErrorModel(epsilon=0.07), DDErrorModel(delta=-0.13),
              DDErrorModel(epsilon=-0.05, delta=0.2))

    def test_stack_matches_single_pulses(self):
        for axis in "xy":
            stack = noise._pulse_stack(axis, self.ERRORS)
            assert stack.shape == (len(self.ERRORS), 2, 2)
            for p, errors in zip(stack, self.ERRORS):
                assert np.array_equal(p, single_qubit_pulse(axis, errors))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_system_register(self, rng, n):
        dim = 2**n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for axis in "xy":
            local = noise._pulse_times(noise._pulse_stack(axis, self.ERRORS), m)
            assert local.shape == (len(self.ERRORS), dim, dim)
            for got, errors in zip(local, self.ERRORS):
                assert np.abs(got - pulse(axis, n, errors) @ m).max() <= 1e-14

    @pytest.mark.parametrize("n", range(1, 7))
    def test_half_cycle_pulses_every_qubit_of_the_factor(self, rng, n):
        # D = (P_y F)(P_x F) for a stack of slices and a stack of imperfect
        # pulses; the pulses act on all n qubits of F, as the dense pulse
        # does, up to the 64-dim factor of MAX_SIGN_QUBITS.
        f = np.stack([expm_hermitian(random_hermitian(2**n, rng), 0.21) for _ in range(3)])
        p_x = noise._pulse_stack("x", self.ERRORS)[:, None]
        p_y = noise._pulse_stack("y", self.ERRORS)[:, None]
        got = noise._half_cycle(f, p_x, p_y)
        assert got.shape == (len(self.ERRORS), 3, 2**n, 2**n)
        for half, errors in zip(got, self.ERRORS):
            dense = pulse("y", n, errors) @ f @ pulse("x", n, errors) @ f
            assert np.abs(half - dense).max() <= 1e-13

    def test_one_qubit_factor_is_the_plain_product(self, rng):
        # For one qubit the Kronecker power is the pulse itself, so the idle
        # per-qubit factors see the same 2x2 products as p @ m, bit for bit.
        m = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
        for axis in "xy":
            p = noise._pulse_stack(axis, self.ERRORS)[:, None, None]
            assert noise._pulse_times(p, m).tobytes() == (p @ m).tobytes()

    def test_stack_axes_broadcast(self, rng):
        # The sweep multiplies a (B, 1, 1) stack of pulses into a
        # (patterns, segments) stack of slices; with no pulsed qubit the
        # slices still come out on the grid axis.
        m = rng.normal(size=(3, 2, 8, 8)) + 1j * rng.normal(size=(3, 2, 8, 8))
        p = noise._pulse_stack("x", self.ERRORS)[:, None, None]
        local = noise._pulse_times(p, m)
        assert local.shape == (len(self.ERRORS), 3, 2, 8, 8)
        for got, errors in zip(local, self.ERRORS):
            assert np.abs(got - pulse("x", 3, errors) @ m).max() <= 1e-14
        assert noise._pulse_times(p, m[..., :1, :1]).shape == (len(self.ERRORS), 3, 2, 1, 1)


def _oracle_cases():
    baths = {
        "none": lambda n: BathModel.zero(n),
        "scalar": lambda n: BathModel.random(n, 0.1, seed=n, kind="scalar"),
        "qubit": lambda n: BathModel.random(n, 0.1, seed=n, kind="qubit"),
    }
    gates = {
        "u1": lambda n: schedule_u1(n, n - 2, 0.7),
        "u2": lambda n: schedule_u2(n, 1, 0.4),
        "u3": lambda n: schedule_u3(n, 1, n - 2, 0.6),
    }
    cases = [
        (n, b, g, c)
        for n in (4, 6) for b in ("none", "scalar") for g in gates for c in (1, 2, 4, 5)
    ]
    # 256-dimensional registers are slow under the oracle: one cycle count per gate.
    cases += [(4, "qubit", "u1", 5), (4, "qubit", "u2", 1), (4, "qubit", "u3", 2)]
    cases += [(8, "scalar", "u1", 2), (8, "scalar", "u2", 1), (8, "scalar", "u3", 4)]
    return [
        pytest.param(n, baths[b], gates[g], c, id=f"n{n}-{b}-{g}-c{c}")
        for n, b, g, c in cases
    ]


class TestInterleaveOracle:
    @pytest.mark.parametrize("n, make_bath, make_schedule, cycles", _oracle_cases())
    def test_matches_pulse_by_pulse_loop(self, n, make_bath, make_schedule, cycles):
        # The engine factors the register and regroups the products, so
        # agreement is to rounding. At flip error 0.1 the fidelity falls to
        # 0.15-0.5, and there the oracle's own rounding shows: at
        # n4-scalar-u2-c5 a 40-digit evaluation (tests/test_sweep_precision.py)
        # puts the oracle 1.59e-14 off and the engine 1.05e-15 off, and at
        # n4-scalar-u2-c4 9.7e-15 and 1.1e-15. Hence the fidelity bound of
        # 2e-14; the engine itself is held to 3e-15 of the exact value there.
        schedule, bath, plan = make_schedule(n), make_bath(n), InterleavingPlan(cycles)
        ref_ideal = interleave_oracle(schedule, bath, plan, IDEAL_PULSES)
        assert np.abs(engine_propagator(schedule, bath, plan) - ref_ideal).max() <= 1e-13
        rows = error_sweep(schedule, plan, bath, {"flip": [0.1], "detuning": [-0.1]})
        for (_, _, f_new), errors in zip(rows, (DDErrorModel(epsilon=0.1), DDErrorModel(delta=-0.1))):
            ref = interleave_oracle(schedule, bath, plan, errors)
            new = engine_propagator(schedule, bath, plan, errors)
            assert np.abs(new - ref).max() <= 1e-13
            f_ref = product_fidelity(
                [reduced_system_propagator(ref_ideal, bath)], [reduced_system_propagator(ref, bath)]
            )
            assert abs(f_new - f_ref) <= 2e-14


def _add_term(schedule, index, term: PauliSum):
    """The schedule with term added to the Hamiltonian of segment index."""
    segments = list(schedule.segments)
    seg = segments[index]
    segments[index] = ScheduleSegment(seg.hamiltonian + term, seg.area)
    return GateSchedule(
        schedule.kind, schedule.n_physical, schedule.target, schedule.angle, tuple(segments))


FACTORING_BATHS = [
    pytest.param(lambda: BathModel.random(4, 0.1, seed=8), id="scalar"),
    pytest.param(lambda: BathModel.random(4, 0.1, seed=8, kind="qubit"), id="qubit"),
]


class TestFactoring:
    """Edge cases of the split into active and idle factors."""

    @pytest.mark.parametrize("make_bath", FACTORING_BATHS)
    def test_identity_term_counted_once(self, make_bath):
        # 0.3 I...I only turns the global phase, which the trace fidelity
        # cannot see; counted in both factors it would turn it twice, so
        # the check is on the matrix.
        bath, plan = make_bath(), InterleavingPlan(2)
        eye = PauliSum.from_terms(4, [(0.3, PauliString.identity(4))])
        schedule = _add_term(schedule_u1(4, 1, 0.7), 0, eye)
        slices, idle = noise._factor_slices(schedule, bath, plan)
        assert [slices.shape[-1], idle.shape[1]] == [8, 1]
        assert factor_qubits(schedule, bath)[1:] == ([(3,)] if bath.kind == "scalar" else [(3, 7)])
        for errors in (IDEAL_PULSES, DDErrorModel(epsilon=0.1)):
            ref = interleave_oracle(schedule, bath, plan, errors)
            assert np.abs(engine_propagator(schedule, bath, plan, errors) - ref).max() <= 1e-13

    @pytest.mark.parametrize("make_bath", FACTORING_BATHS)
    def test_schedule_on_every_qubit_is_one_factor(self, make_bath):
        # u1 on logical qubit 1 acts on qubits 1, 2, 4; a Z_3 Z_4 term puts
        # qubit 3 in too, so the register does not split.
        bath, plan = make_bath(), InterleavingPlan(3)
        zz = PauliSum.from_terms(4, [(0.2, PauliString.from_sites(4, {3: "Z", 4: "Z"}))])
        schedule = _add_term(schedule_u1(4, 1, 0.7), 1, zz)
        slices, idle = noise._factor_slices(schedule, bath, plan)
        assert [slices.shape[-1], idle.shape[1]] == [16, 0]
        values = [-0.1, 0.0, 0.05]
        rows = error_sweep(schedule, plan, bath, {"flip": values, "detuning": values})
        reference = reduced_system_propagator(interleave(schedule, bath, plan), bath)
        for kind, value, fid in rows:
            errors = DDErrorModel(epsilon=value) if kind == "flip" else DDErrorModel(delta=value)
            noisy = reduced_system_propagator(interleave(schedule, bath, plan, errors), bath)
            assert abs(fid - product_fidelity([reference], [noisy])) <= 1e-14


def _pair_schedule(n: int, text: str) -> GateSchedule:
    """One segment of area 0.9 under the n-qubit Pauli sum text."""
    h = PauliSum.from_text(n, text) if text else PauliSum.zero(n)
    return GateSchedule("u1", n, (1,), 0.0, (ScheduleSegment(h, 0.9),))


class TestSignPatternReach:
    """A bath-qubit model runs on system qubits alone, so the active factor
    may hold up to MAX_SIGN_QUBITS of them, not 4 of a doubled register."""

    def test_three_disjoint_pairs_at_n6(self):
        # X_1X_6 + Z_2Z_5 + Z_3Z_4 acts on all 6 system qubits: 64 sign
        # patterns of a 64-dim factor. Its three terms act on disjoint
        # pairs, so its fidelity is the product of the pairs' own; each
        # pair alone also carries the other 4 qubits idle, which the empty
        # schedule's fidelity divides out.
        bath, plan = BathModel.random(6, 0.1, seed=6, kind="qubit"), InterleavingPlan(1)
        grids = {"flip": [0.0, 0.05], "detuning": [-0.1]}
        whole = _pair_schedule(6, "1.0*+XIIIIX + 1.0*+IZIIZI + 1.0*+IIZZII")
        slices, idle = noise._factor_slices(whole, bath, plan)
        assert [slices.shape, idle.shape] == [(64, 1, 64, 64), (2, 0, 2, 2)]
        rows = error_sweep(whole, plan, bath, grids)
        assert rows[0] == ("flip", 0.0, 1.0)

        def fidelities(text):
            rows = error_sweep(_pair_schedule(6, text), plan, bath, grids)
            return np.array([f for _, _, f in rows])

        pairs = [fidelities(t) for t in ("1.0*+XIIIIX", "1.0*+IZIIZI", "1.0*+IIZZII")]
        product = pairs[0] * pairs[1] * pairs[2] / fidelities("") ** 2
        assert np.abs(np.array([f for _, _, f in rows]) - product).max() <= 3e-15
        assert min(f for _, _, f in rows) < 0.99

    def test_seven_active_qubits_refused_before_any_slice(self, monkeypatch):
        def no_slices(h, scale):
            raise AssertionError("slices built")

        schedule = _pair_schedule(
            8, "1.0*+XXIIIIII + 1.0*+IIZZIIII + 1.0*+IIIIXXII + 0.5*+IIIIIIZI")
        bath = BathModel.random(8, 0.1, seed=1, kind="qubit")
        monkeypatch.setattr(noise, "expm_hermitian", no_slices)
        with pytest.raises(DimensionTooLargeError, match="7 active system qubits"):
            error_sweep(schedule, InterleavingPlan(1), bath, {"flip": [0.0]})
        monkeypatch.undo()
        # A scalar bath keeps 2^7 entries per slice and runs.
        rows = error_sweep(schedule, InterleavingPlan(1), BathModel.random(8, 0.1, seed=1),
                           {"flip": [0.0, 0.05]})
        assert [f for _, _, f in rows][0] == 1.0


class TestGateFidelity:
    def test_zero_errors_unity(self):
        plan = InterleavingPlan()
        bath = BathModel.zero(4)
        for schedule in (
            schedule_u1(4, 1, 0.7),
            schedule_u3(4, 1, 2, np.pi / 4),
        ):
            rows = error_sweep(schedule, plan, bath, {"flip": [0.0], "detuning": [0.0]})
            assert [kind for kind, _, _ in rows] == ["flip", "detuning"]
            assert all(f >= 1 - 1e-9 for _, _, f in rows)

    def test_flip_degrades_more_than_detuning(self):
        plan = InterleavingPlan()
        bath = BathModel.zero(4)
        schedule = schedule_u3(4, 1, 2, np.pi / 4)
        values = [0.05, 0.1]
        rows = error_sweep(schedule, plan, bath, {"flip": values, "detuning": values})
        flip, detuning = rows[:2], rows[2:]
        for (_, _, f_flip), (_, _, f_det) in zip(flip, detuning):
            assert f_det >= f_flip

    def test_sweep_rows_deterministic(self):
        plan = InterleavingPlan(2)
        bath = BathModel.zero(4)
        schedule = schedule_u3(4, 1, 2, np.pi / 4)
        values = [-0.05, 0.0, 0.05]
        a = error_sweep(schedule, plan, bath, {"flip": values})
        b = error_sweep(schedule, plan, bath, {"flip": values})
        assert a == b

    @pytest.mark.parametrize("kind", ["scalar", "qubit"])
    def test_rows_match_interleave(self, kind):
        # One sweep shares its slices across kinds and values and reduces
        # the bath and takes the overlap factor by factor; each row must
        # still be the full-register fidelity of two independent propagators.
        schedule, bath = schedule_u2(4, 2, 0.6), BathModel.random(4, 0.1, seed=3, kind=kind)
        plan = InterleavingPlan(2)
        rows = error_sweep(schedule, plan, bath, {"detuning": [-0.05, 0.0], "flip": [0.07]})
        assert [(k, v) for k, v, _ in rows] == [("detuning", -0.05), ("detuning", 0.0),
                                                ("flip", 0.07)]
        reference = reduced_system_propagator(engine_propagator(schedule, bath, plan), bath)
        for kind_, value, fid in rows:
            errors = DDErrorModel(epsilon=value) if kind_ == "flip" else DDErrorModel(delta=value)
            noisy = reduced_system_propagator(
                engine_propagator(schedule, bath, plan, errors), bath)
            assert abs(fid - product_fidelity([reference], [noisy])) <= 1e-15

    def test_slices_built_once_per_sweep(self, monkeypatch):
        calls = []

        def counting_expm(h, scale):
            calls.append((np.shape(h), scale))
            return expm_hermitian(h, scale)

        monkeypatch.setattr(noise, "expm_hermitian", counting_expm)
        # u2 on logical qubit 1 acts on qubits 1, 2, 4: one stack of slices,
        # (patterns, segments, 8, 8), on that factor, and one stack, for every
        # segment, on the idle per-qubit factors (here qubit 3), whatever the
        # grid size.
        schedule = schedule_u2(4, 1, 0.3)
        for kind, patterns, idle in (("scalar", 1, 1), ("qubit", 8, 2)):
            bath = BathModel.random(4, 0.1, seed=1, kind=kind)
            for size in (1, 3, 7):
                calls.clear()
                grid = list(np.linspace(-0.1, 0.1, size))
                error_sweep(schedule, InterleavingPlan(2), bath, {"flip": grid, "detuning": grid})
                assert calls == [((patterns, len(schedule.segments), 8, 8), 1.0 / 8),
                                 ((idle, 1, 2, 2), 1.0 / 8)]

    def test_unknown_kind_rejected(self, monkeypatch):
        def no_slices(*args):
            raise AssertionError("slices built")

        monkeypatch.setattr(noise, "_factor_slices", no_slices)
        with pytest.raises(ValueError, match="phase"):
            error_sweep(
                schedule_u1(4, 1, 0.1), InterleavingPlan(1),
                BathModel.zero(4), {"flip": [0.0], "phase": [0.0]},
            )


class TestBathModels:
    def test_scalar_matrix_matches_direct_sum(self, rng):
        bath = BathModel.random(3, 0.3, seed=9)
        expected = np.zeros((8, 8), dtype=complex)
        sigmas = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
        for i in range(3):
            for a, axis in enumerate("XYZ"):
                term = [np.eye(2)] * 3
                term[i] = sigmas[axis]
                expected += bath.couplings[i, a] * kron_all(term)
        assert np.allclose(hamiltonian_matrix(bath), expected, atol=1e-12)

    @pytest.mark.parametrize("n, kind", [(2, "scalar"), (4, "scalar"), (8, "scalar"),
                                         (2, "qubit"), (4, "qubit")])
    def test_factor_propagators_assemble_to_dense(self, n, kind):
        # The coupling is a sum of terms on disjoint qubits (system qubit i
        # and its bath qubit n + i), so its propagator is the tensor product
        # of the per-qubit factors' propagators. With a bath qubit, factor i
        # evolves under h_i on tau_x = +1 and under -h_i on tau_x = -1.
        bath = BathModel.random(n, 0.3, seed=n, kind=kind)
        factors = bath.factor_hamiltonians()
        assert factors.shape == (n, 2, 2)
        u = expm_hermitian(noise._qubit_patterns(factors, kind), 1.7)
        if kind == "scalar":
            assert u.shape == (1, n, 2, 2)
            qubits, matrices = [(i,) for i in range(1, n + 1)], list(u[0])
        else:
            assert u.shape == (2, n, 2, 2)
            qubits = [(i, n + i) for i in range(1, n + 1)]
            matrices = [sign_sum(u[:, i]) for i in range(n)]
        assembled = assemble(qubits, matrices, bath.total_qubits)
        dense = expm_hermitian(hamiltonian_matrix(bath), 1.7)
        assert np.abs(assembled - dense).max() <= 1e-13

    def test_symbolic_average_vanishes_both_kinds(self):
        for kind in ("scalar", "qubit"):
            bath = BathModel.random(4, 0.1, seed=3, kind=kind)
            assert symbolic_bath_average(bath).n_terms == 0

    def test_zero_bath(self):
        bath = BathModel.zero(4)
        assert bath.kind == "scalar" and bath.total_qubits == 4
        assert np.array_equal(bath.couplings, np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_rejected(self, bad):
        couplings = np.zeros((4, 3))
        couplings[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            BathModel("scalar", 4, couplings)

    @pytest.mark.parametrize("width", [np.nan, np.inf, -np.inf])
    def test_non_finite_width_rejected(self, width):
        with pytest.raises(ValueError, match="width"):
            BathModel.random(4, width, seed=1)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            BathModel.random(4, -0.1, seed=1)
        assert not BathModel.random(4, 0.0, seed=1).couplings.any()

    @pytest.mark.parametrize("kind", ["Qubit", "none", ""])
    def test_unknown_kind_rejected(self, kind):
        # kind="Qubit" reported 8 total qubits and ran scalar per-qubit factors.
        with pytest.raises(ValueError, match="bath kind"):
            BathModel.random(4, 0.1, 0, kind=kind)
        with pytest.raises(ValueError, match="bath kind"):
            BathModel(kind, 4, np.zeros((4, 3)))

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 2), (4,), (4, 3, 1)])
    def test_couplings_shape_must_be_n_system_by_3(self, shape):
        # A (3, 3) array with n_system = 4 built 3 per-qubit factors.
        with pytest.raises(ValueError, match=r"shape \(4, 3\)"):
            BathModel("scalar", 4, np.zeros(shape))


class TestDDErrorModel:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_flip_error_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DDErrorModel(epsilon=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_detuning_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DDErrorModel(delta=bad)

    @pytest.mark.parametrize("epsilon, delta", [
        (1e308, 0.0), (-1e308, 0.0), (0.0, 1e200), (0.0, -1.4e154), (1e300, 1e10),
    ])
    def test_overflowing_rotation_angle_rejected(self, epsilon, delta):
        # Finite errors whose angle (1 + eps) * pi * sqrt(1 + delta**2) is
        # not; delta**2 on a float would raise OverflowError instead.
        with pytest.raises(ValueError, match="finite rotation angle"):
            DDErrorModel(epsilon, delta)

    def test_sweep_refuses_overflowing_angle_before_any_slice(self, monkeypatch):
        # A sweep at flip error 1e308 warned and wrote fidelity nan.
        def no_slices(*args):
            raise AssertionError("slices built")

        monkeypatch.setattr(noise, "_factor_slices", no_slices)
        for grids in ({"flip": [0.0, 1e308]}, {"detuning": [1e200]}):
            with pytest.raises(ValueError, match="finite rotation angle"):
                error_sweep(schedule_u1(4, 1, 0.1), InterleavingPlan(1), BathModel.zero(4), grids)

    def test_largest_finite_angle_gives_a_finite_pulse(self):
        for errors in (DDErrorModel(delta=1.3e154), DDErrorModel(epsilon=5e307)):
            assert np.isfinite(single_qubit_pulse("x", errors)).all()


class TestDecouplingProbe:
    def test_zero_bath_exact(self):
        points = decoupling_order_probe(BathModel.zero(4), [0.1, 0.05], 2.0)
        assert all(err <= 1e-10 for _, err in points)

    def test_order_near_two_and_beats_bare(self):
        bath = BathModel.random(4, 0.1, seed=7)
        points = decoupling_order_probe(bath, [0.1, 0.05, 0.025], 2.0)
        order = fit_error_order(points)
        assert 1.5 <= order <= 2.5
        bare = bare_evolution_error(bath, 2.0)
        assert all(err < bare for _, err in points)

    def test_halving_dt_divides_error_by_about_four(self):
        bath = BathModel.random(4, 0.1, seed=12)
        points = dict(decoupling_order_probe(bath, [0.1, 0.05], 2.0))
        ratio = points[0.1] / points[0.05]
        assert 2.8 <= ratio <= 5.5

    @pytest.mark.parametrize("kind", ["scalar", "qubit"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_oracle(self, kind, seed):
        # Each rung is 1 - F near 1e-7, evaluated from products of per-qubit
        # overlaps on one side and one 2**N (or 2**2N) trace on the other;
        # both sit within ~1e-8 relative of 40-digit values
        # (tests/test_sweep_precision.py), so they are compared at that
        # relative level and not printed digit by digit. The qubit bath's
        # bare error is 0 up to rounding on both sides.
        bath = BathModel.random(4, 0.1, seed=seed, kind=kind)
        ladder = [0.1, 0.05, 0.025]
        got = decoupling_order_probe(bath, ladder, 2.0)
        want = dense_decoupling_order_probe(bath, ladder, 2.0)
        assert [dt for dt, _ in got] == [dt for dt, _ in want]
        for (_, err), (_, ref) in zip(got, want):
            assert err == pytest.approx(ref, rel=3e-8, abs=1e-15)
        assert bare_evolution_error(bath, 2.0) == pytest.approx(
            dense_bare_evolution_error(bath, 2.0), rel=1e-13, abs=1e-15)

    @settings(max_examples=30, deadline=5000, derandomize=True)
    @given(st.data())
    def test_matches_dense_oracle_on_drawn_baths(self, data):
        # A scalar bath at N = 4, 6 or 8, or a bath-qubit model at N = 4
        # (2**8 dimensions on the full register), of any width and seed;
        # a ladder of 2-3 distinct whole cycle counts over the total time.
        kind = data.draw(st.sampled_from(["scalar", "qubit"]))
        n = 4 if kind == "qubit" else data.draw(st.sampled_from([4, 6, 8]))
        bath = BathModel.random(n, data.draw(st.floats(0.0, 0.5)),
                                data.draw(st.integers(0, 10**6)), kind=kind)
        total_time = data.draw(st.sampled_from([1.0, 2.0]))
        cycles = data.draw(st.lists(st.integers(1, 40), min_size=2, max_size=3, unique=True))
        ladder = [total_time / (4 * c) for c in cycles]
        got = decoupling_order_probe(bath, ladder, total_time)
        want = dense_decoupling_order_probe(bath, ladder, total_time)
        assert [dt for dt, _ in got] == [dt for dt, _ in want]
        for (_, err), (_, ref) in zip(got, want):
            assert err == pytest.approx(ref, rel=3e-8, abs=1e-15)
        assert bare_evolution_error(bath, total_time) == pytest.approx(
            dense_bare_evolution_error(bath, total_time), rel=1e-13, abs=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_stacked_rungs_equal_per_rung_oracle(self, data):
        # All rungs reduced in one call against each rung reduced alone,
        # factor by factor: equal, not close, for either bath kind at
        # N = 4, 6 or 8 and a ladder of 1-5 distinct whole cycle counts.
        kind = data.draw(st.sampled_from(["scalar", "qubit"]))
        n = data.draw(st.sampled_from([4, 6, 8]))
        bath = BathModel.random(n, data.draw(st.floats(0.0, 0.5)),
                                data.draw(st.integers(0, 10**6)), kind=kind)
        total_time = data.draw(st.sampled_from([1.0, 2.0]))
        cycles = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
        ladder = [total_time / (4 * c) for c in cycles]
        assert (decoupling_order_probe(bath, ladder, total_time)
                == per_rung_decoupling_order_probe(bath, ladder, total_time))
        assert (bare_evolution_error(bath, total_time)
                == per_factor_bare_evolution_error(bath, total_time))

    def test_one_cycle_per_rung_on_the_factor_stack(self, monkeypatch):
        shapes = []

        def recording_cycle(h, dt, *args, **kwargs):
            shapes.append(np.shape(h))
            return dd_cycle(h, dt, *args, **kwargs)

        monkeypatch.setattr(noise, "dd_cycle", recording_cycle)
        # One 2x2 factor per system qubit, stacked over the tau_x sign of
        # its bath qubit if it has one.
        for kind, patterns in (("scalar", 1), ("qubit", 2)):
            shapes.clear()
            decoupling_order_probe(BathModel.random(6, 0.1, seed=1, kind=kind),
                                   [0.1, 0.05, 0.025], 2.0)
            assert shapes == [(patterns, 6, 2, 2)] * 3

    @pytest.mark.parametrize("n", [6, 8])
    def test_qubit_bath_past_n4(self, n):
        # 2**12 and 2**16 dimensions on the full register; 4 per factor here.
        bath = BathModel.random(n, 0.1, seed=n, kind="qubit")
        points = decoupling_order_probe(bath, [0.1, 0.05, 0.025], 2.0)
        assert len(points) == 3
        assert 1.5 <= fit_error_order(points) <= 2.5

    def test_bad_partition(self):
        with pytest.raises(BadPartitionError):
            decoupling_order_probe(BathModel.zero(4), [0.3], 2.0)

    def test_every_rung_checked_before_the_first_runs(self, monkeypatch):
        # A bad last rung, or two rungs of one whole cycle count (a ladder
        # of distinct counts holds at most MAX_CYCLES_PER_SEGMENT rungs).
        ran = []
        monkeypatch.setattr(noise, "dd_cycle", lambda *args: ran.append(args))
        for ladder, match in (([0.1, 0.05, 0.3], "does not divide"),
                              ([0.1, 0.05, 0.1], "gives 5 cycles .* as dt=0.1 does"),
                              ([0.1, 0.1 * (1 + 1e-12)], "as dt=0.1 does")):
            with pytest.raises(BadPartitionError, match=match):
                decoupling_order_probe(BathModel.zero(4), ladder, 2.0)
        assert ran == []

    @pytest.mark.parametrize("total_time", [-2.0, 0.0, -0.4])
    def test_non_positive_cycle_count_rejected(self, total_time):
        with pytest.raises(BadPartitionError, match="cycles"):
            decoupling_order_probe(BathModel.random(4, 0.1, seed=7), [0.1, 0.05], total_time)

    def test_cycle_count_capped(self):
        dt = 0.1
        cap = 4 * dt * MAX_CYCLES_PER_SEGMENT
        with pytest.raises(BadPartitionError, match="cycles"):
            decoupling_order_probe(BathModel.zero(4), [dt], 2 * cap)
        [(_, err)] = decoupling_order_probe(BathModel.zero(4), [dt], cap)
        assert err <= 1e-10
