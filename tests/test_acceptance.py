"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from dfsgates.dfs import (
    build_logical_basis,
    dfs_decomposition,
)
from dfsgates.gates import (
    analytic_target,
    barred_transform,
    leakage_of,
    logical_gate,
    schedule_u1,
    schedule_u2,
    schedule_u3,
    verify_holonomy,
)
from dfsgates.linalg import expm_hermitian, kron_all, product_fidelity
from dfsgates.noise import (
    BathModel,
    DDErrorModel,
    InterleavingPlan,
    bare_evolution_error,
    decoupling_order_probe,
    error_sweep,
    fit_error_order,
)
from dfsgates.pauli import (
    PauliString,
    PauliSum,
    build_decoupling_group,
    group_average,
)
from conftest import random_hermitian
from oracles import (
    evolve_schedule,
    is_unitary,
    pauli_to_matrix,
    project_to_logical,
    subspace_projector,
    u3_block_decomposition,
)

ANGLES = (0.0, np.pi / 7, np.pi / 4, 1.0, np.pi / 2)
RSQRT2 = 1 / np.sqrt(2)


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} ({name}): {status}  [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def _all_schedules(n: int):
    for j in range(1, n - 1):
        for theta in ANGLES:
            yield schedule_u1(n, j, theta)
            yield schedule_u2(n, j, theta)
    for k in range(1, n - 1):
        for l in range(k + 1, n - 1):
            for phi in ANGLES:
                yield schedule_u3(n, k, l, phi)


def test_criterion_1_symbolic_decoupling():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for n in (4, 6):
        group = build_decoupling_group(n)
        coupling = PauliSum.from_terms(
            n,
            [
                (rng.normal(), PauliString.from_sites(n, {i + 1: axis}))
                for i in range(n)
                for axis in "XYZ"
            ],
        )
        ok &= group_average(coupling, group).n_terms == 0
    # bath-qubit realization of the same coupling, system side unchanged
    bath = BathModel.random(4, 0.1, seed=5, kind="qubit")
    lifted_group = build_decoupling_group(4).embedded(8)
    ok &= group_average(bath.hamiltonian_sum(), lifted_group).n_terms == 0
    _report(1, "symbolic decoupling", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_dfs_structure():
    start = time.perf_counter()
    ok = True
    for n in (4, 6):
        sectors = dfs_decomposition(build_decoupling_group(n))
        ok &= len(sectors) == 4
        ok &= all(dim == 2 ** (n - 2) for _, dim in sectors)
    basis = build_logical_basis(4)
    expected = {
        "00": {0b0000: RSQRT2, 0b1111: RSQRT2},
        "11": {0b0110: RSQRT2, 0b1001: RSQRT2},
        "01": {0b1010: RSQRT2, 0b0101: RSQRT2},
        "10": {0b1100: RSQRT2, 0b0011: RSQRT2},
    }
    for label, entries in expected.items():
        vec = np.zeros(16, dtype=complex)
        for idx, amp in entries.items():
            vec[idx] = amp
        ok &= bool(np.abs(basis.states[int(label, 2)] - vec).max() <= 1e-12)
    _report(2, "DFS structure", ok, time.perf_counter() - start, 1.0)


def test_criterion_3_gate_reproduction():
    start = time.perf_counter()
    ok = True
    for n in (4, 6):
        basis = build_logical_basis(n)
        for schedule in _all_schedules(n):
            block = project_to_logical(evolve_schedule(schedule), basis)
            ok &= leakage_of(block) <= 1e-10
            ok &= product_fidelity([block], [analytic_target(schedule)]) >= 1 - 1e-9
    _report(3, "gate reproduction", ok, time.perf_counter() - start, 30.0)


def test_criterion_4_holonomy_certification():
    start = time.perf_counter()
    ok = True
    for n in (4, 6):
        for schedule in _all_schedules(n):
            report = verify_holonomy(schedule)
            ok &= report.cyclic_defect <= 1e-9
            ok &= report.max_parallel_transport_violation <= 1e-9
            if schedule.kind == "u3":
                ok &= report.subspace_swap <= 1e-9
    _report(4, "holonomy certification", ok, time.perf_counter() - start, 60.0)


def test_criterion_5_u3_block_identity():
    start = time.perf_counter()
    v = barred_transform(2, (1, 2))
    ok = True
    for phi in np.linspace(0.0, np.pi, 10):
        simulated = v.conj().T @ logical_gate(schedule_u3(4, 1, 2, phi)) @ v
        _, _, assembled = u3_block_decomposition(phi)
        ok &= bool(np.abs(simulated - assembled).max() <= 1e-10)
    _report(5, "u3 block identity", ok, time.perf_counter() - start, 1.0)


def test_criterion_6_pulse_error_behavior():
    start = time.perf_counter()
    schedule = schedule_u3(4, 1, 2, np.pi / 4)
    plan = InterleavingPlan()  # default packing
    bath = BathModel.zero(4)
    grid = [round(-0.1 + 0.005 * i, 12) for i in range(41)]
    curves = {"flip": {}, "detuning": {}}
    for kind, v, f in error_sweep(schedule, plan, bath, {"flip": grid, "detuning": grid}):
        curves[kind][v] = f
    flip, detuning = curves["flip"], curves["detuning"]

    ok = flip[0.0] >= 1 - 1e-9 and detuning[0.0] >= 1 - 1e-9
    ok &= min(f for v, f in flip.items() if 0.02 < abs(v) <= 0.1) < 0.9
    ok &= np.mean(list(detuning.values())) >= np.mean(list(flip.values()))
    for e in (0.05, 0.1):
        ok &= detuning[e] >= flip[e] and detuning[-e] >= flip[-e]
    # continuity on the sweep grid: no jumps above 0.2 between neighbours
    for curve in (flip, detuning):
        values = [curve[v] for v in grid]
        ok &= max(abs(a - b) for a, b in zip(values, values[1:])) <= 0.2
    _report(6, "pulse-error behavior", ok, time.perf_counter() - start, 60.0)


def test_criterion_7_decoupling_order():
    start = time.perf_counter()
    ladder = (0.1, 0.05, 0.025)
    total_time = 2.0
    ok = True
    for seed in range(5):
        bath = BathModel.random(4, 0.1, seed=seed)
        points = decoupling_order_probe(bath, ladder, total_time)
        order = fit_error_order(points)
        ok &= 1.5 <= order <= 2.5
        bare = bare_evolution_error(bath, total_time)
        ok &= all(err < bare for _, err in points)
    _report(7, "decoupling order", ok, time.perf_counter() - start, 30.0)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True

    # Pauli product homomorphism, 10**3 randomized cases
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = PauliString(n, tuple(rng.integers(0, 4, n)), int(rng.integers(0, 4)))
        b = PauliString(n, tuple(rng.integers(0, 4, n)), int(rng.integers(0, 4)))
        ok &= bool(
            np.abs(
                pauli_to_matrix(a * b) - pauli_to_matrix(a) @ pauli_to_matrix(b)
            ).max()
            <= 1e-12
        )

    # expm semigroup and unitarity, 10**2 cases
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        h = random_hermitian(dim, rng)
        s1, s2 = rng.uniform(-1.5, 1.5, size=2)
        u1, u2 = expm_hermitian(h, s1), expm_hermitian(h, s2)
        ok &= bool(np.abs(u1 @ u2 - expm_hermitian(h, s1 + s2)).max() <= 1e-10)
        ok &= is_unitary(u1, atol=1e-10)

    # projector idempotence on the logical bases
    for n in (4, 6):
        p = subspace_projector(build_logical_basis(n).states)
        ok &= bool(np.abs(p @ p - p).max() <= 1e-12)

    # u1/u2 on one target commute up to a global phase at half-turn angles
    for theta in (0.0, np.pi / 2, np.pi):
        for theta_p in (0.0, np.pi / 2, np.pi):
            a = logical_gate(schedule_u1(4, 1, theta))
            b = logical_gate(schedule_u2(4, 1, theta_p))
            ok &= product_fidelity([a @ b], [b @ a]) >= 1 - 1e-10

    # the two single-qubit families generate an X rotation
    t = 1.0
    w = (
        logical_gate(schedule_u1(4, 1, np.pi / 4))
        @ logical_gate(schedule_u2(4, 1, t))
        @ logical_gate(schedule_u1(4, 1, -np.pi / 4))
    )
    x1 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    ok &= (
        product_fidelity([w], [np.cos(t) * np.eye(4) - 1j * np.sin(t) * x1])
        >= 1 - 1e-8
    )

    # the entangling gate has operator Schmidt rank 2 at phi = pi/4
    block = logical_gate(schedule_u3(4, 1, 2, np.pi / 4))
    reshaped = block.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    ok &= int(np.sum(np.linalg.svd(reshaped, compute_uv=False) > 1e-10)) == 2

    _report(8, "property suites", ok, time.perf_counter() - start, 30.0)


def _on_sites(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    """The 2x2 operators ops[q] on the 1-indexed qubits q of n, identity elsewhere."""
    return kron_all([ops.get(q, np.eye(2)) for q in range(1, n + 1)])


def test_criterion_9_universal_set():
    # The abstract's claim that the two single-qubit holonomies and the
    # entangling one compose a universal set: Hadamard and CNOT as products
    # of certified holonomic gates, rightmost first, up to a global phase.
    start = time.perf_counter()
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    p0, p1, x = np.diag([1, 0]), np.diag([0, 1]), np.array([[0, 1], [1, 0]])
    q = np.pi / 4
    ok = True
    for n in (4, 6, 8):
        m = n - 2
        pairs = {(1, 2), (1, m), (m - 1, m)}
        circuits = []
        for j in sorted({1, m}):
            # H_j = u1(j, pi/4) u2(j, pi/2)
            circuits.append(([schedule_u1(n, j, q), schedule_u2(n, j, np.pi / 2)],
                             _on_sites(m, {j: hadamard})))
        for k, l in sorted(pairs):
            # CNOT with control l and target k:
            # u2(k, -pi/4) u2(l, pi/4) u1(k, pi/4) u3(k, l, pi/4) u2(k, pi/4)
            factors = [schedule_u2(n, k, -q), schedule_u2(n, l, q), schedule_u1(n, k, q),
                       schedule_u3(n, k, l, q), schedule_u2(n, k, q)]
            cnot = _on_sites(m, {l: p0}) + _on_sites(m, {l: p1, k: x})
            circuits.append((factors, cnot))
        for factors, exact in circuits:
            product = np.eye(2**m)
            for schedule in factors:
                report = verify_holonomy(schedule)
                ok &= report.leakage <= 1e-10
                ok &= report.cyclic_defect <= 1e-9
                ok &= report.max_parallel_transport_violation <= 1e-9
                ok &= report.subspace_swap is None or report.subspace_swap <= 1e-9
                product = product @ logical_gate(schedule)
            ok &= product_fidelity([product], [exact]) >= 1 - 1e-9
    _report(9, "universal set", ok, time.perf_counter() - start, 10.0)
