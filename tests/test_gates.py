from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import dfsgates.gates as gates
from dfsgates.cli import main
from dfsgates.dfs import build_logical_basis
from dfsgates.errors import (
    BadIndexPairError,
    DfsGatesError,
    DimensionTooLargeError,
    LeakageError,
    LengthMismatchError,
    LogicalIndexError,
    OddQubitCountError,
    ScheduleError,
    TooFewQubitsError,
)
from dfsgates.gates import (
    GateSchedule,
    ScheduleSegment,
    _transported_frame,
    analytic_target,
    barred_transform,
    heisenberg_reduction,
    leakage_of,
    logical_gate,
    schedule_from_json,
    schedule_to_json,
    schedule_u1,
    schedule_u2,
    schedule_u3,
    verify_holonomy,
)
from dfsgates.linalg import product_fidelity
from dfsgates.pauli import (
    PauliString,
    PauliSum,
    _masks,
    build_decoupling_group,
    commutes,
)
from oracles import (
    block_certifier,
    evolve_schedule,
    frame_groups,
    holonomy_oracle,
    invariance_residual,
    is_unitary,
    pauli_to_matrix,
    project_to_logical,
    sums_isclose,
    u3_block_decomposition,
)

ANGLES = (0.0, np.pi / 7, np.pi / 4, 1.0, np.pi / 2)


def rotation_y(theta: float) -> np.ndarray:
    return np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )


class TestScheduleConstruction:
    def test_u1_segments(self):
        s = schedule_u1(4, 1, 0.3)
        assert len(s.segments) == 2
        assert sums_isclose(
            s.segments[0].hamiltonian,
            PauliSum.from_terms(4, [(1.0, PauliString.from_label("+IZIZ"))])
        )
        assert s.segments[0].area == pytest.approx(np.pi / 2)
        assert sums_isclose(
            s.segments[1].hamiltonian,
            PauliSum.from_terms(
                4,
                [
                    (np.cos(0.3), PauliString.from_label("+IZIZ")),
                    (np.sin(0.3), PauliString.from_label("+XXII")),
                ],
            )
        )

    def test_u1_theta_zero_single_term(self):
        s = schedule_u1(4, 1, 0.0)
        assert s.segments[1].hamiltonian.n_terms == 1

    def test_u2_segments(self):
        s = schedule_u2(4, 1, 0.3)
        assert len(s.segments) == 4
        assert sums_isclose(
            s.segments[0].hamiltonian,
            PauliSum.from_terms(4, [(1.0, PauliString.from_label("+XXII"))])
        )
        assert s.segments[0].area == pytest.approx(-np.pi / 4)
        assert s.segments[3].area == pytest.approx(np.pi / 4)

    def test_u3_segments(self):
        s = schedule_u3(4, 1, 2, 0.6)
        assert sums_isclose(
            s.segments[0].hamiltonian,
            PauliSum.from_terms(
                4,
                [
                    (np.cos(0.6), PauliString.from_label("+XXII")),
                    (-np.sin(0.6), PauliString.from_label("+IZZI")),
                ],
            )
        )
        assert sums_isclose(
            s.segments[1].hamiltonian,
            PauliSum.from_terms(4, [(1.0, PauliString.from_label("+XXII"))])
        )

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_builders_equal_sums_of_pair_terms(self, n):
        # Each segment, term for term, is the sum of its two-site strings
        # scaled by cos and sin of the angle, as PauliSum arithmetic forms it.
        def pair(letter, a, b):
            string = PauliString.from_sites(n, {a: letter, b: letter})
            return PauliSum.from_terms(n, [(1.0, string)])

        for angle in (*ANGLES, -0.4, np.pi):
            c, s = np.cos(angle), np.sin(angle)
            for j in range(1, n - 1):
                zz, xx = pair("Z", j + 1, n), pair("X", 1, j + 1)
                u1 = [(zz, np.pi / 2), (c * zz + s * xx, np.pi / 2)]
                u2 = [(xx, -np.pi / 4), *u1, (xx, np.pi / 4)]
                for build, want in ((schedule_u1, u1), (schedule_u2, u2)):
                    got = [(seg.hamiltonian, seg.area) for seg in build(n, j, angle).segments]
                    assert got == want
            for k in range(1, n - 1):
                for l in range(k + 1, n - 1):
                    xx, zz = pair("X", 1, k + 1), pair("Z", k + 1, l + 1)
                    segments = schedule_u3(n, k, l, angle).segments
                    got = [(seg.hamiltonian, seg.area) for seg in segments]
                    assert got == [(c * xx + (-s) * zz, np.pi / 2), (xx, np.pi / 2)]

    def test_u3_symbolic_square_is_identity(self):
        h3 = schedule_u3(4, 1, 2, 0.77).segments[0].hamiltonian
        square = PauliSum.from_terms(
            4, [(ca * cb, sa * sb) for ca, sa in h3.terms for cb, sb in h3.terms]
        )
        assert sums_isclose(square, PauliSum.from_terms(4, [(1.0, PauliString.identity(4))]))

    def test_all_terms_commute_with_group(self):
        for n in (4, 6):
            group = build_decoupling_group(n)
            schedules = [schedule_u1(n, j, 1.0) for j in range(1, n - 1)]
            schedules += [schedule_u2(n, j, 1.0) for j in range(1, n - 1)]
            schedules += [
                schedule_u3(n, k, l, 1.0)
                for k in range(1, n - 1)
                for l in range(k + 1, n - 1)
            ]
            for s in schedules:
                for segment in s.segments:
                    for _, string in segment.hamiltonian.terms:
                        assert all(commutes(string, g) for g in group.elements)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_only_two_qubit_interactions(self, n):
        # The abstract's "only two-qubit interactions": every compiled string
        # of u1/u2/u3, at every target, acts on exactly two physical qubits.
        schedules = [build(n, j, 0.7) for build in (schedule_u1, schedule_u2)
                     for j in range(1, n - 1)]
        schedules += [schedule_u3(n, k, l, 0.7) for k in range(1, n - 2)
                      for l in range(k + 1, n - 1)]
        for schedule in schedules:
            _, strings, _ = gates._compile(schedule)
            assert strings
            assert all((x | z).bit_count() == 2 for x, z in map(_masks, strings))

    def test_bad_indices(self):
        with pytest.raises(LogicalIndexError):
            schedule_u1(4, 3, 0.1)
        with pytest.raises(LogicalIndexError):
            schedule_u2(4, 0, 0.1)
        with pytest.raises(BadIndexPairError):
            schedule_u3(4, 2, 1, 0.1)
        with pytest.raises(BadIndexPairError):
            schedule_u3(4, 1, 1, 0.1)

    @pytest.mark.parametrize("n", [10, 100])
    def test_register_above_max_qubits_refused(self, n):
        for build in (schedule_u1, schedule_u2):
            with pytest.raises(DimensionTooLargeError):
                build(n, 1, 0.5)
        with pytest.raises(DimensionTooLargeError):
            schedule_u3(n, 1, 2, 0.5)


class TestEvolution:
    def test_zero_area_schedule_is_identity(self):
        s = GateSchedule("u1", 4, (1,), 0.0, (ScheduleSegment(PauliSum.zero(4), 0.0),))
        assert np.allclose(evolve_schedule(s), np.eye(16))

    def test_u1_exact_logical_action(self):
        # evolve + project equals -(e^{-i theta Y} (x) I), including the -1
        basis = build_logical_basis(4)
        theta = np.pi / 7
        block = project_to_logical(evolve_schedule(schedule_u1(4, 1, theta)), basis)
        assert np.allclose(block, -np.kron(rotation_y(theta), np.eye(2)), atol=1e-12)

    def test_u2_exact_logical_action(self):
        basis = build_logical_basis(4)
        theta = 1.0
        block = project_to_logical(evolve_schedule(schedule_u2(4, 1, theta)), basis)
        expected = -np.diag(
            [np.exp(-1j * theta)] * 2 + [np.exp(1j * theta)] * 2
        )
        assert np.allclose(block, expected, atol=1e-12)

    def test_u3_exact_logical_action(self):
        basis = build_logical_basis(4)
        phi = 0.6
        block = project_to_logical(evolve_schedule(schedule_u3(4, 1, 2, phi)), basis)
        yz = np.kron(np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
        assert np.allclose(
            block, -(np.cos(phi) * np.eye(4) + 1j * np.sin(phi) * yz), atol=1e-12
        )

    def test_u3_action_rows_exact(self):
        # |10>_L -> -(sin phi |00>_L + cos phi |10>_L) etc.
        basis = build_logical_basis(4)
        phi = 0.42
        block = project_to_logical(evolve_schedule(schedule_u3(4, 1, 2, phi)), basis)
        col = {label: block[:, int(label, 2)] for label in basis.labels}
        assert np.allclose(col["00"], [-np.cos(phi), 0, np.sin(phi), 0], atol=1e-12)
        assert np.allclose(col["01"], [0, -np.cos(phi), 0, -np.sin(phi)], atol=1e-12)
        assert np.allclose(col["10"], [-np.sin(phi), 0, -np.cos(phi), 0], atol=1e-12)
        assert np.allclose(col["11"], [0, np.sin(phi), 0, -np.cos(phi)], atol=1e-12)

    def test_u3_n6_identity_on_spectators(self):
        basis = build_logical_basis(6)
        phi = 0.8
        block = project_to_logical(evolve_schedule(schedule_u3(6, 2, 3, phi)), basis)
        yz = pauli_to_matrix(PauliString.from_sites(4, {2: "Y", 3: "Z"}))
        target = np.cos(phi) * np.eye(16) + 1j * np.sin(phi) * yz
        assert product_fidelity([block], [target]) >= 1 - 1e-12

    def test_u3_n6_leading_pair_exact_action(self):
        # |00mn>_L -> -(cos phi |00>_L - sin phi |10>_L) (x) |mn>_L, all m, n
        basis = build_logical_basis(6)
        phi = 0.33
        block = project_to_logical(evolve_schedule(schedule_u3(6, 1, 2, phi)), basis)
        yz = pauli_to_matrix(PauliString.from_sites(4, {1: "Y", 2: "Z"}))
        assert np.allclose(
            block, -(np.cos(phi) * np.eye(16) + 1j * np.sin(phi) * yz), atol=1e-12
        )
        for m in (0, 1):
            for n in (0, 1):
                col = block[:, int(f"00{m}{n}", 2)]
                expected = np.zeros(16, dtype=complex)
                expected[int(f"00{m}{n}", 2)] = -np.cos(phi)
                expected[int(f"10{m}{n}", 2)] = np.sin(phi)
                assert np.allclose(col, expected, atol=1e-12)

    def test_u1_full_turn_is_identity(self):
        block = logical_gate(schedule_u1(4, 1, np.pi))
        assert product_fidelity([block], [np.eye(4)]) >= 1 - 1e-12


class TestLogicalGateGrid:
    @pytest.mark.parametrize("n", [4, 6])
    def test_u1_u2_targets(self, n):
        for j in range(1, n - 1):
            for theta in ANGLES:
                for make in (schedule_u1, schedule_u2):
                    s = make(n, j, theta)
                    block = logical_gate(s)
                    assert leakage_of(block) <= 1e-10
                    assert product_fidelity([block], [analytic_target(s)]) >= 1 - 1e-10

    @pytest.mark.parametrize("n", [4, 6])
    def test_u3_targets(self, n):
        for k in range(1, n - 1):
            for l in range(k + 1, n - 1):
                for phi in ANGLES:
                    s = schedule_u3(n, k, l, phi)
                    block = logical_gate(s)
                    assert leakage_of(block) <= 1e-10
                    assert product_fidelity([block], [analytic_target(s)]) >= 1 - 1e-10


class TestHolonomy:
    def test_u1_report(self):
        report = verify_holonomy(schedule_u1(4, 1, 0.9))
        assert report.cyclic_defect <= 1e-10
        assert report.max_parallel_transport_violation <= 1e-10
        assert report.leakage <= 1e-10

    def test_u2_report(self):
        report = verify_holonomy(schedule_u2(4, 2, 1.0))
        assert report.cyclic_defect <= 1e-10
        assert report.max_parallel_transport_violation <= 1e-10

    def test_u3_report_and_swap(self):
        s = schedule_u3(4, 1, 2, 0.7)
        report = verify_holonomy(s)
        assert report.cyclic_defect <= 1e-10
        assert report.max_parallel_transport_violation <= 1e-10
        assert report.subspace_swap <= 1e-10

    def test_u3_swap_n6(self):
        assert verify_holonomy(schedule_u3(6, 1, 3, 1.0)).subspace_swap <= 1e-10

    def test_swap_absent_for_single_qubit_kinds(self):
        for schedule in (schedule_u1(4, 1, 0.5), schedule_u2(4, 1, 0.5)):
            assert verify_holonomy(schedule).subspace_swap is None


def certify(schedule):
    report = verify_holonomy(schedule)
    return (report.cyclic_defect, report.max_parallel_transport_violation,
            report.leakage, report.subspace_swap)


def _passing_cases():
    cases = []
    for n in (4, 6):
        for kind in ("u1", "u2"):
            cases += [(kind, n, (j,), 0.7) for j in range(1, n - 1)]
        cases += [("u3", n, (k, l), 0.6) for k in range(1, n - 1) for l in range(k + 1, n - 1)]
    cases += [("u1", 8, (6,), 1.1), ("u2", 8, (3,), 0.4), ("u3", 8, (2, 5), 0.9)]
    return [
        pytest.param(kind, n, target, angle, id=f"n{n}-{kind}-{'-'.join(map(str, target))}")
        for kind, n, target, angle in cases
    ]


def _schedule(kind, n, target, angle):
    make = {"u1": schedule_u1, "u2": schedule_u2, "u3": schedule_u3}[kind]
    return make(n, *target, angle)


def _scale_first_area(schedule):
    first, *rest = schedule.segments
    return GateSchedule(
        schedule.kind, schedule.n_physical, schedule.target, schedule.angle,
        (ScheduleSegment(first.hamiltonian, 0.77 * first.area), *rest),
    )


def _perturb_last_segment(schedule):
    n = schedule.n_physical
    *rest, last = schedule.segments
    extra = PauliSum.from_terms(n, [(0.3, PauliString.from_sites(n, {2: "Z", 3: "Z"}))])
    return GateSchedule(
        schedule.kind, n, schedule.target, schedule.angle,
        (*rest, ScheduleSegment(last.hamiltonian + extra, last.area)),
    )


def full_register_gate(schedule, basis):
    return project_to_logical(evolve_schedule(schedule), basis)


def _leak_into(schedule, index, kicks=((0.2, {2: "X"}),)):
    """The schedule with the (coefficient, sites) terms `kicks` added to
    segment `index`; by default 0.2 X_2, which anticommutes with Z...Z, so
    that segment moves the code space."""
    n = schedule.n_physical
    segments = list(schedule.segments)
    kick = PauliSum.from_terms(n, [(c, PauliString.from_sites(n, sites)) for c, sites in kicks])
    segments[index] = ScheduleSegment(segments[index].hamiltonian + kick, segments[index].area)
    return GateSchedule(schedule.kind, n, schedule.target, schedule.angle, tuple(segments))


def _every_target(n):
    cases = [(kind, (j,)) for kind in ("u1", "u2") for j in range(1, n - 1)]
    return cases + [("u3", (k, l)) for k in range(1, n - 1) for l in range(k + 1, n - 1)]


class TestTransportedFrame:
    """The certifier's frame on a logical support, barred_transform on the
    target renumbered into it with the target axes moved last, against the
    bit-by-bit frame oracle in code-space coordinates: on every logical
    qubit, and on the schedule's own support, where the oracle runs on a
    code of that many logical qubits with the target renumbered alike."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_frame_groups_oracle(self, n):
        for kind, target in _every_target(n):
            schedule = _schedule(kind, n, target, 0.5)
            own = gates._boundary_chain(schedule)[2]
            assert own == target
            for support in (tuple(range(1, n - 1)), own):
                frame, k = _transported_frame(schedule, support)
                renumbered = tuple(support.index(q) + 1 for q in target)
                # frame_groups reads only kind, target and n_physical. A
                # one-qubit support is no code a GateSchedule admits (N = 3).
                small = SimpleNamespace(kind=kind, n_physical=len(support) + 2,
                                        target=renumbered)
                groups = frame_groups(small, np.eye(2 ** len(support)))
                assert {len(group) for group in groups} == {k}
                want = np.array([vec for group in groups for vec in group]).T
                assert frame.shape == want.shape
                assert np.abs(frame - want).max() <= 1e-15

    def test_built_once_per_slots_and_support_size(self, monkeypatch):
        gates._slot_frame.cache_clear()
        built = []
        real = gates.barred_transform
        monkeypatch.setattr(gates, "barred_transform",
                            lambda n, slots: built.append((n, slots)) or real(n, slots))
        for angle in (0.3, -1.2):
            for schedule in (schedule_u3(8, 2, 5, angle), schedule_u1(6, 2, angle)):
                verify_holonomy(schedule)
        schedule = schedule_u3(8, 2, 5, 0.7)
        support = gates._boundary_chain(schedule)[2]
        first, k = _transported_frame(schedule, support)
        second, _ = _transported_frame(schedule_u3(6, 2, 3, 0.1), (2, 3))
        # The same slots (1, 2) of a two-qubit support: one frame, shared.
        assert second is first and k == 2
        assert built == [(2, (1, 2)), (1, (1,))]
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0

    def test_unknown_kind_rejected(self):
        # The schedule refuses the kind itself, so no frame is ever built for it.
        schedule = schedule_u1(4, 1, 0.5)
        with pytest.raises(ValueError, match="unknown schedule kind"):
            GateSchedule("u4", 4, schedule.target, schedule.angle, schedule.segments)


class TestLogicalSupport:
    """The certifier on the schedule's logical support against the same
    certifier on the whole 2**(N-2) code-space block."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_every_target_matches_block_oracle(self, n):
        for kind, target in _every_target(n):
            for angle in (0.7, -0.4):
                schedule = _schedule(kind, n, target, angle)
                *want, gate = block_certifier(schedule)
                got = certify(schedule)
                assert (got[3] is None) == (want[3] is None)
                for value, reference in zip(got, want):
                    if reference is not None:
                        assert abs(value - reference) <= 1e-12 * reference + 1e-14
                assert np.abs(logical_gate(schedule) - gate).max() <= 1e-14

    @pytest.mark.parametrize("kind, target", [("u1", (1,)), ("u2", (1,)), ("u3", (1, 2))])
    def test_report_is_bit_identical_across_n(self, kind, target):
        reports = [certify(_schedule(kind, n, target, 0.7)) for n in (4, 6, 8)]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_image_on_every_logical_qubit_runs_on_the_whole_block(self, n):
        # X_1 X_N compresses to X...X, which acts on all N-2 logical qubits.
        data = json.loads(schedule_to_json(schedule_u1(n, 1, 0.5)))
        data["segments"].append({"hamiltonian": "0.3*+X" + "I" * (n - 2) + "X", "area": 0.8})
        schedule = schedule_from_json(json.dumps(data))
        assert gates._boundary_chain(schedule)[2] == tuple(range(1, n - 1))
        *want, gate = block_certifier(schedule)
        for value, reference in zip(certify(schedule), want):
            if reference is not None:
                assert abs(value - reference) <= 1e-12 * reference + 1e-14
        assert np.abs(logical_gate(schedule) - gate).max() <= 1e-14


class TestCertifierOracle:
    @pytest.mark.parametrize("kind, n, target, angle", _passing_cases())
    def test_passing_schedules_match_projector_oracle(self, kind, n, target, angle):
        schedule = _schedule(kind, n, target, angle)
        basis = build_logical_basis(n)
        new, ref = certify(schedule), holonomy_oracle(schedule, basis)
        for got, want in zip(new, ref):
            if want is not None:
                assert want <= 1e-10
                assert abs(got - want) <= 1e-14
        full = full_register_gate(schedule, basis)
        assert np.abs(logical_gate(schedule) - full).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["u1", "u2", "u3"])
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("breaker", [_scale_first_area, _perturb_last_segment])
    def test_broken_schedules_fail_as_the_oracle_does(self, kind, n, breaker):
        target = (1, n - 2) if kind == "u3" else (n - 2,)
        schedule = breaker(_schedule(kind, n, target, 0.6))
        basis = build_logical_basis(n)
        new, ref = certify(schedule), holonomy_oracle(schedule, basis)
        for got, want in zip(new, ref):
            if want is not None:
                assert abs(got - want) <= 1e-12 * want + 1e-14
        # Either the frame no longer closes or H acts inside a subspace.
        assert max(new[0], new[1]) > 1e-3
        if kind == "u3" and breaker is _scale_first_area:
            assert new[3] > 1e-3
        full = full_register_gate(schedule, basis)
        assert np.abs(logical_gate(schedule) - full).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["u1", "u2", "u3"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_leaky_schedule_reports_leakage_bound(self, kind, n):
        target = (1, n - 2) if kind == "u3" else (n - 2,)
        schedule = _leak_into(_schedule(kind, n, target, 0.6), index=-1)
        basis = build_logical_basis(n)
        oracle_leakage = holonomy_oracle(schedule, basis)[2]
        report = verify_holonomy(schedule)
        assert report.leakage >= oracle_leakage
        assert report.leakage > 1e-3
        with pytest.raises(LeakageError):
            logical_gate(schedule)


class TestLeakageBound:
    """Each segment's symbolic bound, the summed |coefficient| of its terms
    that anticommute with X...X or Z...Z, against the dense invariance
    residual ||H B - B H_L||_2 = ||(I - P) H P||_2."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_built_schedules_have_zero_bound(self, n):
        basis = build_logical_basis(n)
        for kind, target in _every_target(n):
            built = _schedule(kind, n, target, 0.5)
            for schedule in (built, schedule_from_json(schedule_to_json(built))):
                report = verify_holonomy(schedule)
                assert report.leak_weights == report.leaking_terms == (0,) * len(schedule.segments)
                for segment in schedule.segments:
                    assert invariance_residual(segment.hamiltonian, basis) <= 1e-15

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("kicks, want", [
        (((0.2, {2: "X"}),), 0.2),
        # X_2 and X_3 both anticommute with Z...Z only: one target sector.
        (((0.2, {2: "X"}), (0.1, {3: "X"})), 0.3),
    ])
    def test_bound_equals_residual_into_one_sector(self, n, kicks, want):
        schedule = _leak_into(_schedule("u3", n, (1, n - 2), 0.6), 0, kicks)
        bound = verify_holonomy(schedule).leak_weights[0]
        residual = invariance_residual(schedule.segments[0].hamiltonian, build_logical_basis(n))
        assert abs(bound - want) <= 1e-15
        assert abs(residual - bound) <= 1e-14

    @pytest.mark.parametrize("n", [4, 6])
    def test_bound_exceeds_residual_across_sectors(self, n):
        # Z_2 anticommutes with X...X only, so its image is orthogonal to
        # that of the X terms and the norms add in quadrature.
        kicks = ((0.2, {2: "X"}), (0.1, {3: "X"}), (0.05, {2: "Z"}))
        schedule = _leak_into(_schedule("u3", n, (1, n - 2), 0.6), 0, kicks)
        bound = verify_holonomy(schedule).leak_weights[0]
        residual = invariance_residual(schedule.segments[0].hamiltonian, build_logical_basis(n))
        assert abs(bound - 0.35) <= 1e-15
        assert abs(residual - np.hypot(0.3, 0.05)) <= 1e-14
        assert bound >= residual


class TestBlockEigendecompositions:
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("gate, target", [
        ("u1", ["--j", "1"]), ("u2", ["--j", "2"]), ("u3", ["--k", "1", "--l", "2"]),
    ])
    def test_verify_takes_one_stacked_block_eigh(self, capsys, monkeypatch, n, gate, target):
        shapes = []
        real = np.linalg.eigh

        def counting(h, *args, **kwargs):
            shapes.append(np.shape(h))
            return real(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert main(["verify", "--n", str(n), "--gate", gate, *target]) == 0
        assert capsys.readouterr().out.strip().endswith("result: PASS")
        segments = {"u1": 2, "u2": 4, "u3": 2}[gate]
        # The logical support: the target qubit for u1/u2, the pair for u3.
        dim = 4 if gate == "u3" else 2
        assert shapes == [(segments, dim, dim)]


class TestU3Blocks:
    def test_phi_zero(self):
        a, b, u = u3_block_decomposition(0.0)
        assert np.allclose(a, -1j * np.eye(2))
        assert np.allclose(b, -1j * np.eye(2))
        assert np.allclose(u, -np.eye(4))

    def test_phi_half_pi(self):
        # u lives in the barred basis; map it back before comparing
        a, _, u = u3_block_decomposition(np.pi / 2)
        assert np.allclose(a, np.array([[0, -1], [-1, 0]]), atol=1e-12)
        yz = np.kron(np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
        target = np.cos(np.pi / 2) * np.eye(4) + 1j * np.sin(np.pi / 2) * yz
        v = barred_transform(2, (1, 2))
        assert product_fidelity([v @ u @ v.conj().T], [target]) >= 1 - 1e-12

    def test_blocks_unitary(self):
        for phi in np.linspace(0, np.pi, 7):
            a, b, u = u3_block_decomposition(phi)
            assert is_unitary(a) and is_unitary(b) and is_unitary(u)

    def test_matches_simulated_gate_in_barred_basis(self):
        v = barred_transform(2, (1, 2))
        for phi in np.linspace(0.0, np.pi, 10):
            block = logical_gate(schedule_u3(4, 1, 2, phi))
            barred = v.conj().T @ block @ v
            _, _, u = u3_block_decomposition(phi)
            assert np.abs(barred - u).max() <= 1e-10


class TestGateAlgebra:
    def test_u1_u2_commute_up_to_phase_at_half_turns(self):
        for theta in (0.0, np.pi / 2, np.pi):
            for theta_p in (0.0, np.pi / 2, np.pi):
                a = logical_gate(schedule_u1(4, 1, theta))
                b = logical_gate(schedule_u2(4, 1, theta_p))
                assert product_fidelity([a @ b], [b @ a]) >= 1 - 1e-10

    def test_su2_generation_x_rotation(self):
        # U1(pi/4) U2(t) U1(-pi/4) rotates the Z axis onto X
        t = 1.0
        w = (
            logical_gate(schedule_u1(4, 1, np.pi / 4))
            @ logical_gate(schedule_u2(4, 1, t))
            @ logical_gate(schedule_u1(4, 1, -np.pi / 4))
        )
        x1 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        target = np.cos(t) * np.eye(4) - 1j * np.sin(t) * x1
        assert product_fidelity([w], [target]) >= 1 - 1e-8

    def test_u3_entangling_schmidt_rank(self):
        block = logical_gate(schedule_u3(4, 1, 2, np.pi / 4))
        reshaped = block.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        singular = np.linalg.svd(reshaped, compute_uv=False)
        assert np.sum(singular > 1e-10) == 2

    def test_u3_phi_zero_not_entangling(self):
        block = logical_gate(schedule_u3(4, 1, 2, 0.0))
        reshaped = block.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        singular = np.linalg.svd(reshaped, compute_uv=False)
        assert np.sum(singular > 1e-10) == 1


class TestHeisenbergReduction:
    def test_single_pair_zz_matches_gate_segment(self):
        h = heisenberg_reduction(0.0, 0.0, 0.0, 1.0, 4, pair=(2, 4))
        assert sums_isclose(h, schedule_u1(4, 1, 0.0).segments[0].hamiltonian)

    def test_single_pair_xx_matches_gate_segment(self):
        h = heisenberg_reduction(0.0, 1.0, 0.0, 0.0, 4, pair=(1, 2))
        assert sums_isclose(h, schedule_u2(4, 1, 0.0).segments[0].hamiltonian)

    def test_all_zero_is_zero_operator(self):
        assert not heisenberg_reduction(0.0, 0.0, 0.0, 0.0, 5).terms

    def test_full_chain_term_count(self):
        h = heisenberg_reduction(0.5, 1.0, 1.0, 1.0, 4)
        # 4 field terms + 3 bonds x 3 axes
        assert h.n_terms == 13


class TestSerialization:
    def test_round_trip(self):
        for s in (schedule_u1(4, 2, 0.3), schedule_u2(6, 3, 1.2), schedule_u3(6, 1, 4, 0.9)):
            restored = schedule_from_json(schedule_to_json(s))
            assert restored.kind == s.kind
            assert restored.n_physical == s.n_physical
            assert restored.target == s.target
            assert restored.angle == pytest.approx(s.angle)
            assert len(restored.segments) == len(s.segments)
            for a, b in zip(restored.segments, s.segments):
                assert a.area == pytest.approx(b.area)
                assert sums_isclose(a.hamiltonian, b.hamiltonian)


def edited_json(schedule, **changes):
    """schedule_to_json output with top-level fields replaced."""
    data = json.loads(schedule_to_json(schedule))
    data.update(changes)
    return json.dumps(data)


class TestScheduleFromJsonValidation:
    def test_unknown_kind(self):
        with pytest.raises(DfsGatesError, match="kind"):
            schedule_from_json(edited_json(schedule_u1(4, 1, 0.3), kind="u4"))

    def test_odd_qubit_count(self):
        with pytest.raises(OddQubitCountError):
            schedule_from_json(edited_json(schedule_u1(4, 1, 0.3), n_physical=5))

    def test_too_few_qubits(self):
        with pytest.raises(TooFewQubitsError):
            schedule_from_json(edited_json(schedule_u1(4, 1, 0.3), n_physical=2))

    @pytest.mark.parametrize("n", [10, 100])
    def test_qubit_count_above_max_qubits(self, n):
        with pytest.raises(DimensionTooLargeError):
            schedule_from_json(edited_json(schedule_u1(4, 1, 0.3), n_physical=n))

    def test_non_integer_qubit_count(self):
        with pytest.raises(DfsGatesError, match="integer"):
            schedule_from_json(edited_json(schedule_u1(4, 1, 0.3), n_physical=4.0))

    def test_single_target_arity(self):
        for target in ([], [1, 2]):
            with pytest.raises(LogicalIndexError):
                schedule_from_json(edited_json(schedule_u2(4, 1, 0.3), target=target))

    def test_pair_target_arity(self):
        for target in ([1], [1, 2, 3]):
            with pytest.raises(BadIndexPairError):
                schedule_from_json(edited_json(schedule_u3(6, 1, 2, 0.3), target=target))

    def test_single_target_out_of_range(self):
        for target in ([0], [3]):
            with pytest.raises(LogicalIndexError):
                schedule_from_json(edited_json(schedule_u1(4, 1, 0.3), target=target))

    def test_pair_target_out_of_range(self):
        for target in ([2, 1], [1, 1], [0, 2], [1, 5]):
            with pytest.raises(BadIndexPairError):
                schedule_from_json(edited_json(schedule_u3(6, 1, 2, 0.3), target=target))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_angle(self, bad):
        with pytest.raises(DfsGatesError, match="finite"):
            schedule_from_json(edited_json(schedule_u3(4, 1, 2, 0.3), angle=bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_area(self, bad):
        data = json.loads(schedule_to_json(schedule_u2(4, 1, 0.3)))
        data["segments"][2]["area"] = bad
        with pytest.raises(DfsGatesError, match="finite"):
            schedule_from_json(json.dumps(data))

    def test_empty_segment_list(self):
        # A u3 schedule without segments has no half-way frame to check.
        with pytest.raises(DfsGatesError, match="segments"):
            schedule_from_json(edited_json(schedule_u3(6, 1, 2, 0.3), segments=[]))

    def test_term_leaving_the_code_space(self):
        data = json.loads(schedule_to_json(schedule_u3(6, 1, 2, 0.3)))
        data["segments"][1]["hamiltonian"] += " + 0.2*+IXIIII"
        with pytest.raises(DfsGatesError, match="code space"):
            schedule_from_json(json.dumps(data))

    def test_hamiltonian_on_other_qubit_count(self):
        data = json.loads(schedule_to_json(schedule_u1(6, 1, 0.3)))
        data["n_physical"] = 4
        with pytest.raises(LengthMismatchError):
            schedule_from_json(json.dumps(data))

    @pytest.mark.parametrize("text", ["", "{", "[]", "5", '"u1"', "null"])
    def test_text_that_is_not_a_json_object(self, text):
        with pytest.raises(DfsGatesError, match="JSON|field"):
            schedule_from_json(text)

    @pytest.mark.parametrize("edit, names", [
        (lambda d: d.pop("kind"), "kind"),
        (lambda d: d.update(n_physical=True), "n_physical"),
        (lambda d: d.update(target=1), "target"),
        (lambda d: d.update(target=["1"]), "target"),
        (lambda d: d.update(angle="0.3"), "angle"),
        (lambda d: d.update(angle=10**400), "angle"),
        (lambda d: d.pop("segments"), "segments"),
        (lambda d: d.update(segments=5), "segments"),
        (lambda d: d["segments"].__setitem__(1, 5), "segment 1"),
        (lambda d: d["segments"][0].update(area="x"), "area"),
        (lambda d: d["segments"][0].update(area=None), "area"),
        (lambda d: d["segments"][0].update(area=-10**400), "area"),
        (lambda d: d["segments"][0].pop("area"), "area"),
        (lambda d: d["segments"][0].pop("hamiltonian"), "hamiltonian"),
        (lambda d: d["segments"][0].update(hamiltonian=1.0), "hamiltonian"),
        (lambda d: d["segments"][0].update(hamiltonian="1.0*+XQII"), "hamiltonian"),
        (lambda d: d["segments"][0].update(hamiltonian="+XXII"), "hamiltonian"),
        (lambda d: d["segments"][0].update(hamiltonian="one*+XXII"), "hamiltonian"),
        (lambda d: d["segments"][0].update(hamiltonian="nan*+XXII"), "real, finite"),
        (lambda d: d["segments"][0].update(hamiltonian="inf*+XXII"), "real, finite"),
        (lambda d: d["segments"][0].update(hamiltonian="-inf*+XXII"), "real, finite"),
        (lambda d: d["segments"][0].update(hamiltonian="1j*+XXII"), "real, finite"),
        (lambda d: d["segments"][0].update(hamiltonian="1.0*+iXXII"), "real, finite"),
    ])
    def test_malformed_field_is_named(self, edit, names):
        data = json.loads(schedule_to_json(schedule_u2(4, 1, 0.3)))
        edit(data)
        with pytest.raises(DfsGatesError, match=names):
            schedule_from_json(json.dumps(data))


class TestScheduleChecks:
    """GateSchedule checks its own structure, so a schedule built directly
    is refused as one from a builder or from JSON would be."""

    SEGMENTS = schedule_u1(6, 1, 0.3).segments

    def test_empty_segments_named(self):
        # Reached verify_holonomy and logical_gate as a raw IndexError, and
        # error_sweep as numpy's "need at least one array to stack".
        with pytest.raises(ScheduleError, match="segments"):
            GateSchedule("u3", 6, (1, 2), 0.3, ())

    @pytest.mark.parametrize("kind, target, error", [
        ("u1", (9,), LogicalIndexError),
        ("u2", (0,), LogicalIndexError),
        ("u1", (1, 2), LogicalIndexError),
        ("u1", (True,), LogicalIndexError),
        ("u1", (1.0,), LogicalIndexError),
        ("u3", (2, 1), BadIndexPairError),
        ("u3", (1, 5), BadIndexPairError),
        ("u3", (1,), BadIndexPairError),
    ])
    def test_target_named(self, kind, target, error):
        # (9,) at N = 6 raised IndexError: tuple index out of range.
        with pytest.raises(error, match="target"):
            GateSchedule(kind, 6, target, 0.3, self.SEGMENTS)

    def test_kind_and_code_size(self):
        with pytest.raises(ScheduleError, match="kind"):
            GateSchedule("u4", 6, (1,), 0.3, self.SEGMENTS)
        for n, error in ((5, OddQubitCountError), (2, TooFewQubitsError),
                         (10, DimensionTooLargeError)):
            with pytest.raises(error):
                GateSchedule("u1", n, (1,), 0.3, self.SEGMENTS)

    def test_segment_on_other_qubit_count(self):
        with pytest.raises(LengthMismatchError, match="segment 1"):
            GateSchedule("u1", 6, (1,), 0.3, (self.SEGMENTS[0], schedule_u1(4, 1, 0.3).segments[1]))

    def test_leaking_terms_admitted(self):
        # The leakage checks build such schedules on purpose.
        schedule = _leak_into(schedule_u1(6, 1, 0.3), 0)
        assert verify_holonomy(schedule).leakage > 1e-4
