"""Holonomic gate schedules, exact evolution, and holonomy certification.

Each gate is a short sequence of piecewise-constant two-body Hamiltonians
drawn from the commutant of the decoupling group, with only the pulse
area integral(J dt) of each segment mattering. Evolving the sequence on
the physical register and restricting to the code space reproduces, up to
a global phase, the closed-form logical rotations

    u1: exp(-i theta Y_j)          (two segments)
    u2: exp(-i theta Z_j)          (four segments)
    u3: exp(+i phi Y_k (x) Z_l)    (two segments, entangling)

The holonomy checker certifies the two defining properties of a
non-adiabatic holonomy directly from the simulated trajectory: the moving
frame returns to itself over the full period, and the Hamiltonian has no
matrix elements inside any transported frame subspace at any sampled time
(single states for u1/u2; for u3 the two-dimensional subspaces that swap
places halfway through).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dfs import LogicalBasis, logical_pauli, project_to_logical
from .errors import (
    BadIndexPairError,
    LeakageError,
    LogicalIndexError,
    OddQubitCountError,
    TooFewQubitsError,
)
from .linalg import (
    ATOL_STRUCT,
    SIGMA_I,
    expm_hermitian,
    kron_all,
    spectral_norm,
    subspace_projector,
)
from .pauli import PauliString, PauliSum


@dataclass(frozen=True)
class ScheduleSegment:
    """One piecewise-constant segment: a Hamiltonian shape and its pulse area."""

    hamiltonian: PauliSum
    area: float


@dataclass(frozen=True)
class GateSchedule:
    """Ordered segments defining one holonomic gate on n physical qubits.

    target is (j,) for the single-qubit families and (k, l) for the
    entangling family; angle is the gate parameter theta or phi.
    """

    kind: str  # "u1" | "u2" | "u3"
    n_physical: int
    target: tuple[int, ...]
    angle: float
    segments: tuple[ScheduleSegment, ...]


@dataclass(frozen=True)
class HolonomyReport:
    cyclic_defect: float
    max_parallel_transport_violation: float
    leakage: float


def _check_n(n: int) -> None:
    if n % 2:
        raise OddQubitCountError(f"gate construction needs even n, got {n}")
    if n < 4:
        raise TooFewQubitsError(f"gate construction needs n >= 4, got {n}")


def _xx(n: int, a: int, b: int) -> PauliSum:
    return PauliSum.from_terms(n, [(1.0, PauliString.from_sites(n, {a: "X", b: "X"}))])


def _zz(n: int, a: int, b: int) -> PauliSum:
    return PauliSum.from_terms(n, [(1.0, PauliString.from_sites(n, {a: "Z", b: "Z"}))])


def schedule_u1(n: int, j: int, theta: float) -> GateSchedule:
    """Two-segment schedule for the logical Y rotation on qubit j.

    Segment 1 is Z_(j+1) Z_n at area pi/2; segment 2 mixes that term with
    X_1 X_(j+1) by the gate angle, again at area pi/2.
    """
    _check_n(n)
    if not 1 <= j <= n - 2:
        raise LogicalIndexError(f"logical target {j} outside 1..{n - 2}")
    h1 = _zz(n, j + 1, n)
    h1p = np.cos(theta) * h1 + np.sin(theta) * _xx(n, 1, j + 1)
    return GateSchedule(
        "u1", n, (j,), theta,
        (ScheduleSegment(h1, np.pi / 2), ScheduleSegment(h1p, np.pi / 2)),
    )


def schedule_u2(n: int, j: int, theta: float) -> GateSchedule:
    """Four-segment schedule for the logical Z rotation on qubit j.

    Wraps the u1 pair between X_1 X_(j+1) segments of areas -pi/4 and
    +pi/4; the sign of the first area sets the rotation direction.
    """
    _check_n(n)
    if not 1 <= j <= n - 2:
        raise LogicalIndexError(f"logical target {j} outside 1..{n - 2}")
    h2 = _xx(n, 1, j + 1)
    inner = schedule_u1(n, j, theta).segments
    return GateSchedule(
        "u2", n, (j,), theta,
        (
            ScheduleSegment(h2, -np.pi / 4),
            inner[0],
            inner[1],
            ScheduleSegment(h2, np.pi / 4),
        ),
    )


def schedule_u3(n: int, k: int, l: int, phi: float) -> GateSchedule:
    """Two-segment schedule for the entangling rotation exp(i phi Y_k Z_l)."""
    _check_n(n)
    if not (1 <= k < l <= n - 2):
        raise BadIndexPairError(f"need 1 <= k < l <= {n - 2}, got k={k}, l={l}")
    h3 = np.cos(phi) * _xx(n, 1, k + 1) + (-np.sin(phi)) * _zz(n, k + 1, l + 1)
    h3p = _xx(n, 1, k + 1)
    return GateSchedule(
        "u3", n, (k, l), phi,
        (ScheduleSegment(h3, np.pi / 2), ScheduleSegment(h3p, np.pi / 2)),
    )


def evolve_schedule(schedule: GateSchedule) -> np.ndarray:
    """Total propagator: product of segment exponentials, earliest rightmost."""
    u = np.eye(2**schedule.n_physical, dtype=np.complex128)
    for segment in schedule.segments:
        u = expm_hermitian(segment.hamiltonian.to_matrix(), segment.area) @ u
    return u


def logical_gate(
    schedule: GateSchedule, basis: LogicalBasis, atol: float = ATOL_STRUCT
) -> np.ndarray:
    """Evolve the schedule and restrict to the code space.

    Raises
    ------
    LeakageError
        If the restriction is non-unitary beyond atol, i.e. the evolution
        moved population out of the code space.
    """
    block = project_to_logical(evolve_schedule(schedule), basis)
    leak = leakage_of(block)
    if leak > atol:
        raise LeakageError(f"code-space leakage {leak:.3e} exceeds {atol:.1e}")
    return block


def leakage_of(block: np.ndarray) -> float:
    """Deviation of a restricted propagator from unitarity, ||M†M - I||."""
    return spectral_norm(block.conj().T @ block - np.eye(block.shape[0]))


def analytic_target(schedule: GateSchedule) -> np.ndarray:
    """Closed-form logical gate the schedule should match up to global phase.

    Built from explicit 2x2 rotation blocks rather than any matrix
    exponential, so it is an independent reference for the evolved gate.
    """
    n_logical = schedule.n_physical - 2
    theta = schedule.angle
    if schedule.kind == "u1":
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=np.complex128,
        )
        return _embed(n_logical, {schedule.target[0]: rot})
    if schedule.kind == "u2":
        rot = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        return _embed(n_logical, {schedule.target[0]: rot})
    if schedule.kind == "u3":
        k, l = schedule.target
        yz = logical_pauli(n_logical, "Y", k) @ logical_pauli(n_logical, "Z", l)
        return np.cos(theta) * np.eye(2**n_logical) + 1j * np.sin(theta) * yz
    raise ValueError(f"unknown schedule kind {schedule.kind!r}")


def _embed(n_logical: int, blocks: dict[int, np.ndarray]) -> np.ndarray:
    return kron_all(blocks.get(i, SIGMA_I) for i in range(1, n_logical + 1))


# ---------------------------------------------------------------------------
# Holonomy certification


def _bit(r: int, pos: int, width: int) -> int:
    return (r >> (width - pos)) & 1


def _frame_groups(schedule: GateSchedule, basis: LogicalBasis) -> list[list[np.ndarray]]:
    """Initial frame states grouped into the parallel-transported subspaces.

    u1: eigenstates of the target logical Y tensored with computational
        states of the other logical qubits; one group per state.
    u2: the logical computational basis; one group per state.
    u3: Y-eigenstates ("barred" states) on both targets, computational
        elsewhere; the two states sharing the first target's bar form one
        two-dimensional group. Consecutive groups (paired over the first
        bar) are the subspaces that swap at the segment boundary.
    """
    n_logical = basis.n_logical
    states = basis.states
    if schedule.kind == "u2":
        return [[states[r]] for r in range(2**n_logical)]
    if schedule.kind == "u1":
        j = schedule.target[0]
        groups = []
        for r in range(2**n_logical):
            if _bit(r, j, n_logical):
                continue
            partner = r | (1 << (n_logical - j))
            for sign in (1, -1):
                groups.append([(states[r] + sign * 1j * states[partner]) / np.sqrt(2)])
        return groups
    if schedule.kind == "u3":
        k, l = schedule.target
        groups = []
        for r in range(2**n_logical):
            if _bit(r, k, n_logical) or _bit(r, l, n_logical):
                continue
            for bar_k in (0, 1):
                group = []
                for bar_l in (0, 1):
                    vec = np.zeros(states.shape[1], dtype=np.complex128)
                    for u in (0, 1):
                        cu = 1.0 if u == 0 else 1j * (1 - 2 * bar_k)
                        for v in (0, 1):
                            cv = 1.0 if v == 0 else 1j * (1 - 2 * bar_l)
                            idx = r | (u << (n_logical - k)) | (v << (n_logical - l))
                            vec += cu * cv * states[idx]
                    group.append(vec / 2)
                groups.append(group)
        return groups
    raise ValueError(f"unknown schedule kind {schedule.kind!r}")


def _segment_propagators(h: np.ndarray, area: float, fractions) -> list[np.ndarray]:
    """exp(-i * f * area * h) for each fraction f, one eigendecomposition."""
    evals, vecs = np.linalg.eigh(h)
    return [(vecs * np.exp(-1j * f * area * evals)) @ vecs.conj().T for f in fractions]


def verify_holonomy(
    schedule: GateSchedule, basis: LogicalBasis, samples_per_segment: int = 8
) -> HolonomyReport:
    """Certify the cyclic-frame and no-dynamical-phase conditions numerically.

    cyclic_defect is the worst projector mismatch between the evolved and
    initial frame, for the full frame and for every transported subspace
    individually. The transport violation is the largest Hamiltonian
    matrix element inside any transported subspace, sampled at
    samples_per_segment+1 times per segment (each segment Hamiltonian
    commutes with its own propagator, so endpoint checks would suffice
    analytically; interior samples are defense in depth).
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    groups = _frame_groups(schedule, basis)
    flat0 = [vec for group in groups for vec in group]
    fractions = [m / samples_per_segment for m in range(samples_per_segment + 1)]

    worst = 0.0
    prefix = np.eye(2**schedule.n_physical, dtype=np.complex128)
    for segment in schedule.segments:
        h = segment.hamiltonian.to_matrix()
        for u_frac in _segment_propagators(h, segment.area, fractions):
            u_t = u_frac @ prefix
            for group in groups:
                moved = [u_t @ vec for vec in group]
                for a in moved:
                    ha = h @ a
                    for b in moved:
                        worst = max(worst, abs(np.vdot(b, ha)))
        # The last fraction is exactly 1.0, so u_frac is the whole segment.
        prefix = u_frac @ prefix

    defect = spectral_norm(
        subspace_projector([prefix @ v for v in flat0]) - subspace_projector(flat0)
    )
    for group in groups:
        defect = max(
            defect,
            spectral_norm(
                subspace_projector([prefix @ v for v in group])
                - subspace_projector(group)
            ),
        )
    return HolonomyReport(
        cyclic_defect=float(defect),
        max_parallel_transport_violation=float(worst),
        leakage=leakage_of(project_to_logical(prefix, basis)),
    )


def u3_subspace_swap_defect(schedule: GateSchedule, basis: LogicalBasis) -> float:
    """Worst mismatch between each barred subspace after segment 1 and its partner.

    At the boundary between the two u3 segments the paired subspaces must
    have exchanged places exactly; returns the largest projector defect
    over all pairs and both directions.
    """
    if schedule.kind != "u3":
        raise ValueError("subspace swap is defined for u3 schedules only")
    groups = _frame_groups(schedule, basis)
    seg = schedule.segments[0]
    u_boundary = expm_hermitian(seg.hamiltonian.to_matrix(), seg.area)
    worst = 0.0
    for first in range(0, len(groups), 2):
        pa, pb = groups[first], groups[first + 1]
        proj = {
            "a0": subspace_projector(pa),
            "b0": subspace_projector(pb),
            "at": subspace_projector([u_boundary @ v for v in pa]),
            "bt": subspace_projector([u_boundary @ v for v in pb]),
        }
        worst = max(worst, spectral_norm(proj["at"] - proj["b0"]))
        worst = max(worst, spectral_norm(proj["bt"] - proj["a0"]))
    return float(worst)


def u3_block_decomposition(phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic blocks of the entangling gate in the barred two-qubit basis.

    Returns (A, B, U) where A and B are the unitary off-diagonal blocks of
    the two segment generators and U = -diag(B A†, B† A) is the assembled
    4x4 gate in the basis {|00>, |01>, |10>, |11>} of barred states.
    """
    a = np.array(
        [[-1j * np.cos(phi), -np.sin(phi)], [-np.sin(phi), -1j * np.cos(phi)]],
        dtype=np.complex128,
    )
    b = -1j * np.eye(2, dtype=np.complex128)
    u = np.zeros((4, 4), dtype=np.complex128)
    u[:2, :2] = -(b @ a.conj().T)
    u[2:, 2:] = -(b.conj().T @ a)
    return a, b, u


def barred_transform(n_logical: int, slots: tuple[int, ...]) -> np.ndarray:
    """Basis-change matrix sending computational to barred states on `slots`.

    Columns are the barred basis vectors |b...> with |0bar> = (|0> + i|1>)/sqrt(2)
    and |1bar> = (|0> - i|1>)/sqrt(2) on the listed logical slots.
    """
    v = np.array([[1, 1], [1j, -1j]], dtype=np.complex128) / np.sqrt(2)
    return kron_all(v if i in slots else SIGMA_I for i in range(1, n_logical + 1))


# ---------------------------------------------------------------------------
# Effective spin-lattice reduction


def heisenberg_reduction(
    jz_field: float, jx: float, jy: float, jz: float, n: int,
    pair: tuple[int, int] | None = None,
) -> PauliSum:
    """Anisotropic Heisenberg chain with a z field, as a Pauli sum.

    With pair set, the two-body couplings act only between those two
    sites (the tunable-coupling limit in which single gate Hamiltonians
    arise); otherwise they act on every nearest-neighbour pair of the
    open chain. Setting jx = jy = jz_field = 0 with a designated pair
    reproduces the ZZ gate segment exactly, term for term.
    """
    if n < 2:
        raise TooFewQubitsError(f"chain needs n >= 2, got {n}")
    terms = []
    if jz_field != 0:
        terms += [
            (jz_field, PauliString.from_sites(n, {i: "Z"})) for i in range(1, n + 1)
        ]
    pairs = [pair] if pair is not None else [(i, i + 1) for i in range(1, n)]
    for a, b in pairs:
        for coupling, letter in ((jx, "X"), (jy, "Y"), (jz, "Z")):
            if coupling != 0:
                terms.append(
                    (coupling, PauliString.from_sites(n, {a: letter, b: letter}))
                )
    return PauliSum.from_terms(n, terms)


# ---------------------------------------------------------------------------
# Serialization


def schedule_to_json(schedule: GateSchedule) -> str:
    return json.dumps(
        {
            "kind": schedule.kind,
            "n_physical": schedule.n_physical,
            "target": list(schedule.target),
            "angle": schedule.angle,
            "segments": [
                {"hamiltonian": seg.hamiltonian.text(), "area": seg.area}
                for seg in schedule.segments
            ],
        }
    )


def schedule_from_json(text: str) -> GateSchedule:
    data = json.loads(text)
    n = data["n_physical"]
    segments = tuple(
        ScheduleSegment(PauliSum.from_text(n, seg["hamiltonian"]), seg["area"])
        for seg in data["segments"]
    )
    return GateSchedule(
        data["kind"], n, tuple(data["target"]), data["angle"], segments
    )
