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
import math
from dataclasses import dataclass

import numpy as np

from .dfs import LogicalBasis, logical_pauli, project_to_logical
from .errors import (
    BadIndexPairError,
    DfsGatesError,
    LeakageError,
    LogicalIndexError,
    OddQubitCountError,
    TooFewQubitsError,
)
from .linalg import (
    ATOL_STRUCT,
    SIGMA_I,
    _eigh_hermitian,
    _orthonormal_frame,
    expm_hermitian,
    kron_all,
    spectral_norm,
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


def _check_logical(n: int, j: int) -> None:
    if not 1 <= j <= n - 2:
        raise LogicalIndexError(f"logical target {j} outside 1..{n - 2}")


def _check_pair(n: int, k: int, l: int) -> None:
    if not (1 <= k < l <= n - 2):
        raise BadIndexPairError(f"need 1 <= k < l <= {n - 2}, got k={k}, l={l}")


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
    _check_logical(n, j)
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
    _check_logical(n, j)
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
    _check_pair(n, k, l)
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


def _stacked_frame(groups: list[list[np.ndarray]]) -> tuple[np.ndarray, list[slice]]:
    """All frame vectors as the columns of one orthonormal d x r matrix, and
    the column slice of each group."""
    frame = _orthonormal_frame(vec for group in groups for vec in group)
    slices, start = [], 0
    for group in groups:
        slices.append(slice(start, start + len(group)))
        start += len(group)
    return frame, slices


def _evolve_frame(h: np.ndarray, area: float, fractions, frame: np.ndarray) -> list[np.ndarray]:
    """exp(-i * f * area * h) @ frame for each fraction f, one eigendecomposition."""
    evals, vecs = _eigh_hermitian(h)
    coeffs = vecs.conj().T @ frame
    return [vecs @ (np.exp(-1j * f * area * evals)[:, None] * coeffs) for f in fractions]


def _principal_sine(q: np.ndarray, v: np.ndarray) -> float:
    """Sine of the largest principal angle between the spans of two
    orthonormal d x r frames: ||q - v (v† q)||_2, which equals the
    projector distance ||q q† - v v†||_2 for frames of equal rank."""
    return spectral_norm(q - v @ (v.conj().T @ q))


def verify_holonomy(
    schedule: GateSchedule, basis: LogicalBasis, samples_per_segment: int = 8
) -> HolonomyReport:
    """Certify the cyclic-frame and no-dynamical-phase conditions numerically.

    The frame groups are stacked into one orthonormal d x r matrix F and
    moved along the trajectory as G = u(t) F, never as a d x d propagator.

    cyclic_defect is the sine of the largest principal angle between the
    evolved and the initial frame, for the full frame and for every
    transported subspace individually. It is computed from the d x r
    residual ||G - F (F† G)||_2 (Bjorck & Golub, Math. Comp. 27 (1973)),
    which equals the projector distance ||G G† - F F†||_2 and keeps full
    relative accuracy at small angles. The cosine route
    sqrt(1 - sigma_min(F† G)**2) does not: it cancels near sigma = 1 and
    floors at the square root of the rounding unit, 1.5e-8 on the u3
    frame at N = 8 whose residual is 2e-16, above the 1e-9 certification
    bound.

    The transport violation is the largest Hamiltonian matrix element
    inside any transported subspace, sampled at samples_per_segment+1
    times per segment: one block compression M = G†(H G) per sample,
    read over the group-diagonal blocks of M (each segment Hamiltonian
    commutes with its own propagator, so endpoint checks would suffice
    analytically; interior samples are defense in depth).

    leakage is the non-unitarity ||M†M - I|| of M = F† G_end, the
    full-period propagator restricted to the code space in frame
    coordinates. F is an orthonormal basis of the code space, so M is the
    logical restriction up to a unitary change of basis, which leaves the
    norm unchanged.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    frame, slices = _stacked_frame(_frame_groups(schedule, basis))
    in_group = np.zeros((frame.shape[1],) * 2, dtype=bool)
    for cols in slices:
        in_group[cols, cols] = True
    fractions = [m / samples_per_segment for m in range(samples_per_segment + 1)]

    worst = 0.0
    moved = frame
    for segment in schedule.segments:
        h = segment.hamiltonian.to_matrix()
        for g in _evolve_frame(h, segment.area, fractions, moved):
            worst = max(worst, float(np.abs((g.conj().T @ (h @ g))[in_group]).max()))
        # The last fraction is exactly 1.0, so g is the frame after the segment.
        moved = g

    defect = max(
        _principal_sine(moved[:, cols], frame[:, cols]) for cols in [slice(None), *slices]
    )
    return HolonomyReport(
        cyclic_defect=float(defect),
        max_parallel_transport_violation=worst,
        leakage=leakage_of(frame.conj().T @ moved),
    )


def u3_subspace_swap_defect(schedule: GateSchedule, basis: LogicalBasis) -> float:
    """Worst mismatch between each barred subspace after segment 1 and its partner.

    At the boundary between the two u3 segments the paired subspaces must
    have exchanged places exactly; returns the largest principal-angle
    sine over all pairs and both directions. Each is the d x 2 residual
    ||G_a - F_b (F_b† G_a)||_2 of the moved pair frame G_a against its
    partner's initial frame F_b, never sqrt(1 - sigma_min**2), which
    cancels near sigma = 1 (see verify_holonomy).
    """
    if schedule.kind != "u3":
        raise ValueError("subspace swap is defined for u3 schedules only")
    frame, slices = _stacked_frame(_frame_groups(schedule, basis))
    seg = schedule.segments[0]
    [moved] = _evolve_frame(seg.hamiltonian.to_matrix(), seg.area, [1.0], frame)
    worst = 0.0
    for a, b in zip(slices[::2], slices[1::2]):
        worst = max(
            worst,
            _principal_sine(moved[:, a], frame[:, b]),
            _principal_sine(moved[:, b], frame[:, a]),
        )
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
    """Parse and validate a schedule written by schedule_to_json.

    Raises
    ------
    DfsGatesError
        Unknown kind, non-integer qubit count or target, or a non-finite
        angle or area.
    OddQubitCountError, TooFewQubitsError
        n_physical odd or below 4.
    LogicalIndexError, BadIndexPairError
        A target of the wrong arity for the kind, or out of range.
    LengthMismatchError
        A Hamiltonian written on a qubit count other than n_physical.
    """
    data = json.loads(text)
    kind, n, target = data["kind"], data["n_physical"], tuple(data["target"])
    if kind not in ("u1", "u2", "u3"):
        raise DfsGatesError(f"unknown schedule kind {kind!r}")
    if not all(type(v) is int for v in (n, *target)):
        raise DfsGatesError(f"n_physical and target must be integers, got {n!r}, {target!r}")
    _check_n(n)
    if kind == "u3":
        if len(target) != 2:
            raise BadIndexPairError(f"u3 needs a target pair (k, l), got {target}")
        _check_pair(n, *target)
    else:
        if len(target) != 1:
            raise LogicalIndexError(f"{kind} needs one logical target, got {target}")
        _check_logical(n, *target)
    numbers = [data["angle"], *(seg["area"] for seg in data["segments"])]
    if not all(math.isfinite(x) for x in numbers):
        raise DfsGatesError(f"angle and areas must be finite, got {numbers}")
    segments = tuple(
        ScheduleSegment(PauliSum.from_text(n, seg["hamiltonian"]), seg["area"])
        for seg in data["segments"]
    )
    return GateSchedule(kind, n, target, data["angle"], segments)
