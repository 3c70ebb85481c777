"""Holonomic gate schedules, code-space evolution, and holonomy certification.

Each gate is a short sequence of piecewise-constant two-body Hamiltonians
drawn from the commutant of the decoupling group, with only the pulse
area integral(J dt) of each segment mattering. Restricted to the code space
the sequence reproduces, up to a global phase, the closed-form logical
rotations

    u1: exp(-i theta Y_j)          (two segments)
    u2: exp(-i theta Z_j)          (four segments)
    u3: exp(+i phi Y_k (x) Z_l)    (two segments, entangling)

Commutant Hamiltonians commute with X...X and Z...Z, so they never leave
the all-(+1) sector that holds the code space. The gate layer builds no
basis: each string of the compiled schedule (_compile, read by the sweep
engine too) maps to H_L by a stabilizer rule on its bit masks, exponentiated
once on the logical support, the target qubits and those H_L acts on (one
for u1/u2, two for u3, at any N). The weight of the strings outside the
commutant bounds how far a segment moves the code space, so a schedule that
does leave it is still caught (see verify_holonomy). The full-register
propagator, the dense code basis and the whole-block certifier are test
oracles, in tests/oracles.py.

The holonomy checker certifies the two defining properties of a
non-adiabatic holonomy directly from the simulated trajectory: the moving
frame returns to itself over the full period, and the Hamiltonian has no
matrix elements inside any transported frame subspace (single states for
u1/u2; for u3 the two-dimensional subspaces that swap places halfway
through). Each segment's propagator commutes with its Hamiltonian, so
those matrix elements are constant over the segment and are checked at
its two ends.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .dfs import _check_code_size, _image
from .errors import (
    BadIndexPairError,
    DfsGatesError,
    LeakageError,
    LengthMismatchError,
    LogicalIndexError,
    ScheduleError,
    TooFewQubitsError,
)
from .linalg import (
    ATOL_STRUCT,
    SIGMA_I,
    _expm_hermitian,
    _orthonormal_frame,
    kron_all,
    spectral_norm,
)
from .pauli import PauliString, PauliSum, _masks, _pauli_sums, commutant_split


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

    def __post_init__(self):
        """Check the schedule's structure, however it was built: a builder,
        schedule_from_json or direct construction. Terms that leave the
        code space are admitted; verify_holonomy bounds the leakage they
        cause.

        Raises
        ------
        ScheduleError
            An unknown kind, or no segments.
        OddQubitCountError, TooFewQubitsError, DimensionTooLargeError
            n_physical odd, below 4 or above MAX_QUBITS.
        LogicalIndexError, BadIndexPairError
            A u1/u2 target that is not one logical qubit in 1..N-2, or a u3
            target that is not a pair 1 <= k < l <= N-2.
        LengthMismatchError
            A segment Hamiltonian on another number of qubits.
        """
        if self.kind not in ("u1", "u2", "u3"):
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        _check_code_size(self.n_physical)
        n_logical, target = self.n_physical - 2, self.target
        whole = all(isinstance(q, numbers.Integral) and not isinstance(q, bool) for q in target)
        if self.kind == "u3":
            if not (whole and len(target) == 2 and 1 <= target[0] < target[1] <= n_logical):
                raise BadIndexPairError(
                    f"u3 target must be a pair (k, l) with 1 <= k < l <= {n_logical}, "
                    f"got {target!r}")
        elif not (whole and len(target) == 1 and 1 <= target[0] <= n_logical):
            raise LogicalIndexError(
                f"{self.kind} target must be one logical qubit in 1..{n_logical}, got {target!r}")
        if not self.segments:
            raise ScheduleError("schedule field 'segments' must hold at least one segment")
        for index, segment in enumerate(self.segments):
            if segment.hamiltonian.n_qubits != self.n_physical:
                raise LengthMismatchError(
                    f"segment {index} hamiltonian on {segment.hamiltonian.n_qubits} qubits, "
                    f"schedule n_physical is {self.n_physical}")


@dataclass(frozen=True, eq=False)
class HolonomyReport:
    """What verify_holonomy measured: the defects, the leakage bound, the gate M
    on the logical support, and each segment's eps_s and leaking-term count."""

    cyclic_defect: float
    max_parallel_transport_violation: float
    leakage: float
    subspace_swap: float | None  # u3 only
    support: tuple[int, ...]
    support_gate: np.ndarray = field(repr=False)
    leak_weights: tuple[float, ...]
    leaking_terms: tuple[int, ...]


def _segment(n: int, area: float, *terms: tuple[float, str, int, int]) -> ScheduleSegment:
    """A segment of area `area` whose Hamiltonian sums coef * P_a P_b over
    terms (coef, P, a, b), one two-site string each."""
    strings = ((c, PauliString.from_sites(n, {a: p, b: p})) for c, p, a, b in terms)
    return ScheduleSegment(PauliSum.from_terms(n, strings), area)


def schedule_u1(n: int, j: int, theta: float) -> GateSchedule:
    """Two-segment schedule for the logical Y rotation on qubit j.

    Segment 1 is Z_(j+1) Z_n at area pi/2; segment 2 mixes that term with
    X_1 X_(j+1) by the gate angle, again at area pi/2.
    """
    return GateSchedule("u1", n, (j,), theta, (
        _segment(n, np.pi / 2, (1.0, "Z", j + 1, n)),
        _segment(n, np.pi / 2, (np.cos(theta), "Z", j + 1, n), (np.sin(theta), "X", 1, j + 1)),
    ))


def schedule_u2(n: int, j: int, theta: float) -> GateSchedule:
    """Four-segment schedule for the logical Z rotation on qubit j.

    Wraps the u1 pair between X_1 X_(j+1) segments of areas -pi/4 and
    +pi/4; the sign of the first area sets the rotation direction.
    """
    return GateSchedule("u2", n, (j,), theta, (
        _segment(n, -np.pi / 4, (1.0, "X", 1, j + 1)),
        *schedule_u1(n, j, theta).segments,
        _segment(n, np.pi / 4, (1.0, "X", 1, j + 1)),
    ))


def schedule_u3(n: int, k: int, l: int, phi: float) -> GateSchedule:
    """Two-segment schedule for the entangling rotation exp(i phi Y_k Z_l)."""
    return GateSchedule("u3", n, (k, l), phi, (
        _segment(n, np.pi / 2, (np.cos(phi), "X", 1, k + 1), (-np.sin(phi), "Z", k + 1, l + 1)),
        _segment(n, np.pi / 2, (1.0, "X", 1, k + 1)),
    ))


def _compile(schedule: GateSchedule) -> tuple[np.ndarray, list[tuple[int, ...]], np.ndarray]:
    """(areas, strings, coefs): the segment areas, shape (S,); the letters of
    the T distinct terms, ascending; and their (S, T) coefficients, 0 where
    a segment lacks one. The one reader of the segments' terms, for the
    certifier (`_boundary_chain`) and the sweep (`noise._factor_slices`)."""
    segments = [{s.letters: c for c, s in seg.hamiltonian.terms} for seg in schedule.segments]
    strings = sorted(set().union(*segments))
    coefs = np.array([[terms.get(s, 0) for s in strings] for terms in segments], dtype=complex)
    return np.array([seg.area for seg in schedule.segments], dtype=float), strings, coefs


def _boundary_chain(schedule: GateSchedule) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], list]:
    """(hs, chain, Q, leaks) of verify_holonomy: H_L,s on the logical support
    Q, shape (S, d, d); the boundary propagators M_0 = I, ..., M_S, from one
    stacked exponential; and each segment's eps_s and count of compiled
    strings outside the commutant. Each compiled string is mapped once
    (dfs._image), and strings with one image merge in one product; an image
    that is 0 in every segment adds no qubit to Q."""
    n_logical = schedule.n_physical - 2
    areas, strings, coefs = _compile(schedule)
    images = [_image(*_masks(letters), n_logical + 2) for letters in strings]
    logical = sorted({image.letters for image in images if image})
    phases = np.zeros((len(strings), len(logical)), dtype=np.complex128)
    for row, image in zip(phases, images):
        if image:
            row[logical.index(image.letters)] = image.phase_value
    merged = coefs @ phases
    kept = merged.any(axis=0)
    acts = [letters for letters, k in zip(logical, kept) if k]
    support = tuple(q for q in range(1, n_logical + 1)
                    if q in schedule.target or any(letters[q - 1] for letters in acts))
    masks = [_masks([letters[q - 1] for q in support]) for letters in acts]
    hs = _pauli_sums(merged[:, kept], masks, len(support))
    # One area per matrix, as the scale of the stack: scaling h instead
    # would round the eigenvalues differently.
    chain = [np.eye(2 ** len(support), dtype=np.complex128)]
    for u in _expm_hermitian(hs, areas[:, None]):
        chain.append(u @ chain[-1])
    # Each segment's eps_s, summed in term order, and its count of such terms.
    leaks = np.abs(coefs[:, [not image for image in images]]).tolist()
    return hs, np.stack(chain), support, [(sum(row), np.count_nonzero(row)) for row in leaks]


def _embed(m: np.ndarray, support: tuple[int, ...], n_logical: int) -> np.ndarray:
    """m on the ascending 1-indexed support of n_logical qubits, the identity
    on the rest: one Kronecker product, its tensor axes permuted."""
    rest = [q for q in range(1, n_logical + 1) if q not in support]
    order = np.argsort([*support, *rest])
    full = np.kron(m, np.eye(2 ** len(rest))).reshape((2,) * 2 * n_logical)
    return full.transpose([*order, *(order + n_logical)]).reshape(2**n_logical, -1)


def logical_gate(schedule: GateSchedule) -> np.ndarray:
    """The gate M of verify_holonomy as M (x) I on all N-2 logical qubits.

    Raises
    ------
    LeakageError
        If the leakage bound of verify_holonomy exceeds ATOL_STRUCT, i.e.
        the evolution may have moved population out of the code space.
    """
    report = verify_holonomy(schedule)
    if report.leakage > ATOL_STRUCT:
        raise LeakageError(f"code-space leakage {report.leakage:.3e} exceeds {ATOL_STRUCT:.1e}")
    return _embed(report.support_gate, report.support, schedule.n_physical - 2)


def leakage_of(block: np.ndarray) -> float:
    """Deviation of a restricted propagator from unitarity, ||M†M - I||."""
    return spectral_norm(block.conj().T @ block - np.eye(block.shape[0]))


def analytic_target(schedule: GateSchedule, support: tuple[int, ...] | None = None) -> np.ndarray:
    """Closed-form logical gate the schedule should match up to global phase.

    cos(theta) I - i sin(theta) P as a Pauli sum on the N-2 logical qubits,
    or on the ascending `support` that holds the target, with P = Y_j (u1),
    Z_j (u2) or -Y_k Z_l (u3): no matrix exponential, so it is an
    independent reference for the evolved gate.
    """
    letters = {"u1": "Y", "u2": "Z", "u3": "YZ"}[schedule.kind]
    support = support or tuple(range(1, schedule.n_physical - 1))
    n, theta = len(support), schedule.angle
    sites = {support.index(q) + 1: c for q, c in zip(schedule.target, letters)}
    p = PauliString.from_sites(n, sites, phase=2 if schedule.kind == "u3" else 0)
    return PauliSum.from_terms(
        n, [(np.cos(theta), PauliString.identity(n)), (-1j * np.sin(theta), p)]
    ).to_matrix()


# ---------------------------------------------------------------------------
# Holonomy certification


def _transported_frame(schedule: GateSchedule, support: tuple) -> tuple[np.ndarray, int]:
    """The parallel-transported frame on the logical support, ascending
    qubits that hold the target, as the columns of one orthonormal matrix
    F, and the size k of its groups, which fill consecutive columns.

    F is barred_transform on the target slots, numbered within the
    support, with the slot axes of its column index moved last:

    u1: barred states on the target, computational elsewhere; one group
        per state.
    u2: the logical computational basis (no slots); one group per state.
    u3: barred states on both targets; the two states sharing the first
        target's bar form one two-dimensional group. Consecutive groups
        (paired over the first bar) are the subspaces that swap at the
        segment boundary.

    F depends only on the slots and the support size, so it is built once
    per pair of them and shared, read-only.
    """
    slots = {"u1": schedule.target, "u2": (), "u3": schedule.target}[schedule.kind]
    slots = tuple(support.index(q) + 1 for q in slots)
    return _slot_frame(slots, len(support)), 2 if schedule.kind == "u3" else 1


@functools.cache
def _slot_frame(slots: tuple[int, ...], n: int) -> np.ndarray:
    """F of _transported_frame on n support qubits with barred target slots,
    read-only. A support holds at most MAX_QUBITS - 2 qubits, so the keys
    are few."""
    frame = barred_transform(n, slots).reshape(-1, *(2,) * n)
    frame = np.moveaxis(frame, slots, range(-len(slots), 0)).reshape(2**n, -1)
    frame = _orthonormal_frame(frame.T)
    frame.setflags(write=False)
    return frame


def _by_group(x: np.ndarray, k: int) -> np.ndarray:
    """A d x r frame, or a stack of them (..., d, r), as the stack of its
    r/k consecutive d x k group frames, shape (..., r/k, d, k)."""
    return x.reshape(*x.shape[:-1], -1, k).swapaxes(-3, -2)


def _principal_sines(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sine of the largest principal angle between the spans of q[i] and
    v[i], stacks of orthonormal d x k frames: ||q - v (v† q)||_2, which
    equals the projector distance ||q q† - v v†||_2 for equal ranks. The
    largest singular value is the first of svd's descending ones, what
    np.linalg.norm(x, 2) computes."""
    x = q - v @ (v.conj().swapaxes(-1, -2) @ q)
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def verify_holonomy(schedule: GateSchedule) -> HolonomyReport:
    """Evolve the schedule on its logical support and certify the
    cyclic-frame and no-dynamical-phase conditions numerically.

    Logical support. With B the logical basis of schedule.n_physical
    qubits as columns and P = B B†, each segment Hamiltonian H_s enters
    only as its block B† H_s B = logical_image(H_s) = H_L,s (x) I, H_L,s on
    the support Q (dimension 2 for u1/u2, 4 for u3, at any N). The S
    blocks are exponentiated together, U_s = exp(-i a_s H_L,s), in one
    stacked eigendecomposition; B is never built. The chain M_0 = I, M_s = U_s M_(s-1) gives the logical gate M = M_S on Q
    (logical_gate embeds it as M (x) I on all N-2 logical qubits) and the
    frame M_s F at each segment boundary. The block's frame is F (x) I, so
    the checks below, made on Q, are exact for M (x) I.

    Frames. The frame F of _transported_frame, the barred states on the
    target slots in code-space coordinates, is moved as G = u(t) F. F is
    built once per target slots within Q and size of Q, and shared.
    cyclic_defect is the largest sine of the principal angle between each
    transported subspace after the full period and its initial span,
    from the residual ||G - F (F† G)||_2 (Bjorck & Golub,
    Math. Comp. 27 (1973)), which keeps full relative accuracy at small
    angles; the cosine route sqrt(1 - sigma_min(F† G)**2) floors at the
    square root of the rounding unit, 1.5e-8, above the 1e-9 bound. The
    groups together span the support block, so the closure of the full
    frame is the invariance of the code space, which leakage bounds.

    The transport violation is the largest Hamiltonian matrix element
    inside any transported subspace: the group-diagonal k x k blocks of
    G†(H_L,s G), batched over the groups, segments and ends, with G the
    boundary frame M_(s-1) F or M_s F at either end of segment s. Within the segment
    G(t) = exp(-i t H_L,s) G(0), and that propagator commutes with H_L,s,
    so G(t)† H_L,s G(t) = G(0)† H_L,s G(0) at every time of the segment
    and its two ends stand for all of it. For u3, subspace_swap is the
    largest principal-angle sine between each barred pair subspace after
    the first segment, M_1 F, and its partner's initial span, in both
    directions; it is None for the other kinds. One stacked SVD gives the
    sines of the cyclic and the swap pairs.

    Leakage. The reported leakage is max(||M†M - I||, (sum_s |a_s| eps_s)**2),
    with eps_s the sum of |c| over the terms of h_leak,s in the split
    H_s = h_c,s + h_leak,s of commutant_split: a rigorous upper bound on the
    leakage ||M_true†M_true - I|| = ||(I - P) U P||**2 of the true
    restriction M_true = B† U B of the full (unitary) propagator U. The
    terms of h_c,s commute with X...X and Z...Z, hence with P, and every
    Pauli string has norm 1, so the part E_s of H_s off the diagonal blocks
    of P has ||E_s|| <= eps_s. With D_s = H_s - E_s, Duhamel's formula gives
    ||exp(-i a_s H_s) - exp(-i a_s D_s)|| <= |a_s| eps_s, and telescoping
    over the segments bounds ||U - U_D|| by sum_s |a_s| eps_s, where U_D,
    the product of the block-diagonal exponentials, has (I - P) U_D P = 0.
    Hence ||(I - P) U P|| = ||(I - P)(U - U_D) P|| <= sum_s |a_s| eps_s,
    with no matrix beyond the block; a commutant schedule has eps_s = 0
    exactly. A schedule that leaves the code space therefore still reports
    its leakage, and M is the exact logical gate of one that does not.
    """
    hs, chain, support, leaks = _boundary_chain(schedule)
    frame, k = _transported_frame(schedule, support)
    frames = chain @ frame

    # Each segment's frames at its two ends, (2, S, d, r), and their
    # group-diagonal blocks of H_L,s in one product.
    ends = np.stack([frames[:-1], frames[1:]])
    blocks = _by_group(ends, k).conj().swapaxes(-1, -2) @ _by_group(hs @ ends, k)
    worst = float(np.abs(blocks).max())

    # The cyclic pairs (M_S F, F), and for u3 the swap pairs (M_1 F, F with
    # consecutive groups exchanged): those trade places mid-sequence.
    start = _by_group(frame, k)
    q, v = _by_group(frames[-1], k), start
    if schedule.kind == "u3":
        partner = np.arange(len(start)) ^ 1
        q, v = np.concatenate([q, _by_group(frames[1], k)]), np.concatenate([v, start[partner]])
    sines = _principal_sines(q, v)
    swap = float(sines[len(start):].max()) if schedule.kind == "u3" else None
    leak_weights, leaking_terms = zip(*leaks)
    drift = sum(abs(segment.area) * eps for segment, eps in zip(schedule.segments, leak_weights))
    return HolonomyReport(
        cyclic_defect=float(sines[: len(start)].max()),
        max_parallel_transport_violation=worst,
        leakage=max(leakage_of(chain[-1]), drift**2),
        subspace_swap=swap,
        support=support,
        support_gate=chain[-1],
        leak_weights=leak_weights,
        leaking_terms=leaking_terms,
    )


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
    pairs = [pair] if pair is not None else [(i, i + 1) for i in range(1, n)]
    terms = [(jz_field, {i: "Z"}) for i in range(1, n + 1) if jz_field != 0]
    terms += [(j, {a: p, b: p}) for a, b in pairs
              for j, p in ((jx, "X"), (jy, "Y"), (jz, "Z")) if j != 0]
    return PauliSum.from_terms(n, ((c, PauliString.from_sites(n, sites)) for c, sites in terms))


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


def _field(data, key: str, types: tuple[type, ...], what: str, where: str = "schedule"):
    """data[key] if data is a JSON object and the value is of one of types (a
    bool is no number), numbers within double range, else a DfsGatesError."""
    value = data.get(key) if type(data) is dict else None
    if type(value) not in types or (float in types and not abs(value) <= sys.float_info.max):
        raise DfsGatesError(f"{where} field {key!r} must be {what}, got {value!r}")
    return value


def schedule_from_json(text: str) -> GateSchedule:
    """Parse and validate a schedule written by schedule_to_json.

    Raises
    ------
    DfsGatesError
        Text that is not a JSON object; a missing or mistyped field, named
        in the message; an empty segment list; an unknown kind; a non-finite angle or area; a
        Hamiltonian that does not parse, is written on another qubit count
        (LengthMismatchError), has a complex or non-finite coefficient, or
        has a term that anticommutes with X...X or Z...Z (it would leave
        the code space, where the gate layer evolves). Subclasses name a
        refused n_physical (odd, below 4, above MAX_QUBITS) or target.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DfsGatesError(f"schedule is not valid JSON: {exc}") from exc
    kind = _field(data, "kind", (str,), "a string")
    n = _field(data, "n_physical", (int,), "an integer")
    target = tuple(_field(data, "target", (list,), "a list of integers"))
    angle = _field(data, "angle", (int, float), "a finite number")
    specs = _field(data, "segments", (list,), "a non-empty list of segments")
    # GateSchedule checks the rest of the structure. n alone is checked
    # first: the Hamiltonians are parsed on n qubits, and a refused n is to
    # be named as such, not as a length mismatch with their strings.
    _check_code_size(n)
    segments = []
    for index, seg in enumerate(specs):
        where = f"segment {index}"
        spec = _field(seg, "hamiltonian", (str,), "a Pauli-sum string", where)
        area = _field(seg, "area", (int, float), "a finite number", where)
        try:
            h = PauliSum.from_text(n, spec)
        except LengthMismatchError:
            raise
        except ValueError as exc:
            raise DfsGatesError(f"{where} hamiltonian {spec!r} does not parse") from exc
        if not all(c.imag == 0 and math.isfinite(c.real) for c, _ in h.terms):
            raise DfsGatesError(f"{where} hamiltonian {spec!r} needs real, finite coefficients")
        leaking = commutant_split(h)[1]
        if leaking.terms:
            raise DfsGatesError(f"{where} term {leaking.terms[0][1].label} anticommutes with "
                                "X...X or Z...Z and would leave the code space")
        segments.append(ScheduleSegment(h, area))
    return GateSchedule(kind, n, target, angle, tuple(segments))
