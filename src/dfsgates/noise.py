"""Dynamical-decoupling cycles, imperfect pulses, baths, and gate fidelities.

The decoupling sequence is XY-4: free (or computational) evolution sliced
into four equal intervals with a global pi pulse after each slice, axes
ordered X, Y, X, Y. One function builds that cycle from a slice
propagator; `dd_cycle` applies it to idle evolution, and `interleave` and
`error_sweep` raise it to the number of cycles per gate segment. With ideal pulses
the cycle is the decoupling-group conjugation product of Viola, Knill &
Lloyd, PRL 82, 2417 (1999). Two pulse imperfections are modelled, both
relative:

    flip-angle error eps:  rotation angle (1 + eps) * pi
    detuning error delta:  axis tilted out of the transverse plane by
                           delta and angle stretched to pi * sqrt(1 + delta**2)

The same flip error is applied to every qubit and pulse (a shared drive,
which is also the worst case for coherent accumulation).

Baths realize the linear system-bath coupling sum_i,a b_i^a sigma_i^a (x) B_i^a
either with scalar B (random static fields, the default; cheap and makes
decoupling-order fits clean) or with one bath qubit per system qubit
coupled through tau_x (N = 4 only, dimension 256).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import BadPartitionError, DimensionMismatchError, DimensionTooLargeError
from .gates import GateSchedule
from .linalg import (
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expm_hermitian,
    phase_invariant_fidelity,
)
from .pauli import PauliString, PauliSum, build_decoupling_group, group_average

_AXES = ("x", "y", "z")

# Largest number of XY-4 cycles per gate segment. The segment propagator is
# the cycle raised to this power by repeated squaring, and its departure
# from unitarity grows in proportion to the power: ~1e-10 at this bound on
# 256 dimensions; far beyond it the entries overflow and fidelities are nan.
MAX_CYCLES_PER_SEGMENT = 10_000


@dataclass(frozen=True)
class DDErrorModel:
    """Per-pulse imperfection parameters; zero errors reproduce ideal pulses."""

    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and math.isfinite(self.delta)):
            raise ValueError(
                f"pulse errors must be finite, got epsilon={self.epsilon!r}, "
                f"delta={self.delta!r}"
            )

    @property
    def is_ideal(self) -> bool:
        return self.epsilon == 0.0 and self.delta == 0.0


IDEAL_PULSES = DDErrorModel()


@dataclass(frozen=True)
class InterleavingPlan:
    """How densely XY-4 cycles are packed into each schedule segment."""

    cycles_per_segment: int = 4

    def __post_init__(self):
        if not 1 <= self.cycles_per_segment <= MAX_CYCLES_PER_SEGMENT:
            raise ValueError(
                f"cycles per segment must be in 1..{MAX_CYCLES_PER_SEGMENT}, "
                f"got {self.cycles_per_segment!r}"
            )


@dataclass(frozen=True, eq=False)
class BathModel:
    """System-bath coupling strengths b[i, a] per qubit i and axis a=(x,y,z).

    kind "scalar" treats the bath operators as static classical fields on
    the system space; kind "qubit" couples system qubit i to its own bath
    qubit through tau_x on a doubled register (system qubits first).
    """

    kind: str  # "scalar" | "qubit"
    n_system: int
    couplings: np.ndarray = field(repr=False)  # shape (n_system, 3), real

    def __post_init__(self):
        if not np.isfinite(self.couplings).all():
            raise ValueError("bath couplings must be finite")

    @classmethod
    def zero(cls, n: int, kind: str = "scalar") -> "BathModel":
        return cls(kind, n, np.zeros((n, 3)))

    @classmethod
    def random(cls, n: int, width: float, seed: int, kind: str = "scalar") -> "BathModel":
        if not (math.isfinite(width) and width >= 0):
            raise ValueError(f"width must be finite and >= 0, got {width!r}")
        rng = np.random.default_rng(seed)
        return cls(kind, n, rng.uniform(-width, width, size=(n, 3)))

    @property
    def total_qubits(self) -> int:
        return self.n_system if self.kind == "scalar" else 2 * self.n_system

    @property
    def dim(self) -> int:
        return 2**self.total_qubits

    def hamiltonian_sum(self) -> PauliSum:
        """The coupling as a symbolic Pauli sum on the model's full register."""
        n_total = self.total_qubits
        terms = []
        for i in range(self.n_system):
            for a, axis in enumerate(_AXES):
                if self.couplings[i, a] == 0:
                    continue
                sites = {i + 1: axis.upper()}
                if self.kind == "qubit":
                    sites[self.n_system + i + 1] = "X"
                terms.append(
                    (self.couplings[i, a], PauliString.from_sites(n_total, sites))
                )
        return PauliSum.from_terms(n_total, terms)

    def hamiltonian_matrix(self) -> np.ndarray:
        if self.total_qubits > 8:
            raise DimensionTooLargeError("bath register exceeds 2**8")
        return self.hamiltonian_sum().to_matrix()

    def is_zero(self) -> bool:
        return not self.couplings.any()


def single_qubit_pulse(axis: str, errors: DDErrorModel = IDEAL_PULSES) -> np.ndarray:
    """One imperfect rotation about the x or y axis.

    The detuning tilts the rotation axis to
    (cos az, sin az, delta) / sqrt(1 + delta**2) with azimuth az = 0 (x) or
    pi/2 (y), and the flip error rescales the rotation angle; both reduce
    to the nominal pi rotation at zero error.
    """
    azimuth = {"x": 0.0, "y": math.pi / 2}[axis]
    delta = errors.delta
    norm = math.sqrt(1 + delta**2)
    direction = (
        math.cos(azimuth) * SIGMA_X + math.sin(azimuth) * SIGMA_Y + delta * SIGMA_Z
    ) / norm
    angle = (1 + errors.epsilon) * math.pi * norm
    return math.cos(angle / 2) * SIGMA_I - 1j * math.sin(angle / 2) * direction


def _pulse_times(p: np.ndarray, n_system: int, m: np.ndarray) -> np.ndarray:
    """(p (x) ... (x) p (x) I) @ m, with p on each of the first n_system qubits.

    Each factor is one local 2x2 product on the reshaped row index of m, so
    the global pulse is never built as a dense matrix; qubits past
    n_system (a bath register) are left alone.
    """
    for k in range(n_system):
        m = (p @ m.reshape(2**k, 2, -1)).reshape(m.shape)
    return m


def _xy4_cycle(f: np.ndarray, n_system: int, errors: DDErrorModel) -> np.ndarray:
    """P_y F P_x F P_y F P_x F for the slice propagator f.

    Each of the two pulses acts on the first n_system qubits of f's
    register and is applied to f once.
    """
    x_f = _pulse_times(single_qubit_pulse("x", errors), n_system, f)
    y_f = _pulse_times(single_qubit_pulse("y", errors), n_system, f)
    return y_f @ (x_f @ (y_f @ x_f))


def dd_cycle(
    free_h: np.ndarray,
    dt: float,
    errors: DDErrorModel = IDEAL_PULSES,
    n_system: int | None = None,
) -> np.ndarray:
    """One XY-4 cycle: P_y F P_x F P_y F P_x F with F = exp(-i free_h dt).

    With ideal pulses this equals the decoupling-group conjugation product
    up to a global phase, so the first-order average Hamiltonian over the
    cycle is the commutant projection of free_h. Pulses act on the first
    n_system qubits (default: the whole register).
    """
    free_h = np.asarray(free_h, dtype=np.complex128)
    if n_system is None:
        n_system = free_h.shape[0].bit_length() - 1
    return _xy4_cycle(expm_hermitian(free_h, dt), n_system, errors)


def _segment_slices(
    schedule: GateSchedule, bath: BathModel, plan: InterleavingPlan
) -> list[np.ndarray]:
    """Slice propagator exp(-i (area_s H_s + H_bath) / (4c)) of each segment s.

    These do not depend on the pulse errors, so a sweep builds them once.
    """
    if bath.n_system != schedule.n_physical:
        raise DimensionMismatchError(
            f"bath on {bath.n_system} system qubits, schedule on {schedule.n_physical}"
        )
    bath_h = bath.hamiltonian_matrix()
    scale = 1.0 / (4 * plan.cycles_per_segment)
    return [
        expm_hermitian(
            segment.area * segment.hamiltonian.embedded(bath.total_qubits).to_matrix() + bath_h,
            scale,
        )
        for segment in schedule.segments
    ]


def _decoupled_propagator(
    slices: list[np.ndarray], bath: BathModel, plan: InterleavingPlan, errors: DDErrorModel
) -> np.ndarray:
    """Product over segments of one XY-4 cycle of the segment's slice,
    raised to cycles_per_segment."""
    u = np.eye(bath.dim, dtype=np.complex128)
    for f in slices:
        cycle = _xy4_cycle(f, bath.n_system, errors)
        u = np.linalg.matrix_power(cycle, plan.cycles_per_segment) @ u
    return u


def interleave(
    schedule: GateSchedule,
    bath: BathModel,
    plan: InterleavingPlan = InterleavingPlan(),
    errors: DDErrorModel = IDEAL_PULSES,
) -> np.ndarray:
    """Propagator of the schedule with XY-4 decoupling threaded through it.

    Each segment occupies unit time and runs c = cycles_per_segment XY-4
    cycles. A cycle's slice lasts 1/(4c) and evolves under the segment
    Hamiltonian (scaled so the full segment accumulates its pulse area)
    plus the bath coupling, exactly exponentiated together; the segment
    propagator is that one cycle raised to the c-th power. With zero bath
    and ideal pulses the result equals the bare schedule propagator up to
    a global phase, because every gate Hamiltonian commutes with the pulse
    strings.
    """
    return _decoupled_propagator(_segment_slices(schedule, bath, plan), bath, plan, errors)


def reduced_system_propagator(u: np.ndarray, bath: BathModel) -> np.ndarray:
    """Restriction <0...0|_bath U |0...0>_bath; the identity for scalar baths."""
    if bath.kind == "scalar":
        return u
    stride = 2**bath.n_system
    return u[::stride, ::stride]


def error_sweep(
    schedule: GateSchedule,
    plan: InterleavingPlan,
    bath: BathModel,
    grids: Mapping[str, Iterable[float]],
) -> list[tuple[str, float, float]]:
    """Fidelity versus error strength for each error kind in grids.

    grids maps an error kind ("flip" | "detuning") to the error values to
    sweep; rows come out as (kind, value, fidelity) in the mapping's order.
    Each fidelity is the trace overlap between the decoupled propagators
    with imperfect and with ideal pulses, on the full register
    (bath-reduced when a bath-qubit model is used). The segment slice
    propagators and the ideal reference are computed once per call and
    shared by every kind and value; the reference is reused at zero error.
    """
    for kind in grids:
        if kind not in ("flip", "detuning"):
            raise ValueError(f"unknown error kind {kind!r}")
    slices = _segment_slices(schedule, bath, plan)

    def reduced(errors: DDErrorModel) -> np.ndarray:
        return reduced_system_propagator(_decoupled_propagator(slices, bath, plan, errors), bath)

    reference = reduced(IDEAL_PULSES)
    rows = []
    for kind, values in grids.items():
        for value in values:
            value = float(value)
            errors = DDErrorModel(epsilon=value) if kind == "flip" else DDErrorModel(delta=value)
            noisy = reference if errors.is_ideal else reduced(errors)
            rows.append((kind, value, phase_invariant_fidelity(reference, noisy)))
    return rows


SWEEP_CSV_HEADER = "error_kind,error_value,fidelity,seed,plan_cycles,gate,theta_or_phi"


def sweep_csv_lines(rows, seed: int, plan: InterleavingPlan, schedule: GateSchedule) -> list[str]:
    """CSV lines for sweep rows, sorted by (error_kind, error_value)."""
    lines = [SWEEP_CSV_HEADER]
    for kind, value, fid in sorted(rows, key=lambda r: (r[0], r[1])):
        lines.append(
            f"{kind},{value:.6g},{fid:.12f},{seed},{plan.cycles_per_segment},"
            f"{schedule.kind},{schedule.angle:.12g}"
        )
    return lines


def decoupling_order_probe(
    bath: BathModel, dt_values, total_time: float
) -> list[tuple[float, float]]:
    """Residual error of ideally-pulsed DD versus pulse spacing.

    For each dt, runs total_time / (4 dt) whole XY-4 cycles over the idle
    bath coupling and reports 1 minus the fidelity of the (reduced)
    propagator to the identity. First-order decoupling leaves a residual
    generator of order dt, so the error falls off close to dt**2.

    Raises
    ------
    BadPartitionError
        If some dt does not divide total_time into whole cycles.
    """
    h = bath.hamiltonian_matrix()
    eye = np.eye(2**bath.n_system)
    out = []
    for dt in dt_values:
        cycles = total_time / (4 * dt)
        if abs(cycles - round(cycles)) > 1e-9:
            raise BadPartitionError(f"dt={dt} does not divide total_time={total_time}")
        u = np.linalg.matrix_power(
            dd_cycle(h, dt, n_system=bath.n_system), int(round(cycles))
        )
        err = 1 - phase_invariant_fidelity(reduced_system_propagator(u, bath), eye)
        out.append((float(dt), float(err)))
    return out


def bare_evolution_error(bath: BathModel, total_time: float) -> float:
    """1 - fidelity to identity of the undecoupled bath evolution."""
    u = expm_hermitian(bath.hamiltonian_matrix(), total_time)
    return 1 - phase_invariant_fidelity(
        reduced_system_propagator(u, bath), np.eye(2**bath.n_system)
    )


def fit_error_order(points, floor: float = 1e-13) -> float:
    """Log-log slope of error versus dt, ignoring points at numerical floor."""
    pts = [(dt, err) for dt, err in points if err > floor]
    if len(pts) < 2:
        return float("nan")
    log_dt = np.log([p[0] for p in pts])
    log_err = np.log([p[1] for p in pts])
    return float(np.polyfit(log_dt, log_err, 1)[0])


def symbolic_bath_average(bath: BathModel) -> PauliSum:
    """Group average of the bath coupling; exactly zero for both bath kinds."""
    group = build_decoupling_group(bath.n_system)
    if bath.kind == "qubit":
        group = group.embedded(bath.total_qubits)
    return group_average(bath.hamiltonian_sum(), group)
