"""Dynamical-decoupling cycles, imperfect pulses, baths, and gate fidelities.

The decoupling sequence is XY-4: free (or computational) evolution sliced
into four equal intervals with a global pi pulse after each slice, axes
ordered X, Y, X, Y. With ideal pulses the cycle is the decoupling-group
conjugation product of Viola, Knill & Lloyd, PRL 82, 2417 (1999).
No code path forms the full register. Every coupling term acts on one
system qubit, every segment term on at most three qubits, and every pulse
is a tensor power of one 2x2 rotation; so each propagator is a tensor
product over register factors, and so are its bath reduction and its
trace overlap. Every system qubit that no gate term acts on is a factor of
its own: one stack of these per-qubit factors (see
`BathModel.factor_hamiltonians`) carries the idle evolution for both
`error_sweep` and `decoupling_order_probe` / `bare_evolution_error`.
`error_sweep` threads c cycles through each gate segment, on the active
factor (the system qubits the gate acts on) and on that idle stack;
`dd_cycle` builds one cycle of idle evolution, with the ideal pulses
built once at import. The fidelity takes one reduction per stack of
equal-sized factors, whatever its length (`linalg._product_fidelities`):
a sweep reduces the active factor and the idle stack as two stacks, and
the decoupling probe reduces the powers of all its rungs, stacked on one
more leading axis, in one call. A sweep's grid of pulse
errors is one more leading axis of every stack, with the ideal pulses as
entry 0: the pulses, the cycles, the product over segments and the
overlap of each entry with entry 0 take a fixed number of numpy calls per
chunk of at most MAX_GRID_ENTRIES stacked entries, whatever the number of
rows. Two pulse imperfections are modelled, both relative:

    flip-angle error eps:  rotation angle (1 + eps) * pi
    detuning error delta:  axis tilted out of the transverse plane by
                           delta and angle stretched to pi * sqrt(1 + delta**2)

The same flip error is applied to every qubit and pulse (a shared drive,
which is also the worst case for coherent accumulation).

Baths realize the linear system-bath coupling sum_i,a b_i^a sigma_i^a (x) B_i^a
either with scalar B (random static fields, the default; cheap and makes
decoupling-order fits clean) or with one bath qubit per system qubit
coupled through tau_x. Nothing else acts on a bath qubit, and the gate
terms and pulses act on system qubits only, so each tau_x^(i) commutes
with the whole evolution. Over the tau_x eigenbasis |s> of the bath
qubits, s in {+1, -1}^m, the propagator is

    U = sum_s U(s) (x) |s><s|,    <0|_bath U |0>_bath = 2^-m sum_s U(s),

where U(s) is the propagator of the system qubits alone under the scalar
fields s_i b_i. So every factor is a stack over sign patterns on its
leading axis (after the grid axis in a sweep), 2^m patterns of its m
system qubits for a bath-qubit model and the one pattern of a scalar bath,
and the bath reduction is the mean over that axis. The doubled register
is never formed.
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
    _product_fidelities,
    expm_hermitian,
)
from .pauli import PauliString, PauliSum, build_decoupling_group, group_average

_AXES = ("x", "y", "z")

# Largest number of XY-4 cycles per gate segment. The segment propagator on
# each register factor is the half cycle D raised to twice this power by
# repeated squaring, and its departure from unitarity grows in proportion
# to the power: max |U U† - I| up to 2.1e-10 at this bound on factors of 2
# to 256 dimensions (u1/u2/u3 at N = 4 and 8, scalar and qubit baths, ideal,
# flip 0.1 and detuning -0.1 pulses); far beyond it the entries overflow
# and fidelities are nan.
MAX_CYCLES_PER_SEGMENT = 10_000

# Most system qubits a schedule may act on under a bath-qubit model. Its
# active factor stacks 2^m sign patterns of 2^m x 2^m slices, 8^m entries
# per segment: 2^18, 4 MiB, at this bound.
MAX_SIGN_QUBITS = 6

# Most complex entries one chunk of a sweep's grid stacks: a grid entry holds
# the active factor's (patterns, segments, d, d) slice stack and the idle
# factors' (patterns, n_idle, 2, 2), 2048 entries for u2 at N = 4 under a
# bath-qubit model. 2^16 entries is 1 MiB; the half cycle, its powers and
# the product over segments hold a few such stacks at a time. A grid entry
# larger than the budget runs alone.
MAX_GRID_ENTRIES = 2**16


@dataclass(frozen=True)
class DDErrorModel:
    """Per-pulse imperfection parameters; zero errors reproduce ideal pulses.
    The rotation angle (1 + epsilon) * pi * sqrt(1 + delta**2) must be finite."""

    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        # delta * delta, not delta**2, which raises OverflowError on a float.
        if not math.isfinite((1 + self.epsilon) * math.pi * math.sqrt(1 + self.delta * self.delta)):
            raise ValueError(
                f"pulse errors must be finite and give a finite rotation angle, "
                f"got epsilon={self.epsilon!r}, delta={self.delta!r}"
            )


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
    qubit through tau_x on a doubled register (system qubits first). The
    engine evaluates a bath-qubit model as the scalar fields s_i b[i] for
    each sign s_i = +-1 of the conserved tau_x^(i), never on the doubled
    register (see the module docstring).
    """

    kind: str  # "scalar" | "qubit"
    n_system: int
    couplings: np.ndarray = field(repr=False)  # shape (n_system, 3), real

    def __post_init__(self):
        if self.kind not in ("scalar", "qubit"):
            raise ValueError(f"bath kind must be 'scalar' or 'qubit', got {self.kind!r}")
        if np.shape(self.couplings) != (self.n_system, 3):
            raise ValueError(f"bath couplings must have shape ({self.n_system}, 3), "
                             f"got {np.shape(self.couplings)}")
        if not np.isfinite(self.couplings).all():
            raise ValueError("bath couplings must be finite")

    @classmethod
    def zero(cls, n: int) -> "BathModel":
        return cls("scalar", n, np.zeros((n, 3)))

    @classmethod
    def random(cls, n: int, width: float, seed: int, kind: str = "scalar") -> "BathModel":
        if not (math.isfinite(width) and width >= 0):
            raise ValueError(f"width must be finite and >= 0, got {width!r}")
        rng = np.random.default_rng(seed)
        return cls(kind, n, rng.uniform(-width, width, size=(n, 3)))

    @property
    def total_qubits(self) -> int:
        return self.n_system if self.kind == "scalar" else 2 * self.n_system

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

    def factor_hamiltonians(self) -> np.ndarray:
        """The scalar coupling sum_a b[i, a] sigma^a of each system qubit i,
        as a stack of shape (n_system, 2, 2). For a bath-qubit model the
        coupling of qubit i is this times tau_x^(i), so it is this or its
        negative on each tau_x eigenvector of the bath qubit. The coupling
        on the whole register is the sum of these terms, each on its own
        qubits, so its propagator is the tensor product of theirs."""
        return np.einsum("ia,ajk->ijk", self.couplings, np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z]))


def single_qubit_pulse(axis: str, errors: DDErrorModel = IDEAL_PULSES) -> np.ndarray:
    """One imperfect rotation about the x or y axis.

    The detuning tilts the rotation axis to
    (cos az, sin az, delta) / sqrt(1 + delta**2) with azimuth az = 0 (x) or
    pi/2 (y), and the flip error rescales the rotation angle; both reduce
    to the nominal pi rotation at zero error.
    """
    return _pulse_stack(axis, [errors])[0]


def _pulse_stack(axis: str, errors) -> np.ndarray:
    """single_qubit_pulse of each of a sequence of error models, as one
    stack of shape (len(errors), 2, 2)."""
    azimuth = {"x": 0.0, "y": math.pi / 2}[axis]
    epsilon = np.array([e.epsilon for e in errors], dtype=float)[:, None, None]
    delta = np.array([e.delta for e in errors], dtype=float)[:, None, None]
    norm = np.sqrt(1 + delta**2)
    direction = (
        math.cos(azimuth) * SIGMA_X + math.sin(azimuth) * SIGMA_Y + delta * SIGMA_Z
    ) / norm
    angle = (1 + epsilon) * math.pi * norm
    return np.cos(angle / 2) * SIGMA_I - 1j * np.sin(angle / 2) * direction


# The ideal pi pulses of every `dd_cycle`, built once.
_IDEAL_X, _IDEAL_Y = (single_qubit_pulse(axis) for axis in "xy")


def _pulse_times(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(p (x) ... (x) p) @ m, with p on every qubit of m's d = 2^n rows.

    The Kronecker power P = p^(x)n is built once, by gathering: entry
    (i, j) is the product over qubits k of p[i_k, j_k], with i_k and j_k
    the bits of qubit k in i and j, so for one qubit P equals p. Then
    P @ m is one matrix product per stacked matrix. P is built per register factor, never on the register:
    at most 8 x 8 for u1/u2/u3 and 64 x 64 under MAX_SIGN_QUBITS. m may be
    a stack of matrices, shape (..., d, cols), and p a stack of pulses,
    shape (..., 2, 2); their leading axes broadcast, and each pulse
    multiplies its matrix alike; the result carries the broadcast leading
    axes even when d is 1 (no qubit, P = 1).
    """
    d = m.shape[-2]
    bits = (np.arange(d) >> np.arange(d.bit_length() - 2, -1, -1)[:, None]) & 1
    return p[..., bits[:, :, None], bits[:, None, :]].prod(axis=-3) @ m


def _half_cycle(f: np.ndarray, p_x: np.ndarray, p_y: np.ndarray) -> np.ndarray:
    """D = (P_y F)(P_x F) for the slice propagator f, or for each matrix of
    a stack of them; the XY-4 cycle P_y F P_x F P_y F P_x F is D @ D. The
    pulses p_x and p_y act on every qubit of f; they may be stacks whose
    leading axes broadcast against those of f."""
    return _pulse_times(p_y, f) @ _pulse_times(p_x, f)


def dd_cycle(free_h: np.ndarray, dt: float) -> np.ndarray:
    """One ideally pulsed XY-4 cycle: P_y F P_x F P_y F P_x F with
    F = exp(-i free_h dt) and the pulses on every qubit of free_h.

    This equals the decoupling-group conjugation product up to a global
    phase, so the first-order average Hamiltonian over the cycle is the
    commutant projection of free_h. free_h may be a stack of Hamiltonians,
    shape (..., d, d), one cycle each.
    """
    free_h = np.asarray(free_h, dtype=np.complex128)
    d = _half_cycle(expm_hermitian(free_h, dt), _IDEAL_X, _IDEAL_Y)
    return d @ d


def _qubit_patterns(h: np.ndarray, kind: str) -> np.ndarray:
    """The per-qubit couplings h, shape (n, 2, 2), stacked over the tau_x
    sign of each qubit's bath partner: h and -h, shape (2, n, 2, 2), for a
    bath-qubit model, and h alone, (1, n, 2, 2), for a scalar bath. Each
    qubit is a factor of its own, so its bath reduction is the mean over
    its own entries."""
    return np.stack([h, -h]) if kind == "qubit" else h[None]


def _sign_stack(h: np.ndarray, patterns: int) -> np.ndarray:
    """sum_k s_k h[k], with h[k] on qubit k + 1 of m, for the first
    `patterns` of the sign patterns s in {+1, -1}^m, in the order of
    itertools.product((1, -1), repeat=m): shape (patterns, 2^m, 2^m). Each
    h[k] is scattered in place, the last qubit first, as
    PauliSum.to_matrix adds the per-qubit terms of a sum."""
    m = len(h)
    cols = np.arange(2**m)
    signs = 1 - 2 * ((np.arange(patterns)[:, None] >> np.arange(m - 1, -1, -1)) & 1)
    out = np.zeros((patterns, 2**m, 2**m), dtype=np.complex128)
    for k in range(m - 1, -1, -1):
        bit, flip = (cols >> (m - 1 - k)) & 1, np.array([[0], [1]])
        out[:, cols ^ flip << (m - 1 - k), cols] += signs[:, k, None, None] * h[k][bit ^ flip, bit]
    return out


def _factor_slices(
    schedule: GateSchedule, bath: BathModel, plan: InterleavingPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Slice propagators exp(-i (area_s H_s + H_bath) / (4c)) of each segment
    s, as (slices, idle): the active factor's and the idle per-qubit factors'.

    The active factor holds every system qubit a segment term acts on, in
    ascending order, and the identity term of the segments, if any. Its bath
    term is the `_sign_stack` of their `BathModel.factor_hamiltonians`, every
    sign pattern for a bath-qubit model and the all-plus one for a scalar
    bath; one stacked exponential gives all slices, shape
    (patterns, segments, d, d). Every other system qubit is a factor of
    `BathModel.factor_hamiltonians`: no segment term acts on it, so its one
    slice, of the bath term alone, serves every segment. The idle slices
    come as one stack of `_qubit_patterns`, shape (patterns, n_idle, 2, 2),
    empty when the schedule acts on every system qubit. The slices do not
    depend on the pulse errors, so a sweep builds them once.

    Raises
    ------
    DimensionTooLargeError
        A bath-qubit model with more than MAX_SIGN_QUBITS active qubits.
    """
    if bath.n_system != schedule.n_physical:
        raise DimensionMismatchError(
            f"bath on {bath.n_system} system qubits, schedule on {schedule.n_physical}"
        )
    supports = (segment.hamiltonian.support() for segment in schedule.segments)
    system = tuple(sorted(frozenset().union(*supports)))
    if bath.kind == "qubit" and len(system) > MAX_SIGN_QUBITS:
        raise DimensionTooLargeError(
            f"a bath-qubit model on {len(system)} active system qubits exceeds "
            f"{MAX_SIGN_QUBITS}: 8^{len(system)} entries per segment"
        )
    couplings = bath.factor_hamiltonians()
    patterns = 2 ** len(system) if bath.kind == "qubit" else 1
    bath_h = _sign_stack(couplings[[q - 1 for q in system]], patterns)
    gate_h = [s.area * s.hamiltonian.restricted(system).to_matrix() for s in schedule.segments]
    scale = 1.0 / (4 * plan.cycles_per_segment)
    slices = expm_hermitian(np.stack(gate_h) + bath_h[:, None], scale)
    idle = [q for q in range(bath.n_system) if q + 1 not in system]
    return slices, expm_hermitian(_qubit_patterns(couplings[idle], bath.kind), scale)


def _grid_propagators(
    factors: tuple[np.ndarray, np.ndarray], plan: InterleavingPlan, errors
) -> tuple[np.ndarray, np.ndarray]:
    """Decoupled propagator of the schedule on the active factor and on
    each idle per-qubit factor, from the (slices, idle) of `_factor_slices`,
    for every sign pattern and for each of a sequence of B pulse error
    models: stacks of shape (B, patterns, d, d) and (B, patterns, n_idle, 2, 2).

    One segment runs c = cycles_per_segment XY-4 cycles, each the square
    of the half cycle D (see `_half_cycle`); so the active factor takes one
    batched product for D over its grid, pattern and segment stack, one
    stacked D^(2c), and the product over segments, earliest rightmost. The
    idle stack forms its D^(2c) once and applies it once per segment. The
    number of numpy calls does not depend on B.
    """
    slices, idle = factors
    p_x = _pulse_stack("x", errors)[:, None, None]
    p_y = _pulse_stack("y", errors)[:, None, None]
    power = 2 * plan.cycles_per_segment
    segments = np.linalg.matrix_power(_half_cycle(slices, p_x, p_y), power)
    idle_segment = np.linalg.matrix_power(_half_cycle(idle, p_x, p_y), power)
    u, v = segments[:, :, 0], idle_segment
    for s in range(1, segments.shape[2]):
        u = segments[:, :, s] @ u
        v = idle_segment @ v
    return u, v


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
    (bath-reduced when a bath-qubit model is used). Both propagators are
    evaluated as tensor products of the active factor and the idle
    per-qubit factors (see `_factor_slices`); the bath reduction, the mean
    over sign patterns, and the overlap factor the same way.

    The factor slices are built once per call. The distinct pulse error
    models of the grid are one leading grid axis of every stack, with the
    ideal pulses as entry 0, the reference of every row, so a zero error
    or a repeated value is evaluated once. The grid axis is cut into
    chunks of at most MAX_GRID_ENTRIES stacked entries; each chunk takes
    the same few numpy calls whatever its length, and no stack grows with
    the number of rows.
    """
    for kind in grids:
        if kind not in ("flip", "detuning"):
            raise ValueError(f"unknown error kind {kind!r}")
    points = []
    index = {IDEAL_PULSES: 0}
    for kind, values in grids.items():
        for value in values:
            value = float(value)
            errors = DDErrorModel(epsilon=value) if kind == "flip" else DDErrorModel(delta=value)
            points.append((kind, value, index.setdefault(errors, len(index))))
    models = list(index)
    factors = _factor_slices(schedule, bath, plan)
    chunk = max(1, MAX_GRID_ENTRIES // sum(f.size for f in factors))
    fidelities = []
    for start in range(0, len(models), chunk):
        u, v = _grid_propagators(factors, plan, models[start:start + chunk])
        noisy = [u.mean(axis=1)[:, None], v.mean(axis=1)]
        if start == 0:
            reference = [f[0] for f in noisy]
        fidelities.extend(_product_fidelities(reference, noisy).tolist())
    return [(kind, value, fidelities[i]) for kind, value, i in points]


SWEEP_CSV_HEADER = "error_kind,error_value,fidelity,seed,plan_cycles,gate,theta_or_phi"


def _csv_value(value: float) -> str:
    """An error value as the CSV prints it: 12 significant digits, -0 as 0."""
    return f"{value + 0.0:.12g}"


def sweep_csv_lines(rows, seed: int, plan: InterleavingPlan, schedule: GateSchedule) -> list[str]:
    """CSV lines for sweep rows, sorted by (error_kind, error_value)."""
    lines = [SWEEP_CSV_HEADER]
    for kind, value, fid in sorted(rows, key=lambda r: (r[0], r[1])):
        lines.append(
            f"{kind},{_csv_value(value)},{fid:.12f},{seed},{plan.cycles_per_segment},"
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
    generator of order dt, so the error falls off close to dt**2. Each
    rung is one `dd_cycle` on the stack of per-qubit factors and their
    sign patterns, raised to the cycle count; the rungs' powers are
    stacked, and one `_identity_infidelity` call reduces them all.

    Raises
    ------
    BadPartitionError
        If some dt does not divide total_time into whole cycles, or into a
        number of them outside 1..MAX_CYCLES_PER_SEGMENT (a negative power
        would invert the cycle), or into as many as an earlier dt; so a
        ladder holds at most MAX_CYCLES_PER_SEGMENT rungs. Every dt is
        checked before the first rung runs.
    """
    counts = {}
    for dt in dt_values:
        ratio = total_time / (4 * dt)
        cycles = round(ratio) if math.isfinite(ratio) else 0
        if abs(ratio - cycles) > 1e-9:
            raise BadPartitionError(f"dt={dt} does not divide total_time={total_time}")
        if not 1 <= cycles <= MAX_CYCLES_PER_SEGMENT:
            raise BadPartitionError(
                f"dt={dt} gives {ratio:.6g} cycles over total_time={total_time}, "
                f"outside 1..{MAX_CYCLES_PER_SEGMENT}"
            )
        if cycles in counts:
            raise BadPartitionError(
                f"dt={dt} gives {cycles} cycles over total_time={total_time}, "
                f"as dt={counts[cycles]} does"
            )
        counts[cycles] = dt
    h = _qubit_patterns(bath.factor_hamiltonians(), bath.kind)
    powers = [np.linalg.matrix_power(dd_cycle(h, dt), cycles) for cycles, dt in counts.items()]
    errors = _identity_infidelity(np.stack(powers)).tolist()
    return [(float(dt), err) for dt, err in zip(counts.values(), errors)]


def bare_evolution_error(bath: BathModel, total_time: float) -> float:
    """1 - fidelity to identity of the undecoupled bath evolution, from
    the stack of per-qubit factors and their sign patterns."""
    u = expm_hermitian(_qubit_patterns(bath.factor_hamiltonians(), bath.kind), total_time)
    return float(_identity_infidelity(u))


def _identity_infidelity(u: np.ndarray) -> np.ndarray:
    """1 - fidelity to the identity of the tensor product of per-qubit
    factor propagators, for each entry of the leading axes of u, shape
    (..., patterns, n, 2, 2): each factor is reduced to the mean over its
    sign patterns, and the n factors of every entry are one factor stack
    of a single `_product_fidelities` call."""
    reduced = u.mean(axis=-4)
    return 1 - _product_fidelities([reduced], [np.broadcast_to(np.eye(2), reduced.shape)])


# Errors at or below this are rounding, not a residual to fit an order to.
FIT_FLOOR = 1e-13


def fit_error_order(points) -> float:
    """Log-log slope of error versus dt, ignoring points at FIT_FLOOR or
    below; nan when fewer than two points are above it."""
    pts = [(dt, err) for dt, err in points if err > FIT_FLOOR]
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
